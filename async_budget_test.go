package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pin for the async track at the benchmark's size: ACS
// ideal, n=32 f=10 under the random scheduler, construction included.
// Measured 33.0k allocs / 4.11 MB at GOMAXPROCS 1, 2 and 4 (the event
// runtime is single-threaded, so the spread is a few allocations); the byte
// ceiling sits ~5 % above. Nearly all of it is the protocol's own state —
// 1,024 BRB and 1,024 ABA instances and their ~3.6k round records. The queue
// holds one heap entry and one send record per send in flight, ~9.5k at the
// peak, and each multicast's 32 link offsets in 256 KiB chunks; it was a
// heap of every link in flight, ~56k at the peak, which allocated 6.53 MB.
// A scheduler that boxes each link through container/heap again ran at
// 625k allocs / 39 MB, and per-round sender slices or a wrapper allocated
// per send each cost ~10k allocations, so tier-1 holds the gain and not only
// the benchmark driver.
func TestAsyncACSBudgetN32(t *testing.T) {
	skipUnderRace(t)
	cfg := Config{Protocol: ACS, N: 32, F: 10, Sched: SchedRandom}
	cfg.Seed[0] = 7
	const maxAllocs, maxAllocMB = 34_700, 4.3

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runBudgetCase(t, cfg)
	runtime.ReadMemStats(&after)
	allocs, total := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if allocs > maxAllocs {
		t.Errorf("%d allocs/run, ceiling %d", allocs, maxAllocs)
	}
	if mb := float64(total) / (1 << 20); mb > maxAllocMB {
		t.Errorf("%.2f MB allocated, ceiling %.1f MB", mb, maxAllocMB)
	}
}
