package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pin for the live cluster at the benchmark's size: core
// ideal, n=200 f=60 λ=40 over the chan transport, network construction
// included. Measured 17.0–17.2k allocs / 7.9–8.4 MB at GOMAXPROCS 1, 2 and
// 4 (mailbox growth follows the schedule) with the O(n) round barrier, one
// decode per multicast and the Report assembled once by Run. The ceilings
// sit above that spread and below what any of the three mechanisms'
// absence costs: an n² result exchange with n evaluated reports ran at
// 20.4–21.3k allocs / 12.3–13.3 MB, and n² sync markers through the
// mailboxes plus a decode per delivery at 100.9k allocs / 48.8 MB — so
// tier-1 holds the gain and not only the benchmark driver.
func TestClusterChanBudgetN200(t *testing.T) {
	cfg := Config{Protocol: Core, N: 200, F: 60, Lambda: 40}
	cfg.Seed[0] = 7
	const maxAllocs, maxAllocMB = 19_500, 10

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runClusterChan(t, cfg)
	runtime.ReadMemStats(&after)
	if !rep.Ok() {
		t.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
	allocs, total := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if allocs > maxAllocs {
		t.Errorf("%d allocs/run, ceiling %d", allocs, maxAllocs)
	}
	if total > maxAllocMB<<20 {
		t.Errorf("%.1f MB allocated, ceiling %d MB", float64(total)/(1<<20), maxAllocMB)
	}
}
