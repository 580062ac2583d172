package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pin for the live cluster at the benchmark's size: core
// ideal, n=200 f=60 λ=40 over the chan transport, network construction
// included. Measured 11.8–12.0k allocs / 5.7–6.1 MB at GOMAXPROCS 1, 2 and
// 4, with a tail to 13.2k / 6.9 MB at GOMAXPROCS 4 on two cores (mailbox
// growth follows the schedule), with the in-process nodes sharing one
// attestation intern table, the O(n) round barrier, one decode per
// multicast and the Report assembled once by Run. The ceilings sit above
// that tail and below what any of the four mechanisms' absence costs:
// private attestation sets per node ran at 17.0–18.4k allocs / 7.9–9.2 MB,
// an n² result exchange with n evaluated reports at 20.4–21.3k allocs /
// 12.3–13.3 MB, and n² sync markers through the mailboxes plus a decode per
// delivery at 100.9k allocs / 48.8 MB — so tier-1 holds the gain and not
// only bench/.
func TestClusterChanBudgetN200(t *testing.T) {
	skipUnderRace(t)
	cfg := Config{Protocol: Core, N: 200, F: 60, Lambda: 40}
	cfg.Seed[0] = 7
	const maxAllocs, maxAllocMB = 14_000, 7.4

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
	if mb := float64(total) / (1 << 20); mb > maxAllocMB {
		t.Errorf("%.2f MB allocated, ceiling %.1f MB", mb, maxAllocMB)
	}
}
