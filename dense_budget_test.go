package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pins for the dense engine at the size a reader tries
// first: core ideal, n=1000 f=300 λ=40, once on the lockstep path (passive,
// Δ=1) and once on the scheduled path (vote-flip adversary over a Δ=2
// omission network). The ceilings sit ~10 % above the measured values —
// lockstep 50.9k allocs / 15.7 MB, scheduled 67.4k allocs / 22.7 MB — so
// tier-1 holds the memory profile of the one F_mine table and the
// allocation-free checkers, and not only the benchmark driver: a coin table
// that remembers failed attempts again (n entries per tag) costs +3.4 MB on
// either case and fails both byte ceilings.
func TestDenseBudgetN1000(t *testing.T) {
	base := Config{Protocol: Core, N: 1000, F: 300, Lambda: 40}
	base.Seed[0] = 7
	faults := base
	faults.Net, faults.Delta, faults.OmissionRate, faults.OmissionFaulty = NetOmission, 2, 0.25, 100

	for _, tc := range []struct {
		name       string
		cfg        Config
		adversary  string
		maxAllocs  uint64
		maxAllocMB uint64
	}{
		{name: "passive delta-one", cfg: base, maxAllocs: 56_000, maxAllocMB: 17},
		{name: "flip over omission delta-two", cfg: faults, adversary: "flip", maxAllocs: 74_000, maxAllocMB: 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv, err := NewAdversary(tc.adversary, tc.cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Adversary = adv
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runBudgetCase(t, cfg)
			runtime.ReadMemStats(&after)
			allocs, total := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			if allocs > tc.maxAllocs {
				t.Errorf("%d allocs/run, ceiling %d", allocs, tc.maxAllocs)
			}
			if total > tc.maxAllocMB<<20 {
				t.Errorf("%.1f MB allocated, ceiling %d MB", float64(total)/(1<<20), tc.maxAllocMB)
			}
		})
	}
}
