package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pins for map-backed (non-Sparse) runs at the size a
// reader tries first: core ideal, n=1000 f=300 λ=40, once under the passive
// lockstep model (Δ=1) and once under a vote-flip adversary over a Δ=2
// omission network. Both intern their attestation sets like a Sparse run
// (DESIGN.md §6) and deliver through the same traffic-sized ring. Measured:
// lockstep 15.3k allocs / 1.80 MB, faults 16.1k allocs / 2.86 MB, the same
// to within 0.4 % at GOMAXPROCS 1, 2 and 4; the ceilings sit 5–11 % above.
// The faults case used to cost 36.1k / 11.03 MB: its delivery ring copied
// every multicast into a per-recipient list, about 250k 24-byte appends per
// run, where an honest sender's multicast is now one ring entry and a
// faulty sender's one entry per arrival round with a recipient bitset. The
// old ring fails both of its ceilings. Before interning the same runs cost
// 43.1k / 15.27 MB and 59.8k / 22.35 MB — n private copies of one
// committee's votes — so tier-1 holds the interned node state, the one
// F_mine table, the allocation-free checkers and the traffic-sized engine,
// and not only the benchmark driver: a coin table that remembers failed
// attempts again (n entries per tag) costs +3.4 MB on either case and fails
// both byte ceilings.
func TestDenseBudgetN1000(t *testing.T) {
	skipUnderRace(t)
	base := Config{Protocol: Core, N: 1000, F: 300, Lambda: 40}
	base.Seed[0] = 7
	faults := base
	faults.Net, faults.Delta, faults.OmissionRate, faults.OmissionFaulty = NetOmission, 2, 0.25, 100

	for _, tc := range []struct {
		name       string
		cfg        Config
		adversary  string
		maxAllocs  uint64
		maxAllocMB float64
	}{
		{name: "passive delta-one", cfg: base, maxAllocs: 16_500, maxAllocMB: 2},
		{name: "flip over omission delta-two", cfg: faults, adversary: "flip", maxAllocs: 17_500, maxAllocMB: 3.1},
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
			if mb := float64(total) / (1 << 20); mb > tc.maxAllocMB {
				t.Errorf("%.2f MB allocated, ceiling %.1f MB", mb, tc.maxAllocMB)
			}
		})
	}
}
