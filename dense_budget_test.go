package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pins for non-Sparse runs at the size a reader tries
// first: core ideal, n=1000 f=300 λ=40, once under the passive lockstep
// model (Δ=1) and once under a vote-flip adversary over a Δ=2 omission
// network. Both intern their attestation sets (DESIGN.md §6) and deliver
// through the same traffic-sized ring; the first runs core's lockstep
// window, the second its keep-all window. Measured with the nodes in one
// slab, a node's own state allocated only when it leaves its state class
// and miners handed out without allocating (DESIGN.md §6): lockstep
// 1.34–1.37k allocs / 0.257–0.259 MB, faults 5.38–5.42k allocs /
// 1.83–1.84 MB at GOMAXPROCS 1, 2 and 4; the ceilings sit about 10 %
// above. With a 352-byte node per allocation, its own state inline, and a
// miner boxed per node, the same runs cost 3.31–3.34k allocs /
// 0.551–0.554 MB and 7.44–7.48k / 1.85–1.86 MB; the lockstep ceilings
// fail that layout. Before state classes (core nodes handed the round's
// shared list share one ingest of it), with every node ingesting alone (a
// proposal per node per leader, a terminate message per node, and a
// vote-window slot taken for every commit round) the same runs cost 7.30–7.33k allocs /
// 0.79–0.80 MB and 9.38–9.43k / 2.02–2.03 MB. The 648-byte node before
// that (a private Config copy, a verifier and a hit-block anchor per node,
// five-word sets) cost the same allocs at 1.13–1.14 MB and 2.52–2.54 MB.
// With per-iteration maps on every node the same runs cost 15.3k /
// 1.80 MB and 16.1k / 2.85 MB. The faults case once cost 36.1k /
// 11.03 MB, when its delivery ring copied every multicast into a
// per-recipient list, and before interning the two cost 43.1k / 15.27 MB and 59.8k / 22.35 MB — n
// private copies of one committee's votes. So tier-1 holds the window, the
// interned node state, the one F_mine table, the allocation-free checkers
// and the traffic-sized engine, and not only the benchmark driver: a coin
// table that remembers failed attempts again (n entries per tag) costs
// +3.4 MB on either case and fails both byte ceilings.
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
		{name: "passive delta-one", cfg: base, maxAllocs: 1_520, maxAllocMB: 0.29},
		{name: "flip over omission delta-two", cfg: faults, adversary: "flip", maxAllocs: 5_950, maxAllocMB: 2.03},
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
				t.Errorf("%.3f MB allocated, ceiling %.2f MB", mb, tc.maxAllocMB)
			}
		})
	}
}
