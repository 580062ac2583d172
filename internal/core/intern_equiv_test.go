package core

import (
	"fmt"
	"reflect"
	"testing"

	"ccba/internal/attest"
	"ccba/internal/netsim"
	"ccba/internal/testenv"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// sendCounter wraps a node to record the messages it sends itself — the
// per-node view of the run's Metrics. It hands its node the engine's inbox
// unchanged, so interned nodes share their state classes' ingests.
type sendCounter struct {
	*Node
	n       int
	metrics *netsim.Metrics
}

func (c *sendCounter) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	return c.count(c.Node.Step(round, delivered))
}

func (c *sendCounter) count(sends []netsim.Send) []netsim.Send {
	for _, s := range sends {
		c.metrics.CountSend(s.To, c.n, wire.Size(s.Msg))
	}
	return sends
}

// TestInternedMatchesOwnedInEveryRegime pins what lets every scenario build
// intern, Sparse or not: a run whose nodes share one intern table is
// the same execution as one whose nodes own their sets, in every delivery
// regime and under every adversary shape, not only the passive lockstep one
// Sparse runs are confined to. Each regime runs with Intern nil (the
// reference) and with a fresh table, at GOMAXPROCS 1 and 2, and must agree
// on outputs, decisions, halts, corruptions, rounds, the run's Metrics and
// every node's own sends.
func TestInternedMatchesOwnedInEveryRegime(t *testing.T) {
	const n, f, lambda = 120, 36, 40
	omissionFaulty := make([]bool, n)
	for id := 0; id < n; id += 10 {
		omissionFaulty[id] = true
	}
	var netSeed [32]byte
	netSeed[0] = 9
	regimes := []struct {
		name   string
		seed   byte
		inputs []types.Bit
		net    netsim.Faults
		adv    func() netsim.Adversary
		// exercised reports whether the adversary did what the regime is
		// there for; nil for passive regimes.
		exercised func(netsim.Adversary) bool
	}{
		{name: "passive delta-one", seed: 3, inputs: mixedInputs(n)},
		{
			name: "vote flip over delta-two omission", seed: 3, inputs: mixedInputs(n),
			net:       netsim.Faults{Delta: 2, Key: netsim.FoldSeed(netSeed), Faulty: omissionFaulty, Rate: 0.25},
			adv:       func() netsim.Adversary { return &VoteFlipAttack{} },
			exercised: func(a netsim.Adversary) bool { return a.(*VoteFlipAttack).Injected > 0 },
		},
		{name: "worst-case delta-two", seed: 3, inputs: mixedInputs(n), net: netsim.Faults{Delta: 2, Spread: netsim.SpreadHold}},
		{name: "partition", seed: 3, inputs: mixedInputs(n), net: netsim.Faults{Delta: 2, Cut: n / 2, CutUntil: 8}},
		{
			name: "divergent unicast injection", seed: 2, inputs: constInputs(n, types.One),
			adv:       func() netsim.Adversary { return &unicastFlipInjector{targets: []types.NodeID{100, 101, 102, 103, 104}} },
			exercised: func(a netsim.Adversary) bool { return a.(*unicastFlipInjector).injected },
		},
	}

	type outcome struct {
		res     *netsim.Result
		perNode []netsim.Metrics
		stats   attest.InternStats
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			runOnce := func(procs int, in *attest.Interner) outcome {
				testenv.SetGOMAXPROCS(t, procs)
				cfg := idealConfig(n, f, lambda, rg.seed)
				cfg.Intern = in
				nodes, err := NewNodes(cfg, rg.inputs)
				if err != nil {
					t.Fatal(err)
				}
				perNode := make([]netsim.Metrics, n)
				for i := range nodes {
					nodes[i] = &sendCounter{Node: nodes[i].(*Node), n: n, metrics: &perNode[i]}
				}
				var adv netsim.Adversary
				if rg.adv != nil {
					adv = rg.adv()
				}
				rt, err := netsim.NewRuntime(netsim.Config{
					N: n, F: f, MaxRounds: cfg.Rounds() * max(rg.net.Delta, 1), Net: rg.net,
					Seize: func(id types.NodeID) any { return cfg.Suite.Miner(id) },
				}, nodes, adv)
				if err != nil {
					t.Fatal(err)
				}
				res := rt.Run()
				if rg.exercised != nil && !rg.exercised(adv) {
					t.Fatalf("GOMAXPROCS=%d: the adversary never acted; the regime tests nothing", procs)
				}
				o := outcome{res: res, perNode: perNode}
				if in != nil {
					o.stats = in.Stats()
				}
				return o
			}

			want := runOnce(1, nil)
			if err := netsim.CheckConsistency(want.res); err != nil {
				t.Fatal(err)
			}
			var serialStats attest.InternStats
			for _, procs := range []int{1, 2} {
				for _, interned := range []bool{false, true} {
					var in *attest.Interner
					if interned {
						in = attest.NewInterner()
					}
					got := runOnce(procs, in)
					label := fmt.Sprintf("GOMAXPROCS=%d interned=%v", procs, interned)
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("%s: result %+v, owned sets at GOMAXPROCS=1 gave %+v", label, got.res, want.res)
					}
					for i := range want.perNode {
						if got.perNode[i] != want.perNode[i] {
							t.Errorf("%s: node %d sent %+v, owned sets at GOMAXPROCS=1 %+v", label, i, got.perNode[i], want.perNode[i])
							break
						}
					}
					switch {
					case !interned:
					case got.stats.Hits == 0:
						t.Errorf("%s: no Add hit a shared state (%+v); nothing was interned", label, got.stats)
					case procs == 1:
						serialStats = got.stats
					case got.stats != serialStats:
						t.Errorf("%s: intern stats %+v, GOMAXPROCS=1 gave %+v", label, got.stats, serialStats)
					}
				}
			}
		})
	}
}

// TestNodeCountsHitsOnOneBlock is the white-box half of the per-node hit
// block: every set a node's own window holds — the inline slots bound at
// construction, the ones its class's state was forked onto and, on a
// keep-all node, the slots grown lazily from Step — counts its hits on the
// block of the node's first set, and the blocks are node-sized, not
// run-sized. Each node leaves its class before the run (leaveAll) and
// ingests for itself.
func TestNodeCountsHitsOnOneBlock(t *testing.T) {
	// At λ = 20 this seed's run has votes in more than two iterations (see
	// TestLockstepWindowStaysInline), so keep-all windows grow.
	const n, f, lambda = 200, 60, 20
	for _, lockstep := range []bool{false, true} {
		name := "keep-all"
		if lockstep {
			name = "lockstep"
		}
		t.Run(name, func(t *testing.T) {
			cfg := idealConfig(n, f, lambda, 2)
			cfg.Lockstep = lockstep
			cfg.Intern = attest.NewInterner()
			nodes, err := NewNodes(cfg, mixedInputs(n))
			if err != nil {
				t.Fatal(err)
			}
			leaveAll(nodes)
			rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds(), Sparse: lockstep}, nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, rt.Run(), mixedInputs(n))

			first, last := nodes[0].(*Node), nodes[n-1].(*Node)
			if first.hits == last.hits {
				t.Errorf("nodes 0 and %d count on one hit block", n-1)
			}
			grown := 0
			for i, nd := range nodes {
				c := nd.(*Node)
				if !onOwn(c) {
					t.Fatalf("node %d never left its class", i)
				}
				var sets []*attest.Set
				for _, w := range []*window{&c.st.votes, &c.st.commits} {
					grown += w.len() - len(w.inline)
					for k := range w.len() {
						_, pair := w.at(k)
						sets = append(sets, &pair[0], &pair[1])
					}
				}
				for k, s := range sets {
					if !s.Interned() {
						t.Fatalf("node %d: set %d is not bound to the run's table", i, k)
					}
					if !s.CountsOn(c.hits) {
						t.Fatalf("node %d: set %d counts its hits off the node's block", i, k)
					}
				}
			}
			// Lockstep nodes recycle their inline slots; keep-all ones must
			// have grown some, or the lazy binding went unchecked.
			if lockstep != (grown == 0) {
				t.Fatalf("lockstep=%v: windows grew by %d slots in all", lockstep, grown)
			}
		})
	}
}
