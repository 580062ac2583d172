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
// per-node view of the run's Metrics.
type sendCounter struct {
	netsim.Node
	n       int
	metrics *netsim.Metrics
}

func (c *sendCounter) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	sends := c.Node.Step(round, delivered)
	for _, s := range sends {
		c.metrics.CountSend(s.To, c.n, wire.Size(s.Msg))
	}
	return sends
}

// TestInternedMatchesOwnedInEveryRegime pins what lets every scenario build
// intern, map-backed or Sparse: a run whose nodes share one intern table is
// the same execution as one whose nodes own their sets, in every delivery
// regime and under every adversary shape, not only the passive lockstep one
// Sparse runs are confined to. Each regime runs with Intern nil (the
// reference) and with a fresh table, at GOMAXPROCS 1 and 2, and must agree
// on outputs, decisions, halts, corruptions, rounds, the run's Metrics and
// every node's own sends.
func TestInternedMatchesOwnedInEveryRegime(t *testing.T) {
	const n, f, lambda = 120, 36, 40
	var omissionFaulty []types.NodeID
	for id := types.NodeID(0); id < n; id += 10 {
		omissionFaulty = append(omissionFaulty, id)
	}
	var netSeed [32]byte
	netSeed[0] = 9
	regimes := []struct {
		name   string
		seed   byte
		inputs []types.Bit
		net    netsim.NetModel
		adv    func() netsim.Adversary
		// exercised reports whether the adversary did what the regime is
		// there for; nil for passive regimes.
		exercised func(netsim.Adversary) bool
	}{
		{name: "passive delta-one", seed: 3, inputs: mixedInputs(n)},
		{
			name: "vote flip over delta-two omission", seed: 3, inputs: mixedInputs(n),
			net:       netsim.Omission(2, 0.25, omissionFaulty, netSeed),
			adv:       func() netsim.Adversary { return &VoteFlipAttack{} },
			exercised: func(a netsim.Adversary) bool { return a.(*VoteFlipAttack).Injected > 0 },
		},
		{name: "worst-case delta-two", seed: 3, inputs: mixedInputs(n), net: netsim.WorstCase(2)},
		{name: "partition", seed: 3, inputs: mixedInputs(n), net: netsim.Partition(2, n/2, 8)},
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
					nodes[i] = &sendCounter{Node: nodes[i], n: n, metrics: &perNode[i]}
				}
				var adv netsim.Adversary
				if rg.adv != nil {
					adv = rg.adv()
				}
				delta := 1
				if rg.net != nil {
					delta = rg.net.Delta()
				}
				rt, err := netsim.NewRuntime(netsim.Config{
					N: n, F: f, MaxRounds: cfg.Rounds() * delta, Net: rg.net,
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
// block: every set a node holds — the map-backed per-iteration sets bound
// lazily from Step, or the window bound at construction — counts its hits
// on the anchor's block, and the blocks are node-sized, not run-sized.
func TestNodeCountsHitsOnOneBlock(t *testing.T) {
	const n, f, lambda = 200, 60, 40
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			cfg := idealConfig(n, f, lambda, 3)
			cfg.Compact = compact
			cfg.Intern = attest.NewInterner()
			nodes, err := NewNodes(cfg, mixedInputs(n))
			if err != nil {
				t.Fatal(err)
			}
			rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds(), Sparse: compact}, nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, rt.Run(), mixedInputs(n))

			first, last := nodes[0].(*Node), nodes[n-1].(*Node)
			if first.anchor.CountsWith(&last.anchor) {
				t.Errorf("nodes 0 and %d count on one hit block", n-1)
			}
			for i, nd := range nodes {
				c := nd.(*Node)
				var sets []*attest.Set
				for _, pairs := range []map[uint32]*[2]attest.Set{c.votes, c.commits} {
					for _, pair := range pairs {
						sets = append(sets, &pair[0], &pair[1])
					}
				}
				for w := range c.voteWin {
					sets = append(sets, &c.voteWin[w].sets[0], &c.voteWin[w].sets[1],
						&c.commitWin[w].sets[0], &c.commitWin[w].sets[1])
				}
				sets = append(sets, &c.staleSets[0], &c.staleSets[1])
				bound := 0
				for k, s := range sets {
					if !s.Interned() {
						continue
					}
					bound++
					if !s.CountsWith(&c.anchor) {
						t.Fatalf("node %d: set %d counts its hits off the node's block", i, k)
					}
				}
				// Map-backed: ≥ one vote and one commit pair bound from Step;
				// compact: the ten window and stale sets bound in New.
				if bound < 4 {
					t.Fatalf("node %d holds %d interned sets; nothing was bound", i, bound)
				}
			}
		})
	}
}
