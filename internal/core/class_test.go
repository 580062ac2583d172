package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ccba/internal/attest"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/testenv"
	"ccba/internal/types"
)

// private hides StepShared, so the engine steps the node through Step: the
// node leaves its class in its first round and ingests every delivery
// itself, as a node of a run without classes would.
type private struct{ netsim.Node }

// privately wraps every node in private.
func privately(nodes []netsim.Node) []netsim.Node {
	out := make([]netsim.Node, len(nodes))
	for i, nd := range nodes {
		out[i] = private{nd}
	}
	return out
}

// onOwn reports whether n reads its own state, its slot of the run's
// own-state slab, and not a class's.
func onOwn(n *Node) bool {
	return n.class == nil && n.cfg.own != nil && n.st == &n.cfg.own[n.id]
}

// countingSuite counts the ticket Verify calls made through its verifiers.
type countingSuite struct {
	fmine.Suite
	calls atomic.Int64
}

func (s *countingSuite) Verifier() fmine.Verifier { return countingVerifier{s, s.Suite.Verifier()} }

type countingVerifier struct {
	s *countingSuite
	v fmine.Verifier
}

func (v countingVerifier) Verify(tag fmine.Tag, id types.NodeID, proof []byte) bool {
	v.s.calls.Add(1)
	return v.v.Verify(tag, id, proof)
}

// TestStateClassOncePerRound pins what state classes are for. Under the
// passive lockstep schedule every node is handed every round's shared
// list, so all n nodes stay in the class NewNodes starts them in, and the
// class ingests each round's delivery exactly once, at every worker count:
// its tickets are verified once, as often as the engine's screen verifies
// them, and every other node rebinds to the one successor, so all n end on
// one frozen state reached by one transition per round. The Result and the
// intern counters are those of the same run with every node ingesting
// alone; the counters are also pinned to the values that per-node run has
// always had, so a rebind that counted its hits wrong would show.
func TestStateClassOncePerRound(t *testing.T) {
	const n, f, lambda = 200, 60, 40
	inputs := mixedInputs(n)
	type outcome struct {
		res   *netsim.Result
		stats attest.InternStats
		calls int64
		nodes []netsim.Node
		root  *class
	}
	run := func(procs int, screen, alone bool) outcome {
		testenv.SetGOMAXPROCS(t, procs)
		cfg := idealConfig(n, f, lambda, 3)
		suite := &countingSuite{Suite: cfg.Suite}
		cfg.Suite, cfg.Lockstep, cfg.Intern = suite, true, attest.NewInterner()
		nodes, err := NewNodes(cfg, inputs)
		if err != nil {
			t.Fatal(err)
		}
		ncfg := netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds(), Sparse: true}
		if screen {
			ncfg.Screen = Screen(suite.Verifier())
		}
		stepped := nodes
		if alone {
			stepped = privately(nodes)
		}
		root := nodes[0].(*Node).class
		rt, err := netsim.NewRuntime(ncfg, stepped, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		return outcome{res, cfg.Intern.Stats(), suite.calls.Load(), nodes, root}
	}

	want := run(1, false, true)
	checkAll(t, want.res, inputs)
	if pinned := (attest.InternStats{States: 112, Clones: 112, Hits: 22288, Forks: 1}); want.stats != pinned {
		t.Fatalf("nodes ingesting alone: intern stats %+v, want %+v", want.stats, pinned)
	}
	screened := run(1, true, false).calls
	for _, procs := range testenv.Procs {
		got := run(procs, false, false)
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s: result %+v, nodes ingesting alone gave %+v", label, got.res, want.res)
		}
		if got.stats != want.stats {
			t.Errorf("%s: intern stats %+v, nodes ingesting alone gave %+v", label, got.stats, want.stats)
		}
		if got.calls != screened {
			t.Errorf("%s: %d ticket checks, want one per shared delivery, %d (the screen's count)", label, got.calls, screened)
		}
		last := got.nodes[0].(*Node).class
		for i, nd := range got.nodes {
			if c := nd.(*Node); c.class != last || c.st != &last.state {
				t.Fatalf("%s: node %d ended outside node 0's class", label, i)
			}
		}
		transitions, round := 0, -1
		for c := got.root; c != last; transitions++ {
			if c = c.next.Load(); c == nil || c.round <= round {
				t.Fatalf("%s: the class's transitions are not one chain of rounds", label)
			}
			round = c.round
		}
		if transitions == 0 || transitions > got.res.Rounds {
			t.Errorf("%s: %d transitions in %d rounds", label, transitions, got.res.Rounds)
		}
	}
}

// TestStateClassLeaveKeepsFrozenState steps a class by hand and hands one
// node a private inbox mid-round: that node forks its own state off the
// class's and ingests alone, and neither the state it left nor the
// successor the rest of the class computed and rebinds to changes.
func TestStateClassLeaveKeepsFrozenState(t *testing.T) {
	const n, f, lambda, loner = 20, 4, 20, 5 // λ = n: every node votes
	cfg := idealConfig(n, f, lambda, 1)
	cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
	nodes, err := NewNodes(cfg, constInputs(n, types.One))
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*Node, n)
	var shared []netsim.Delivered
	for i, nd := range nodes {
		cores[i] = nd.(*Node)
		for _, s := range cores[i].StepShared(0, nil) {
			shared = append(shared, netsim.Delivered{From: types.NodeID(i), Msg: s.Msg})
		}
	}
	if len(shared) != n {
		t.Fatalf("round 0: %d votes, want %d", len(shared), n)
	}
	root := cores[0].class
	rootBefore := render(&root.state)

	for i := 0; i < loner; i++ {
		cores[i].StepShared(1, shared)
	}
	next := cores[0].class
	if next == root {
		t.Fatal("round 1's votes left the class where it was")
	}
	nextBefore := render(&next.state)
	cores[loner].Step(1, shared[1:]) // the loner misses node 0's vote
	for i := loner + 1; i < n; i++ {
		cores[i].StepShared(1, shared)
	}

	if render(&root.state) != rootBefore || render(&next.state) != nextBefore {
		t.Fatal("a node leaving its class changed a frozen state")
	}
	lone := cores[loner]
	if !onOwn(lone) {
		t.Fatal("a node handed a private inbox stayed in its class")
	}
	if got, want := lone.st.votes.held(1)[types.One].Count(), next.votes.held(1)[types.One].Count(); got != want-1 || want != n {
		t.Errorf("iteration 1 votes: %d on the loner's own state, %d on the class's; want %d and %d", got, want, n-1, n)
	}
	for i, c := range cores {
		if i != loner && c.class != next {
			t.Errorf("node %d did not rebind to the class's successor", i)
		}
	}
	for _, w := range []*window{&lone.st.votes, &lone.st.commits} {
		for k := range w.len() {
			_, pair := w.at(k)
			for b := range pair {
				if !pair[b].CountsOn(lone.hits) {
					t.Fatal("the loner's forked sets count their hits off its own block")
				}
			}
		}
	}
}

// render is a state's content: every attestation, certificate, proposal and
// the terminate message, not where they are stored.
func render(st *state) string {
	var b strings.Builder
	for _, w := range []*window{&st.votes, &st.commits} {
		for i := range w.len() {
			iter, sets := w.at(i)
			fmt.Fprintf(&b, "iter %d:", *iter)
			for k := range sets {
				fmt.Fprintf(&b, " %v |", sets[k].Attestations())
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "certs %v\nproposals %d:", st.bestCert, st.propIter())
	for _, p := range st.proposals {
		if p != nil {
			fmt.Fprintf(&b, " %+v", *p)
		}
	}
	if st.terminate != nil {
		fmt.Fprintf(&b, "\nterminate %+v", *st.terminate)
	}
	return b.String()
}

// TestStateClassOmissionMatchesOwned runs the regime classes must survive:
// a Δ = 2 omission network, where each node handed a list with a dropped
// link leaves its class and the rest keep sharing. The run must be the
// owned-set reference's, whose nodes each ingest alone, with the intern
// counters of an interned run whose nodes ingest alone.
func TestStateClassOmissionMatchesOwned(t *testing.T) {
	const n, f, lambda = 120, 36, 40
	faulty := make([]bool, n)
	for id := 0; id < n; id += 10 {
		faulty[id] = true
	}
	var netSeed [32]byte
	netSeed[0] = 9
	inputs := mixedInputs(n)
	run := func(procs int, in *attest.Interner, alone bool) (*netsim.Result, []netsim.Node) {
		testenv.SetGOMAXPROCS(t, procs)
		cfg := idealConfig(n, f, lambda, 3)
		cfg.Intern = in
		nodes, err := NewNodes(cfg, inputs)
		if err != nil {
			t.Fatal(err)
		}
		stepped := nodes
		if alone {
			stepped = privately(nodes)
		}
		net := netsim.Faults{Delta: 2, Key: netsim.FoldSeed(netSeed), Faulty: faulty, Rate: 0.25}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: 2 * cfg.Rounds(), Net: net}, stepped, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), nodes
	}

	want, _ := run(1, nil, false)
	checkAll(t, want, inputs)
	alone := attest.NewInterner()
	run(1, alone, true)
	for _, procs := range testenv.Procs {
		in := attest.NewInterner()
		got, nodes := run(procs, in, false)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: result %+v, owned sets gave %+v", procs, got, want)
		}
		if got, want := in.Stats(), alone.Stats(); got != want {
			t.Errorf("GOMAXPROCS=%d: intern stats %+v, nodes ingesting alone gave %+v", procs, got, want)
		}
		left := 0
		for _, nd := range nodes {
			if nd.(*Node).class == nil {
				left++
			}
		}
		if left == 0 || left == n {
			t.Errorf("GOMAXPROCS=%d: %d of %d nodes left the class; the run exercises no divergence", procs, left, n)
		}
	}
}
