package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ccba/internal/attest"
	"ccba/internal/broadcast"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/testenv"
	"ccba/internal/types"
)

// leaveAll takes every node out of its class before the run, so that each
// ingests every delivery itself, as a node of a run without classes
// would, whatever slice the engine hands it and whatever wraps it.
func leaveAll(nodes []netsim.Node) {
	for _, nd := range nodes {
		if c := nd.(*Node); c.class != nil {
			c.leave()
		}
	}
}

// onOwn reports whether n reads its own state, its slot of its chunk of the
// run's own states, and not a class's.
func onOwn(n *Node) bool {
	c := n.cfg.own[n.id/ownChunkLen]
	return n.class == nil && c != nil && n.st == &c[n.id%ownChunkLen]
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
		root := nodes[0].(*Node).class
		if alone {
			leaveAll(nodes)
		}
		rt, err := netsim.NewRuntime(ncfg, nodes, nil)
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
		if last == nil {
			t.Fatalf("%s: node 0 ended outside any class", label)
		}
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

// handing wraps a node so that, in one round, it is handed hand's inbox
// in place of the engine's. left records whether the node read its own
// state after that round's step.
type handing struct {
	*Node
	round int
	hand  func(shared []netsim.Delivered) []netsim.Delivered
	left  bool
}

func (h *handing) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if round != h.round {
		return h.Node.Step(round, delivered)
	}
	sends := h.Node.Step(round, h.hand(delivered))
	h.left = onOwn(h.Node)
	return sends
}

// TestStateClassLeaveKeepsFrozenState runs a class through two rounds on
// one shard and hands one node, after the class's successor was computed,
// the round's shared list without its first entry: that node forks its own
// state off the class's and ingests alone, and neither the state it left
// nor the successor the rest of the class computed and rebinds to changes.
func TestStateClassLeaveKeepsFrozenState(t *testing.T) {
	const n, f, lambda, loner = 20, 4, 20, 5 // λ = n: every node votes
	// One shard steps the nodes in id order.
	testenv.SetGOMAXPROCS(t, 1)
	cfg := idealConfig(n, f, lambda, 1)
	cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
	nodes, err := NewNodes(cfg, constInputs(n, types.One))
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*Node, n)
	for i, nd := range nodes {
		cores[i] = nd.(*Node)
	}
	root := cores[0].class
	rootBefore := render(&root.state)
	var next *class
	var nextBefore string
	stepped := slices.Clone(nodes)
	stepped[loner] = &handing{Node: cores[loner], round: 1, hand: func(shared []netsim.Delivered) []netsim.Delivered {
		if len(shared) != n {
			t.Fatalf("round 1: %d votes, want %d", len(shared), n)
		}
		if next = root.next.Load(); next == nil || next.round != 1 {
			t.Fatal("round 1's votes left the class where it was")
		}
		nextBefore = render(&next.state)
		return shared[1:] // the loner misses node 0's vote
	}}
	rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: 2}, stepped, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()

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

// TestStateClassFollowsOnlyItsList hands one node of a passive class run,
// in round 1, an inbox that carries the engine's mark but is not the list
// the class's successor is computed from: a sub-slice, a prefix, a copy.
// The node must leave its class in that round rather than adopt the
// successor, and every node must end on the state it reaches alone, which
// the same run with every node out of its class gives. Handed to node 0,
// the first arrival, the sub-slice is what the successor is computed from:
// node 0 stays on it, and every other node must leave instead.
func TestStateClassFollowsOnlyItsList(t *testing.T) {
	const n, f, lambda = 20, 4, 20 // λ = n: every node votes
	// One shard steps the nodes in id order.
	testenv.SetGOMAXPROCS(t, 1)
	inputs := mixedInputs(n)
	cases := []struct {
		name  string
		loner int
		hand  func([]netsim.Delivered) []netsim.Delivered
	}{
		{"suffix", 5, func(l []netsim.Delivered) []netsim.Delivered { return l[1:] }},
		{"prefix", 5, func(l []netsim.Delivered) []netsim.Delivered { return l[:len(l)-1] }},
		{"copy", 5, slices.Clone[[]netsim.Delivered]},
		{"suffix-first", 0, func(l []netsim.Delivered) []netsim.Delivered { return l[1:] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(private bool) (*netsim.Result, []netsim.Node, *handing) {
				cfg := idealConfig(n, f, lambda, 1)
				cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
				nodes, err := NewNodes(cfg, inputs)
				if err != nil {
					t.Fatal(err)
				}
				if private {
					leaveAll(nodes)
				}
				h := &handing{Node: nodes[tc.loner].(*Node), round: 1, hand: tc.hand}
				stepped := slices.Clone(nodes)
				stepped[tc.loner] = h
				rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds()}, stepped, nil)
				if err != nil {
					t.Fatal(err)
				}
				return rt.Run(), nodes, h
			}
			want, wantNodes, _ := run(true)
			got, gotNodes, h := run(false)
			if first := tc.loner == 0; h.left == first {
				t.Errorf("the loner left its class: %v, want %v", h.left, !first)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result %+v, nodes ingesting alone gave %+v", got, want)
			}
			for i := range gotNodes {
				if g, w := render(gotNodes[i].(*Node).st), render(wantNodes[i].(*Node).st); g != w {
					t.Fatalf("node %d ended on\n%s\nalone it reaches\n%s", i, g, w)
				}
			}
			if other := gotNodes[n-1].(*Node); (other.class == nil) != (tc.loner == 0) {
				t.Errorf("node %d left its class: %v, want %v", n-1, other.class == nil, tc.loner == 0)
			}
		})
	}
}

// splitExtras corrupts one round-0 voter, mines its flipped vote, and
// hands node 0 that vote and node 1 a second copy of its honest one. Nodes
// 0 and 1 then receive the round's shared list merged with one extra
// each: two inboxes of one length, in one shard's merge scratch, with
// different contents.
type splitExtras struct {
	voter types.NodeID
	done  bool
}

func (a *splitExtras) Power() netsim.Power { return netsim.PowerWeaklyAdaptive }

func (a *splitExtras) Setup(*netsim.Ctx) {}

func (a *splitExtras) Round(ctx *netsim.Ctx) {
	if a.done {
		return
	}
	a.done = true
	for _, e := range ctx.Outgoing() {
		vote, ok := e.Msg.(VoteMsg)
		if !ok || e.From != a.voter {
			continue
		}
		seized, err := ctx.Corrupt(e.From)
		if err != nil {
			panic(err)
		}
		flip := vote.B.Flip()
		proof, mined := seized.Keys.(fmine.Miner).Mine(VoteTag(vote.Iter, flip))
		if !mined {
			panic("λ = n: every ticket is mined")
		}
		if err := ctx.Inject(e.From, 0, VoteMsg{Iter: vote.Iter, B: flip, Elig: proof}); err != nil {
			panic(err)
		}
		if err := ctx.Inject(e.From, 1, vote); err != nil {
			panic(err)
		}
		return
	}
	panic("the voter sent no vote")
}

// TestStateClassMergedInboxLeaves pins why the engine's merge strips the
// list's mark: the merge scratch is reused across a shard's nodes, so the
// inboxes of nodes 0 and 1 under splitExtras share an address and a length
// but not their contents. Both must leave their class and end on the states
// they reach alone, and the nodes handed the shared list must stay in it
// (the corrupted voter, never stepped again, stays where it was).
func TestStateClassMergedInboxLeaves(t *testing.T) {
	const n, f, lambda, voter = 20, 4, 20, 7 // λ = n: every node votes
	// One shard, one merge scratch.
	testenv.SetGOMAXPROCS(t, 1)
	inputs := constInputs(n, types.One)
	run := func(private bool) (*netsim.Result, []netsim.Node) {
		cfg := idealConfig(n, f, lambda, 1)
		cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
		nodes, err := NewNodes(cfg, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if private {
			leaveAll(nodes)
		}
		rt, err := netsim.NewRuntime(netsim.Config{
			N: n, F: f, MaxRounds: cfg.Rounds(),
			Seize: func(id types.NodeID) any { return cfg.Suite.Miner(id) },
		}, nodes, &splitExtras{voter: voter})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), nodes
	}
	want, wantNodes := run(true)
	got, gotNodes := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result %+v, nodes ingesting alone gave %+v", got, want)
	}
	for i := range gotNodes {
		c := gotNodes[i].(*Node)
		if g, w := render(c.st), render(wantNodes[i].(*Node).st); g != w {
			t.Fatalf("node %d ended on\n%s\nalone it reaches\n%s", i, g, w)
		}
		if stays := i > 1; stays == (c.class == nil) {
			t.Errorf("node %d: in a class at the end: %v, want %v", i, c.class != nil, stays)
		}
	}
}

// forwarding is shaped like the benchmark's traced-pass decorator
// (bench/traced.go's timedNode): it embeds netsim.Node and forwards Step
// with the inbox it was handed. Instead of timing the step, it counts the
// steps after which its core node is still in a class.
type forwarding struct {
	netsim.Node
	steps, classed *atomic.Int64
}

func (w forwarding) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	sends := w.Node.Step(round, delivered)
	w.steps.Add(1)
	if w.Node.(*Node).class != nil {
		w.classed.Add(1)
	}
	return sends
}

// TestStateClassThroughForwardingWrapper pins that the class path needs no
// cooperation from a wrapper: every core step of a passive lockstep run
// stepped through forwarding stays on it, at every worker count.
func TestStateClassThroughForwardingWrapper(t *testing.T) {
	const n, f, lambda = 200, 60, 40
	for _, procs := range testenv.Procs {
		testenv.SetGOMAXPROCS(t, procs)
		cfg := idealConfig(n, f, lambda, 3)
		cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
		nodes, err := NewNodes(cfg, mixedInputs(n))
		if err != nil {
			t.Fatal(err)
		}
		var steps, classed atomic.Int64
		for i, nd := range nodes {
			nodes[i] = forwarding{nd, &steps, &classed}
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds()}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, rt.Run(), mixedInputs(n))
		if steps.Load() == 0 || classed.Load() != steps.Load() {
			t.Errorf("GOMAXPROCS=%d: %d of %d steps on the class path, want all", procs, classed.Load(), steps.Load())
		}
	}
}

// TestStateClassCoreBroadcast runs passive core-broadcast at n = 200: the
// inner core nodes come from one Run, and broadcast.Node hands them the
// engine's inbox unchanged, so every inner step stays on the class path.
// The Result and the intern counters are those of the run whose inner
// nodes each ingest alone.
func TestStateClassCoreBroadcast(t *testing.T) {
	const n, f, lambda = 200, 60, 40
	type outcome struct {
		res            *netsim.Result
		stats          attest.InternStats
		steps, classed int64
	}
	run := func(procs int, private bool) outcome {
		testenv.SetGOMAXPROCS(t, procs)
		cfg := idealConfig(n, f, lambda, 5)
		cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
		r, err := NewRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var steps, classed atomic.Int64
		nodes, err := broadcast.NewNodes(n, 0, types.One, func(id types.NodeID, input types.Bit) (netsim.Node, error) {
			nd, err := r.Node(id, input)
			if err != nil {
				return nil, err
			}
			if private {
				nd.leave()
			}
			return forwarding{nd, &steps, &classed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds() + 1}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		if err := netsim.CheckBroadcastValidity(res, 0, types.One); err != nil {
			t.Fatal(err)
		}
		return outcome{res, cfg.Intern.Stats(), steps.Load(), classed.Load()}
	}
	want := run(1, true)
	if want.classed != 0 {
		t.Fatalf("%d inner steps on the class path with every inner node out of its class", want.classed)
	}
	for _, procs := range testenv.Procs {
		got := run(procs, false)
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s: result %+v, inner nodes ingesting alone gave %+v", label, got.res, want.res)
		}
		if got.stats != want.stats {
			t.Errorf("%s: intern stats %+v, inner nodes ingesting alone gave %+v", label, got.stats, want.stats)
		}
		if got.steps != want.steps || got.classed != got.steps || got.steps != 600 {
			t.Errorf("%s: %d of %d inner steps on the class path, want all of %d", label, got.classed, got.steps, 600)
		}
	}
}

// puppet seizes one node before round 0 and steps it as the engine would,
// on the inbox Ctx.Inbox returns, multicasting what it sends.
type puppet struct {
	id   types.NodeID
	node netsim.Node
}

func (a *puppet) Power() netsim.Power { return netsim.PowerStatic }

func (a *puppet) Setup(ctx *netsim.Ctx) {
	seized, err := ctx.Corrupt(a.id)
	if err != nil {
		panic(err)
	}
	a.node = seized.Node
}

func (a *puppet) Round(ctx *netsim.Ctx) {
	if a.node.Halted() {
		return
	}
	inbox, err := ctx.Inbox(a.id)
	if err != nil {
		panic(err)
	}
	for _, s := range a.node.Step(ctx.Round(), inbox) {
		if err := ctx.Inject(a.id, s.To, s.Msg); err != nil {
			panic(err)
		}
	}
}

// TestStateClassSeizedNodeFollows: a seized node that the adversary steps
// on the exact shared list holds its class's state and is handed its
// class's list, so it follows the class, and the run is the one whose
// nodes each ingest alone.
func TestStateClassSeizedNodeFollows(t *testing.T) {
	const n, f, lambda, seized = 60, 18, 40, 7
	run := func(private bool) (*netsim.Result, attest.InternStats, []netsim.Node) {
		cfg := idealConfig(n, f, lambda, 3)
		cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
		nodes, err := NewNodes(cfg, mixedInputs(n))
		if err != nil {
			t.Fatal(err)
		}
		if private {
			leaveAll(nodes)
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds()}, nodes, &puppet{id: seized})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), cfg.Intern.Stats(), nodes
	}
	want, wantStats, _ := run(true)
	got, gotStats, nodes := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result %+v, nodes ingesting alone gave %+v", got, want)
	}
	if gotStats != wantStats {
		t.Errorf("intern stats %+v, nodes ingesting alone gave %+v", gotStats, wantStats)
	}
	if c, last := nodes[seized].(*Node), nodes[0].(*Node).class; last == nil || c.class != last {
		t.Error("the seized node did not follow its class")
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
		if alone {
			leaveAll(nodes)
		}
		net := netsim.Faults{Delta: 2, Key: netsim.FoldSeed(netSeed), Faulty: faulty, Rate: 0.25}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: 2 * cfg.Rounds(), Net: net}, nodes, nil)
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
