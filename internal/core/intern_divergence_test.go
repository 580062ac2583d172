package core

import (
	"testing"

	"ccba/internal/attest"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// TestInternHonestRunSharesHandles runs a dense interned execution under a
// passive adversary, every node ingesting alone, and asserts the sharing
// claim interning rests on: every honest node's per-iteration vote and
// commit sets walk identical histories, so all n nodes end the run holding
// the *same* handle — O(committee) attestation storage for the whole run instead of
// O(n·committee).
func TestInternHonestRunSharesHandles(t *testing.T) {
	const n, f, lambda = 80, 24, 40
	in := attest.NewInterner()
	cfg := idealConfig(n, f, lambda, 1)
	cfg.Intern = in
	inputs := constInputs(n, types.One)

	nodes, err := NewNodes(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*Node, n)
	simNodes := make([]netsim.Node, n)
	for i, nd := range nodes {
		cores[i] = nd.(*Node)
		simNodes[i] = nd
	}
	// Each node ingests alone (leaveAll), so the handles compared below
	// are reached independently, not read off one class's frozen state.
	leaveAll(simNodes)
	rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds()}, simNodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	checkAll(t, res, inputs)
	readOwn(t, cores)

	shared := 0
	for iter := uint32(1); iter <= 2; iter++ {
		ref := cores[0].st.votes.held(iter)
		if ref == nil {
			continue
		}
		for b := 0; b < 2; b++ {
			sharers := 0
			for i := 0; i < n; i++ {
				set := cores[i].st.votes.held(iter)
				if set == nil || !ref[b].SharesStorageWith(&set[b]) {
					t.Fatalf("node %d iter %d bit %d: honest vote set does not share storage", i, iter, b)
				}
				sharers++
			}
			if ref[b].Count() > 0 {
				shared++
				if sharers < n {
					t.Fatalf("iter %d bit %d: vote handle shared by %d sets < n=%d", iter, b, sharers, n)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no populated shared vote sets observed; test exercised nothing")
	}

	st := in.Stats()
	if st.Clones != st.States {
		t.Fatalf("clones=%d != states=%d", st.Clones, st.States)
	}
	// The whole point: state creation is bounded by traffic (each distinct
	// attestation added once), not by n × traffic. A conservative ceiling —
	// without sharing this run would intern tens of thousands of states.
	if st.States > 2000 {
		t.Fatalf("honest interned run created %d states; sharing is not happening", st.States)
	}
	if st.Hits < int64(st.States)*int64(n/2) {
		t.Fatalf("hits=%d suspiciously low for %d states across %d nodes", st.Hits, st.States, n)
	}
}

// readOwn fails unless every node ended the run on its own state, so that
// comparing two nodes' sets compares two Sets, not one frozen Set with
// itself.
func readOwn(t *testing.T, cores []*Node) {
	t.Helper()
	for i, c := range cores {
		if !onOwn(c) {
			t.Fatalf("node %d reads a class's state, not its own", i)
		}
	}
}

// unicastFlipInjector corrupts round-0 voters until one of them mines an
// opposite-bit vote ticket, then injects the forged vote by *unicast* to a
// fixed subset of honest nodes — the minimal divergent schedule: targets
// observe one extra attestation the rest of the network never sees. This
// is exactly the adversarial (hence sparse-ineligible) regime
// copy-on-divergence must survive: shared handles fork for the targets,
// everyone else keeps sharing.
type unicastFlipInjector struct {
	targets  []types.NodeID
	flipBit  types.Bit
	injected bool
}

func (a *unicastFlipInjector) Power() netsim.Power { return netsim.PowerWeaklyAdaptive }

func (a *unicastFlipInjector) Setup(*netsim.Ctx) {}

func (a *unicastFlipInjector) Round(ctx *netsim.Ctx) {
	if a.injected {
		return
	}
	for _, e := range ctx.Outgoing() {
		vote, ok := e.Msg.(VoteMsg)
		if !ok || vote.Iter != 1 || ctx.IsCorrupt(e.From) {
			continue
		}
		if isTarget(a.targets, e.From) {
			continue // keep every target honest so it ingests the forgery
		}
		if ctx.CorruptCount() >= ctx.F() {
			return
		}
		seized, err := ctx.Corrupt(e.From)
		if err != nil {
			continue
		}
		miner, ok := seized.Keys.(fmine.Miner)
		if !ok {
			continue
		}
		flip := vote.B.Flip()
		proof, mined := miner.Mine(VoteTag(vote.Iter, flip))
		if !mined {
			continue
		}
		for _, to := range a.targets {
			if err := ctx.Inject(e.From, to, VoteMsg{Iter: vote.Iter, B: flip, Elig: proof}); err != nil {
				return
			}
		}
		a.flipBit = flip
		a.injected = true
		return
	}
}

func isTarget(targets []types.NodeID, id types.NodeID) bool {
	for _, t := range targets {
		if t == id {
			return true
		}
	}
	return false
}

// TestInternAdversarialDivergenceForksHandles pins the copy-on-divergence
// contract at the protocol level: after a divergent unicast injection the
// targeted nodes' handles fork away from the rest of the network at
// exactly the injected mutation, sharers split by group size, and the
// non-targets keep sharing — while safety holds throughout.
func TestInternAdversarialDivergenceForksHandles(t *testing.T) {
	const n, f, lambda = 120, 36, 40
	targets := []types.NodeID{100, 101, 102, 103, 104}

	runOnce := func(adv netsim.Adversary) ([]*Node, *attest.Interner, *netsim.Result) {
		in := attest.NewInterner()
		cfg := idealConfig(n, f, lambda, 2)
		cfg.Intern = in
		inputs := constInputs(n, types.One)
		nodes, err := NewNodes(cfg, inputs)
		if err != nil {
			t.Fatal(err)
		}
		cores := make([]*Node, n)
		simNodes := make([]netsim.Node, n)
		for i, nd := range nodes {
			cores[i] = nd.(*Node)
			simNodes[i] = nd
		}
		leaveAll(simNodes)
		rt, err := netsim.NewRuntime(netsim.Config{
			N: n, F: f, MaxRounds: cfg.Rounds(),
			Seize: func(id types.NodeID) any { return cfg.Suite.Miner(id) },
		}, simNodes, adv)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		readOwn(t, cores)
		return cores, in, res
	}

	adv := &unicastFlipInjector{targets: targets}
	cores, advIn, res := runOnce(adv)
	if !adv.injected {
		t.Skip("no opposite-bit ticket mined under this seed; divergence not exercised")
	}
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckAgreementValidity(res, constInputs(n, types.One)); err != nil {
		t.Fatal(err)
	}

	flip := adv.flipBit
	honest := map[types.NodeID]bool{}
	for _, id := range res.ForeverHonest() {
		honest[id] = true
	}
	var nonTargets []types.NodeID
	for id := types.NodeID(0); id < n; id++ {
		if honest[id] && !isTarget(targets, id) {
			nonTargets = append(nonTargets, id)
		}
	}
	if len(nonTargets) == 0 {
		t.Fatal("no honest non-targets")
	}

	setOf := func(id types.NodeID) *attest.Set {
		pair := cores[id].st.votes.held(1)
		if pair == nil {
			t.Fatalf("node %d has no iter-1 vote sets", id)
		}
		return &pair[flip]
	}

	tset := setOf(targets[0])
	if tset.Count() == 0 {
		t.Fatalf("target did not ingest the injected vote")
	}
	// Targets forked away from the rest of the network…
	for _, id := range nonTargets {
		if tset.SharesStorageWith(setOf(id)) {
			t.Fatalf("target and honest node %d share the flip-bit handle after divergent injection", id)
		}
	}
	// …and, having identical divergent histories, share with each other.
	for _, id := range targets[1:] {
		if !tset.SharesStorageWith(setOf(id)) {
			t.Fatalf("targets %d and %d diverged from each other; their histories are identical", targets[0], id)
		}
	}
	// Non-targets keep sharing among themselves.
	for _, id := range nonTargets[1:] {
		if !setOf(nonTargets[0]).SharesStorageWith(setOf(id)) {
			t.Fatalf("non-targets %d and %d stopped sharing", nonTargets[0], id)
		}
	}
	// Sharers split exactly by group size: of all n nodes, corrupted ones
	// included, the forked handle is held by the targets alone.
	sharers := 0
	for _, c := range cores {
		if pair := c.st.votes.held(1); pair != nil && tset.SharesStorageWith(&pair[flip]) {
			sharers++
		}
	}
	if sharers != len(targets) {
		t.Fatalf("forked handle shared by %d sets, want %d targets", sharers, len(targets))
	}

	// The clone accounting balances and the table recorded the divergence.
	ast := advIn.Stats()
	if ast.Clones != ast.States {
		t.Fatalf("clones=%d != states=%d", ast.Clones, ast.States)
	}
	if ast.Forks == 0 {
		t.Fatal("no forks recorded despite divergent histories")
	}
}
