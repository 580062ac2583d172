package core

import (
	"runtime"
	"testing"
	"unsafe"

	"ccba/internal/attest"
	"ccba/internal/crypto/pki"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

func idealConfig(n, f, lambda int, seedByte byte) Config {
	var seed [32]byte
	seed[0] = seedByte
	return Config{
		N: n, F: f, Lambda: lambda, MaxIters: 40,
		Suite: fmine.NewIdeal(seed, Probabilities(n, lambda)),
	}
}

func realConfig(n, f, lambda int, seedByte byte) Config {
	var seed [32]byte
	seed[0] = seedByte
	pub, secrets := pki.Setup(n, seed)
	return Config{
		N: n, F: f, Lambda: lambda, MaxIters: 40,
		Suite: fmine.NewReal(pub, secrets, Probabilities(n, lambda)),
	}
}

func run(t *testing.T, cfg Config, inputs []types.Bit, adv netsim.Adversary) *netsim.Result {
	t.Helper()
	nodes, err := NewNodes(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: cfg.N, F: cfg.F, MaxRounds: cfg.Rounds(),
		Seize: func(id types.NodeID) any { return cfg.Suite.Miner(id) },
	}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Run()
}

// soloNode builds node id of a run of cfg on its own state, as a node that
// left its class holds it, for tests that ingest into a node by hand.
func soloNode(t *testing.T, cfg Config, id types.NodeID, input types.Bit) *Node {
	t.Helper()
	run, err := NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := run.Node(id, input)
	if err != nil {
		t.Fatal(err)
	}
	if n.class != nil {
		n.leave()
	}
	return n
}

func constInputs(n int, b types.Bit) []types.Bit {
	in := make([]types.Bit, n)
	for i := range in {
		in[i] = b
	}
	return in
}

func mixedInputs(n int) []types.Bit {
	in := make([]types.Bit, n)
	for i := range in {
		in[i] = types.BitFromBool(i%2 == 0)
	}
	return in
}

func checkAll(t *testing.T, res *netsim.Result, inputs []types.Bit) {
	t.Helper()
	if err := netsim.CheckTermination(res); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckAgreementValidity(res, inputs); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseOfLayout(t *testing.T) {
	cases := []struct {
		round int
		iter  uint32
		phase Phase
	}{
		{0, 1, PhaseVote}, {1, 1, PhaseCommit},
		{2, 2, PhaseStatus}, {3, 2, PhasePropose}, {4, 2, PhaseVote}, {5, 2, PhaseCommit},
		{6, 3, PhaseStatus},
	}
	for _, tc := range cases {
		iter, ph := PhaseOf(tc.round)
		if iter != tc.iter || ph != tc.phase {
			t.Errorf("PhaseOf(%d) = (%d,%d) want (%d,%d)", tc.round, iter, ph, tc.iter, tc.phase)
		}
	}
}

func TestUnanimousValidityIdeal(t *testing.T) {
	for _, b := range []types.Bit{types.Zero, types.One} {
		cfg := idealConfig(100, 30, 30, 1)
		inputs := constInputs(100, b)
		res := run(t, cfg, inputs, nil)
		checkAll(t, res, inputs)
		for _, id := range res.ForeverHonest() {
			if res.Outputs[id] != b {
				t.Fatalf("input %v output %v", b, res.Outputs[id])
			}
		}
	}
}

func TestUnanimousValidityRealCrypto(t *testing.T) {
	cfg := realConfig(60, 18, 24, 2)
	inputs := constInputs(60, types.One)
	res := run(t, cfg, inputs, nil)
	checkAll(t, res, inputs)
}

func TestMixedInputsAgreeManySeeds(t *testing.T) {
	for s := byte(0); s < 6; s++ {
		cfg := idealConfig(100, 30, 30, 10+s)
		inputs := mixedInputs(100)
		res := run(t, cfg, inputs, nil)
		checkAll(t, res, inputs)
	}
}

type silent struct {
	netsim.Passive
	f int
}

func (a *silent) Setup(ctx *netsim.Ctx) {
	for i := 0; i < a.f; i++ {
		if _, err := ctx.Corrupt(types.NodeID(i)); err != nil {
			panic(err)
		}
	}
}

func TestToleratesSilentCorruptions(t *testing.T) {
	cfg := idealConfig(100, 30, 40, 3)
	inputs := mixedInputs(100)
	res := run(t, cfg, inputs, &silent{f: 30})
	checkAll(t, res, inputs)
}

// voteFlipper is the adaptive attack the paper's key insight defeats: it
// watches honest Vote multicasts, corrupts each b-voter (budget permitting),
// and tries to make the now-corrupt node also vote for 1−b in the same
// round. With bit-specific eligibility the corrupted node is almost never
// eligible for the opposite bit, so the attack buys nothing.
type voteFlipper struct {
	injected int
	corrupts int
}

func (a *voteFlipper) Power() netsim.Power { return netsim.PowerWeaklyAdaptive }
func (a *voteFlipper) Setup(*netsim.Ctx)   {}

func (a *voteFlipper) Round(ctx *netsim.Ctx) {
	for _, e := range ctx.Outgoing() {
		vote, ok := e.Msg.(VoteMsg)
		if !ok || ctx.IsCorrupt(e.From) {
			continue
		}
		if ctx.CorruptCount() >= ctx.F() {
			return
		}
		seized, err := ctx.Corrupt(e.From)
		if err != nil {
			continue
		}
		a.corrupts++
		miner, ok := seized.Keys.(fmine.Miner)
		if !ok {
			continue
		}
		flip := vote.B.Flip()
		if proof, mined := miner.Mine(VoteTag(vote.Iter, flip)); mined {
			forged := VoteMsg{Iter: vote.Iter, B: flip, Elig: proof,
				Leader: vote.Leader, LeaderElig: vote.LeaderElig}
			if err := ctx.Inject(e.From, types.Broadcast, forged); err == nil {
				a.injected++
			}
		}
	}
}

func TestSurvivesAdaptiveVoteFlipper(t *testing.T) {
	violations := 0
	for s := byte(0); s < 5; s++ {
		cfg := idealConfig(100, 30, 30, 30+s)
		inputs := mixedInputs(100)
		adv := &voteFlipper{}
		res := run(t, cfg, inputs, adv)
		if err := netsim.CheckConsistency(res); err != nil {
			violations++
		}
		if err := netsim.CheckTermination(res); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if adv.corrupts == 0 {
			t.Fatal("attack never corrupted anyone; test is vacuous")
		}
	}
	if violations != 0 {
		t.Fatalf("%d consistency violations under adaptive vote flipper", violations)
	}
}

func TestSubquadraticMulticastComplexity(t *testing.T) {
	// The headline property (Theorem 2): the number of honest multicasts is
	// governed by λ, not n. Quadrupling n must not materially change it.
	countFor := func(n int) netsim.Count {
		cfg := idealConfig(n, n/4, 30, 7)
		inputs := constInputs(n, types.One)
		res := run(t, cfg, inputs, nil)
		checkAll(t, res, inputs)
		return res.Metrics.HonestMulticasts
	}
	small, large := countFor(100), countFor(400)
	if large > 4*small {
		t.Fatalf("multicasts grew with n: n=100→%d, n=400→%d", small, large)
	}
}

func TestExpectedConstantRounds(t *testing.T) {
	total := 0
	const trials = 10
	for s := byte(0); s < trials; s++ {
		cfg := idealConfig(100, 25, 30, 50+s)
		inputs := mixedInputs(100)
		res := run(t, cfg, inputs, nil)
		checkAll(t, res, inputs)
		total += res.Rounds
	}
	mean := float64(total) / trials
	// Expected ~2 iterations ≈ 8–10 rounds; allow generous slack.
	if mean > 30 {
		t.Fatalf("mean rounds %.1f not constant-like", mean)
	}
}

func TestThreshold(t *testing.T) {
	cfg := idealConfig(100, 30, 31, 1)
	if cfg.Threshold() != 16 {
		t.Fatalf("Threshold() = %d, want ⌈31/2⌉ = 16", cfg.Threshold())
	}
	cfg.Lambda = 30
	if cfg.Threshold() != 15 {
		t.Fatalf("Threshold() = %d, want 15", cfg.Threshold())
	}
}

func TestConfigValidation(t *testing.T) {
	suite := fmine.NewIdeal([32]byte{}, Probabilities(10, 4))
	bad := []Config{
		{N: 10, F: 5, Lambda: 4, MaxIters: 5, Suite: suite},  // f ≥ n/2
		{N: 10, F: 2, Lambda: 0, MaxIters: 5, Suite: suite},  // λ = 0
		{N: 10, F: 2, Lambda: 4, MaxIters: 0, Suite: suite},  // no iterations
		{N: 10, F: 2, Lambda: 4, MaxIters: 5},                // no suite
		{N: 0, F: 0, Lambda: 4, MaxIters: 5, Suite: suite},   // no nodes
		{N: 10, F: -1, Lambda: 4, MaxIters: 5, Suite: suite}, // negative f
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{N: 10, F: 2, Lambda: 4, MaxIters: 5, Suite: suite}
	run, err := NewRun(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Node(0, types.NoBit); err == nil {
		t.Error("invalid input accepted")
	}
	if _, err := NewNodes(good, make([]types.Bit, 3)); err == nil {
		t.Error("input count mismatch accepted")
	}
	if _, err := NewNodes(bad[0], make([]types.Bit, bad[0].N)); err == nil {
		t.Error("NewNodes accepted a bad config")
	}
}

// TestNodeSize pins what a node costs, because at n = 10⁶ the nodes are
// most of a run's memory: every node of a NewNodes run points at one shared
// config, verifier and directory of own states, mines through the run's
// suite, and on a 64-bit platform fits 64 bytes of the run's node slab. Its
// own state is not part of it: the nodes of a passive run stay in their
// class to the end and the run allocates no chunk of own states, while a
// node handed a private inbox leaves its class onto its slot of its chunk
// (TestLeaveAllocatesOneChunk). A private Config copy, a per-node
// verifier or miner, an inline own state, or a set kept only to hold the
// hit block each breaks the pin.
func TestNodeSize(t *testing.T) {
	const n, f, lambda = 20, 4, 10
	run := func(private bool) []netsim.Node {
		cfg := idealConfig(n, f, lambda, 1)
		cfg.Lockstep, cfg.Intern = true, attest.NewInterner()
		nodes, err := NewNodes(cfg, mixedInputs(n))
		if err != nil {
			t.Fatal(err)
		}
		if private {
			leaveAll(nodes)
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds()}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, rt.Run(), mixedInputs(n))
		return nodes
	}

	passive := run(false)
	if passive[0].(*Node).cfg != passive[n-1].(*Node).cfg {
		t.Error("the nodes of one run hold distinct config values")
	}
	for i, nd := range passive {
		if nd.(*Node).class == nil {
			t.Fatalf("node %d of a passive run left its class", i)
		}
	}
	for i, c := range passive[0].(*Node).cfg.own {
		if c != nil {
			t.Errorf("a passive run allocated chunk %d of the own states", i)
		}
	}
	for i, nd := range run(true) {
		if !onOwn(nd.(*Node)) {
			t.Fatalf("node %d left its class but is not on its slot of the own states", i)
		}
	}

	if unsafe.Sizeof(uintptr(0)) == 4 {
		t.Skip("the size pin is for 64-bit layouts")
	}
	if got := unsafe.Sizeof(Node{}); got > 64 {
		t.Errorf("core.Node is %d bytes, want at most 64", got)
	}
}

// TestLeaveAllocatesOneChunk: the first node of an n = 10⁴ run to leave its
// class allocates one chunk of own states, not a state for every node, so
// a run in which a handful of nodes leave (one dropped link at n = 10⁶)
// costs a handful of chunks.
func TestLeaveAllocatesOneChunk(t *testing.T) {
	const n = 10_000
	cfg := idealConfig(n, 3000, 40, 1)
	cfg.Intern = attest.NewInterner()
	r, err := NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := r.Node(n/2, types.One)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nd.leave()
	runtime.ReadMemStats(&after)
	if !onOwn(nd) {
		t.Fatal("the node left its class but is not on its own state")
	}
	chunk := ownChunkLen * unsafe.Sizeof(state{})
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(chunk)+1024 {
		t.Errorf("leaving allocated %d bytes, want one chunk of own states (%d bytes), not %d states of %d bytes",
			got, chunk, n, unsafe.Sizeof(state{}))
	}
	// The last chunk holds only the ids past the last full one.
	last, err := r.Node(n-1, types.One)
	if err != nil {
		t.Fatal(err)
	}
	last.leave()
	if got := len(r.own[len(r.own)-1]); got != n%ownChunkLen {
		t.Errorf("the last chunk holds %d states, want the %d ids left over", got, n%ownChunkLen)
	}
}

func TestForgedTerminateRejected(t *testing.T) {
	cfg := idealConfig(50, 10, 20, 9)
	n := soloNode(t, cfg, 0, types.Zero)
	// Terminate with garbage commit attestations must be ignored.
	forged := TerminateMsg{Iter: 1, B: types.One, Commits: []attest.Attestation{
		{ID: 1, Proof: make([]byte, fmine.IdealProofSize)},
		{ID: 2, Proof: make([]byte, fmine.IdealProofSize)},
	}}
	n.ingest([]netsim.Delivered{{From: 3, Msg: forged}})
	if n.st.terminate != nil {
		t.Fatal("forged terminate accepted")
	}
}

func TestUnjustifiedVoteIgnoredAfterIterOne(t *testing.T) {
	cfg := idealConfig(50, 10, 50, 11) // λ=n: everyone always eligible
	node := soloNode(t, cfg, 0, types.Zero)
	// A vote for iteration 2 with a valid voter ticket but no leader
	// justification must not be counted.
	voter := cfg.Suite.Miner(5)
	proof, ok := voter.Mine(VoteTag(2, types.One))
	if !ok {
		t.Fatal("λ=n miner must always succeed")
	}
	node.ingest([]netsim.Delivered{{From: 5, Msg: VoteMsg{Iter: 2, B: types.One, Elig: proof}}})
	if node.voteSet(2)[types.One].Count() != 0 {
		t.Fatal("unjustified iteration-2 vote counted")
	}
	// The same vote in iteration 1 counts (inputs need no justification).
	proof1, _ := voter.Mine(VoteTag(1, types.One))
	node.ingest([]netsim.Delivered{{From: 5, Msg: VoteMsg{Iter: 1, B: types.One, Elig: proof1}}})
	if node.voteSet(1)[types.One].Count() != 1 {
		t.Fatal("iteration-1 vote not counted")
	}
}

func TestWrongBitTicketRejected(t *testing.T) {
	cfg := idealConfig(50, 10, 50, 12)
	node := soloNode(t, cfg, 0, types.Zero)
	// Ticket mined for bit 0 presented with a vote for bit 1: must fail.
	voter := cfg.Suite.Miner(7)
	proof, ok := voter.Mine(VoteTag(1, types.Zero))
	if !ok {
		t.Fatal("mining failed at λ=n")
	}
	node.ingest([]netsim.Delivered{{From: 7, Msg: VoteMsg{Iter: 1, B: types.One, Elig: proof}}})
	if node.voteSet(1)[types.One].Count() != 0 {
		t.Fatal("bit-0 ticket accepted for a bit-1 vote — vote-specific eligibility broken")
	}
}

func TestMessageCodecRoundTrips(t *testing.T) {
	cert := attest.Certificate{Iter: 3, Bit: types.Zero, Atts: []attest.Attestation{{ID: 1, Proof: []byte{5}}}}
	msgs := []interface {
		Kind() wire.Kind
		Encode([]byte) []byte
	}{
		StatusMsg{Iter: 3, B: types.Zero, Cert: cert, Elig: []byte{1}},
		ProposeMsg{Iter: 3, B: types.One, Cert: cert, Elig: []byte{2}},
		VoteMsg{Iter: 3, B: types.Zero, Elig: []byte{3}, Leader: 9, LeaderElig: []byte{4}},
		CommitMsg{Iter: 3, B: types.One, Cert: cert, Elig: []byte{5}},
		TerminateMsg{Iter: 3, B: types.Zero, Commits: cert.Atts, Elig: []byte{6}},
	}
	for _, m := range msgs {
		buf := append([]byte{byte(m.Kind())}, m.Encode(nil)...)
		dec, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode kind %d: %v", m.Kind(), err)
		}
		re := append([]byte{byte(dec.Kind())}, dec.Encode(nil)...)
		if string(re) != string(buf) {
			t.Fatalf("kind %d did not round-trip", m.Kind())
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer decoded")
	}
	if _, err := Decode([]byte{88}); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestIdealAndRealAgreeOnOutcome(t *testing.T) {
	// Both crypto modes must satisfy the same properties on the same
	// workload (they use different randomness, so outputs may differ; the
	// *properties* must hold in both).
	inputs := mixedInputs(60)
	for name, cfg := range map[string]Config{
		"ideal": idealConfig(60, 15, 24, 21),
		"real":  realConfig(60, 15, 24, 21),
	} {
		res := run(t, cfg, inputs, nil)
		if err := netsim.CheckTermination(res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := netsim.CheckConsistency(res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
