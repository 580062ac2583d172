package netsim

import (
	"errors"
	"fmt"
	"testing"

	"ccba/internal/obs"
	"ccba/internal/types"
)

// The tests in this file pin down the scheduled-delivery semantics of the
// network-model layer: worst-case Δ-delay is deterministic per seed,
// honest-to-honest delivery never exceeds Δ, omission applies only to links
// the adversary's power permits, and the DeltaOne model is identical to the
// lockstep fast path.

// traceNode records every delivery with its arrival round and sends a fixed
// script in round 0; it stays alive for `rounds` rounds so delayed messages
// have a live recipient.
type traceNode struct {
	script []Send
	rounds int
	got    []arrival
	halted bool
}

type arrival struct {
	round int
	from  types.NodeID
	tag   uint32
}

func (n *traceNode) Step(round int, delivered []Delivered) []Send {
	for _, d := range delivered {
		n.got = append(n.got, arrival{round: round, from: d.From, tag: d.Msg.(markMsg).Tag})
	}
	if round >= n.rounds {
		n.halted = true
		return nil
	}
	if round == 0 {
		return n.script
	}
	return nil
}

func (n *traceNode) Output() (types.Bit, bool) { return types.Zero, false }
func (n *traceNode) Halted() bool              { return n.halted }

// runTrace executes n trace nodes under a model and adversary for enough
// rounds to flush any legal schedule.
func runTrace(t *testing.T, n int, scripts map[int][]Send, net NetModel, adv Adversary, f int) []*traceNode {
	t.Helper()
	rounds := 2
	if net != nil {
		delta, _, err := net.Validate(n, f)
		if err != nil {
			t.Fatal(err)
		}
		rounds = delta + 1
	}
	nodes := make([]Node, n)
	tn := make([]*traceNode, n)
	for i := range nodes {
		tn[i] = &traceNode{script: scripts[i], rounds: rounds}
		nodes[i] = tn[i]
	}
	rt, err := NewRuntime(Config{N: n, F: f, MaxRounds: rounds + 2, Net: net}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	return tn
}

// Worst-case scheduling holds every non-self link to the bound: recipients
// see the message exactly at round Δ, the sender's own copy next round.
func TestWorstCaseDelaysToBound(t *testing.T) {
	const delta = 3
	tn := runTrace(t, 3, map[int][]Send{
		1: {Multicast(markMsg{Tag: 7})},
	}, Faults{Delta: delta, Spread: SpreadHold}, nil, 1)
	for i, node := range tn {
		if len(node.got) != 1 {
			t.Fatalf("node %d received %d messages, want 1", i, len(node.got))
		}
		want := delta
		if i == 1 {
			want = 1 // self-delivery is local, not a network link
		}
		if node.got[0].round != want {
			t.Errorf("node %d received at round %d, want %d", i, node.got[0].round, want)
		}
	}
}

// hostileModel tries to break the contract: absurd delays on every link and
// drops wherever the runtime lets it.
type hostileModel struct{ delta int }

func (h hostileModel) Validate(int, int) (int, []bool, error) { return h.delta, nil, nil }
func (h hostileModel) Decide(_ int, from, _ types.NodeID) (int, obs.FaultKind) {
	if from%2 == 0 {
		return Drop, obs.FaultDrop
	}
	return 1 << 20, obs.FaultDrop
}

// Honest-to-honest messages must arrive by Δ no matter what the model
// returns: drops degrade to Δ-delay, oversized delays clamp to Δ.
func TestHonestDeliveryNeverExceedsDelta(t *testing.T) {
	const delta = 2
	tn := runTrace(t, 4, map[int][]Send{
		0: {Multicast(markMsg{Tag: 10})},  // model wants to drop (even sender)
		1: {Unicast(3, markMsg{Tag: 11})}, // model wants delay 2^20
	}, hostileModel{delta: delta}, nil, 2)
	for i, node := range tn {
		want := 1 // multicast 10 to everyone
		if i == 3 {
			want = 2 // plus the unicast
		}
		if len(node.got) != want {
			t.Fatalf("node %d received %d messages (%v), want %d: honest links must deliver", i, len(node.got), node.got, want)
		}
		for _, a := range node.got {
			if a.round > delta {
				t.Errorf("node %d received tag %d at round %d, beyond Δ=%d", i, a.tag, a.round, delta)
			}
		}
	}
}

// Jitter schedules are a pure function of the seed: same seed, same
// arrival trace; a different seed must produce a different schedule
// somewhere across a fan of links.
func TestJitterDeterministicPerSeed(t *testing.T) {
	const n, delta = 8, 4
	scripts := map[int][]Send{}
	for i := 0; i < n; i++ {
		scripts[i] = []Send{Multicast(markMsg{Tag: uint32(100 + i)})}
	}
	trace := func(seed [32]byte) []arrival {
		tn := runTrace(t, n, scripts, Faults{Delta: delta, Spread: SpreadJitter, Key: FoldSeed(seed)}, nil, 1)
		var all []arrival
		for _, node := range tn {
			all = append(all, node.got...)
		}
		return all
	}
	var s1, s2 [32]byte
	s1[0], s2[0] = 1, 2
	a, b := trace(s1), trace(s1)
	if len(a) != n*n {
		t.Fatalf("%d arrivals, want %d", len(a), n*n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := trace(s2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical 64-link schedule")
	}
	for _, arr := range a {
		if arr.round < 1 || arr.round > delta {
			t.Fatalf("jitter delivered at round %d outside [1, %d]", arr.round, delta)
		}
	}
}

// Omission drops only links the power contract permits: the declared
// faulty sender loses (all of) its links at rate 1, honest senders lose
// nothing, and the faulty set is reported on the result without shrinking
// the forever-honest set.
func TestOmissionOnlyPermittedLinks(t *testing.T) {
	var seed [32]byte
	seed[3] = 9
	net := Faults{Delta: 1, Key: FoldSeed(seed), Faulty: faultyMask(3, 1), Rate: 1}
	tn := runTrace(t, 3, map[int][]Send{
		0: {Multicast(markMsg{Tag: 20})},
		1: {Multicast(markMsg{Tag: 21})},
		2: {Unicast(0, markMsg{Tag: 22})},
	}, net, nil, 1)
	for i, node := range tn {
		for _, a := range node.got {
			if a.from == 1 && i != 1 {
				t.Errorf("node %d received tag %d from the omission-faulty sender", i, a.tag)
			}
		}
	}
	// Faulty node 1 still hears everyone else (receive side is unaffected)
	// and its own local copy.
	if got := len(tn[1].got); got != 2 {
		t.Errorf("faulty node received %d messages %v, want its own copy and node 0's", got, tn[1].got)
	}
	// Honest links all delivered.
	if got := len(tn[0].got); got != 2 { // 20 (self) + 22
		t.Errorf("node 0 received %d messages %v", got, tn[0].got)
	}
}

// The omission fault set spends the corruption budget and must name real
// nodes.
func TestOmissionBudgetEnforced(t *testing.T) {
	mk := func(n int) []Node {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &traceNode{rounds: 1}
		}
		return nodes
	}
	var seed [32]byte
	_, err := NewRuntime(Config{N: 4, F: 1, Net: Faults{Delta: 1, Key: FoldSeed(seed), Faulty: faultyMask(4, 0, 2), Rate: 0.5}}, mk(4), nil)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("2 faults on budget f=1 gave %v, want ErrBudget", err)
	}
	_, err = NewRuntime(Config{N: 4, F: 3, Net: Faults{Delta: 1, Key: FoldSeed(seed), Faulty: faultyMask(8, 7), Rate: 0.5}}, mk(4), nil)
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("out-of-range fault gave %v, want ErrUnknownNode", err)
	}
	_, err = NewRuntime(Config{N: 4, F: 1, Net: Faults{Spread: SpreadHold}}, mk(4), nil)
	if err == nil {
		t.Fatal("Δ=0 model accepted")
	}
}

// budgetProbe corrupts nodes (in the given order, default 0..n−1) until the
// runtime refuses, recording how far it got.
type budgetProbe struct {
	Passive
	order     []types.NodeID
	corrupted int
	lastErr   error
}

func (a *budgetProbe) Power() Power { return PowerWeaklyAdaptive }
func (a *budgetProbe) Round(ctx *Ctx) {
	if ctx.Round() != 0 {
		return
	}
	order := a.order
	if order == nil {
		for i := 0; i < ctx.N(); i++ {
			order = append(order, types.NodeID(i))
		}
	}
	for _, id := range order {
		if _, err := ctx.Corrupt(id); err != nil {
			a.lastErr = err
			return
		}
		a.corrupted++
	}
}

// Omission faults and adaptive corruptions share one budget: with F=3 and
// two declared faulty senders, the adversary gets exactly one corruption
// before ErrBudget — unless it corrupts a faulty node, which converts the
// fault slot instead of spending a new one.
func TestOmissionFaultsShareCorruptionBudget(t *testing.T) {
	var seed [32]byte
	run := func(adv *budgetProbe) {
		nodes := make([]Node, 6)
		for i := range nodes {
			nodes[i] = &traceNode{rounds: 2}
		}
		rt, err := NewRuntime(Config{
			N: 6, F: 3, MaxRounds: 4,
			Net: Faults{Delta: 1, Key: FoldSeed(seed), Faulty: faultyMask(6, 4, 5), Rate: 0.5},
		}, nodes, adv)
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
	}
	adv := &budgetProbe{}
	run(adv)
	// Nodes 0..: one corruption fits (2 faults + 1 corrupt = F), the second
	// must fail with the budget error.
	if adv.corrupted != 1 {
		t.Fatalf("corrupted %d honest nodes on f=3 with 2 omission faults, want 1 (err %v)", adv.corrupted, adv.lastErr)
	}
	if !errors.Is(adv.lastErr, ErrBudget) {
		t.Fatalf("second corruption failed with %v, want ErrBudget", adv.lastErr)
	}
	// Corrupting a faulty node converts its fault slot instead of spending a
	// new one: order 4, 5 (both faulty), then honest 0 — all three fit in
	// F=3; a fourth corruption must not.
	conv := &budgetProbe{order: []types.NodeID{4, 5, 0, 1}}
	run(conv)
	if conv.corrupted != 3 {
		t.Fatalf("fault-slot conversion: corrupted %d, want 3 (err %v)", conv.corrupted, conv.lastErr)
	}
	if !errors.Is(conv.lastErr, ErrBudget) {
		t.Fatalf("fourth corruption failed with %v, want ErrBudget", conv.lastErr)
	}
}

// schedDeltaOne forces the general scheduled path while behaving exactly
// like the lockstep model, so the two delivery engines can be compared.
type schedDeltaOne struct{}

func (schedDeltaOne) Validate(int, int) (int, []bool, error) { return 1, nil, nil }
func (schedDeltaOne) Decide(int, types.NodeID, types.NodeID) (int, obs.FaultKind) {
	return 1, obs.FaultDrop
}

// The scheduled path at Δ=1 must reproduce the lockstep fast path exactly:
// same messages, same order, same rounds, same metrics — the guarantee
// behind DeltaOne's bit-identical goldens.
func TestScheduledPathMatchesLockstepAtDeltaOne(t *testing.T) {
	scripts := map[int][]Send{
		0: {
			Unicast(1, markMsg{Tag: 1}),
			Multicast(markMsg{Tag: 2}),
			Unicast(1, markMsg{Tag: 3}),
		},
		2: {Multicast(markMsg{Tag: 4}), Unicast(0, markMsg{Tag: 5})},
	}
	run := func(net NetModel) ([][]arrival, Metrics) {
		nodes := make([]Node, 3)
		tn := make([]*traceNode, 3)
		for i := range nodes {
			tn[i] = &traceNode{script: scripts[i], rounds: 2}
			nodes[i] = tn[i]
		}
		rt, err := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5, Net: net}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		out := make([][]arrival, 3)
		for i, node := range tn {
			out[i] = node.got
		}
		return out, res.Metrics
	}
	lockstep, lm := run(nil) // nil defaults to DeltaOne, the fast path
	sched, sm := run(schedDeltaOne{})
	if lm != sm {
		t.Fatalf("metrics diverge: %+v vs %+v", lm, sm)
	}
	for i := range lockstep {
		if fmt.Sprint(lockstep[i]) != fmt.Sprint(sched[i]) {
			t.Fatalf("node %d inbox diverges:\nlockstep: %v\nscheduled: %v", i, lockstep[i], sched[i])
		}
	}
}

// Partition holds cross-cut links to Δ while it lasts and heals afterwards;
// same-side links are never touched.
func TestPartitionSchedulesCrossCutLinks(t *testing.T) {
	const delta = 3
	net := Faults{Delta: delta, Cut: 2, CutUntil: 1} // groups {0,1} | {2,3}, partitioned during round 0 only
	// Round-0 sends: cross-cut ones land at Δ, same-side at 1.
	tn := runTrace(t, 4, map[int][]Send{
		0: {Multicast(markMsg{Tag: 30})},
	}, net, nil, 1)
	wantRounds := []int{1, 1, delta, delta}
	for i, node := range tn {
		if len(node.got) != 1 {
			t.Fatalf("node %d received %d messages", i, len(node.got))
		}
		if node.got[0].round != wantRounds[i] {
			t.Errorf("node %d received at round %d, want %d", i, node.got[0].round, wantRounds[i])
		}
	}
}

// A message sent by a node the adversary corrupts in the same round may be
// dropped by the model only under strongly adaptive power — the
// after-the-fact-removal boundary, enforced against the network layer too.
type dropAllModel struct{ delta int }

func (d dropAllModel) Validate(int, int) (int, []bool, error) { return d.delta, nil, nil }
func (dropAllModel) Decide(int, types.NodeID, types.NodeID) (int, obs.FaultKind) {
	return Drop, obs.FaultDrop
}

type corruptingAdversary struct {
	Passive
	power Power
}

func (a *corruptingAdversary) Power() Power { return a.power }
func (a *corruptingAdversary) Round(ctx *Ctx) {
	if ctx.Round() == 0 {
		_, _ = ctx.Corrupt(0)
	}
}

func TestDropAfterCorruptionNeedsStrongPower(t *testing.T) {
	for _, tc := range []struct {
		power Power
		want  int // messages node 2 receives from node 0
	}{
		{PowerWeaklyAdaptive, 1},   // drop vetoed: delivery held to Δ instead
		{PowerStronglyAdaptive, 0}, // after-the-fact removal via the network
	} {
		adv := &corruptingAdversary{power: tc.power}
		tn := runTrace(t, 3, map[int][]Send{
			0: {Multicast(markMsg{Tag: 40})},
		}, dropAllModel{delta: 2}, adv, 1)
		got := 0
		for _, a := range tn[2].got {
			if a.from == 0 {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("power %s: node 2 received %d messages from corrupted sender, want %d", tc.power, got, tc.want)
		}
	}
}
