package netsim

import (
	"errors"
	"testing"

	"ccba/internal/testenv"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// pingMsg is a trivial test message.
type pingMsg struct {
	Round uint32
	Val   types.Bit
}

func (m pingMsg) Kind() wire.Kind { return 1 }
func (m pingMsg) Size() int       { return 5 }
func (m pingMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U32(m.Round)
	w.Bit(m.Val)
	return w.Buf
}

// echoNode multicasts its input bit every round and decides the majority of
// round-0 messages after `rounds` rounds.
type echoNode struct {
	id      types.NodeID
	input   types.Bit
	rounds  int
	tallies [2]int
	decided bool
	out     types.Bit
	halted  bool
}

func (n *echoNode) Step(round int, delivered []Delivered) []Send {
	for _, d := range delivered {
		if m, ok := d.Msg.(pingMsg); ok && m.Val.Valid() {
			n.tallies[m.Val]++
		}
	}
	if round >= n.rounds {
		n.out = types.BitFromBool(n.tallies[1] >= n.tallies[0])
		n.decided = true
		n.halted = true
		return nil
	}
	return []Send{Multicast(pingMsg{Round: uint32(round), Val: n.input})}
}

func (n *echoNode) Output() (types.Bit, bool) { return n.out, n.decided }
func (n *echoNode) Halted() bool              { return n.halted }

func echoNodes(n, rounds int, input func(i int) types.Bit) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &echoNode{id: types.NodeID(i), input: input(i), rounds: rounds}
	}
	return nodes
}

func allZero(int) types.Bit { return types.Zero }

func TestRunPassive(t *testing.T) {
	nodes := echoNodes(5, 2, allZero)
	rt, err := NewRuntime(Config{N: 5, F: 1, MaxRounds: 10}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	for i := 0; i < 5; i++ {
		if !res.Decided[i] || res.Outputs[i] != types.Zero {
			t.Fatalf("node %d: decided=%v out=%v", i, res.Decided[i], res.Outputs[i])
		}
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if err := CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
	if err := CheckTermination(res); err != nil {
		t.Fatal(err)
	}
}

// NewRuntime steps nodes on min(GOMAXPROCS, n) workers; outputs and metrics
// must not depend on how many that is.
func TestParallelMatchesSequential(t *testing.T) {
	input := func(i int) types.Bit { return types.BitFromBool(i%3 == 0) }
	run := func(procs int) *Result {
		testenv.SetGOMAXPROCS(t, procs)
		nodes := echoNodes(9, 3, input)
		rt, err := NewRuntime(Config{N: 9, F: 0, MaxRounds: 20}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rt.shards) != procs {
			t.Fatalf("GOMAXPROCS=%d: %d shards", procs, len(rt.shards))
		}
		return rt.Run()
	}
	seq := run(1)
	for _, procs := range testenv.Procs[1:] {
		par := run(procs)
		for i := range seq.Outputs {
			if seq.Outputs[i] != par.Outputs[i] {
				t.Fatalf("node %d: sequential %v vs GOMAXPROCS=%d %v", i, seq.Outputs[i], procs, par.Outputs[i])
			}
		}
		if seq.Metrics != par.Metrics {
			t.Fatalf("GOMAXPROCS=%d: metrics differ: %+v vs %+v", procs, seq.Metrics, par.Metrics)
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	const n, rounds = 4, 2
	nodes := echoNodes(n, rounds, allZero)
	rt, err := NewRuntime(Config{N: n, F: 0, MaxRounds: 10}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	// Each node multicasts once in rounds 0 and 1 → 8 multicasts.
	wantMulticasts := Count(n * rounds)
	if res.Metrics.HonestMulticasts != wantMulticasts {
		t.Fatalf("multicasts = %d, want %d", res.Metrics.HonestMulticasts, wantMulticasts)
	}
	if res.Metrics.HonestMessages != wantMulticasts*n {
		t.Fatalf("classical messages = %d, want %d", res.Metrics.HonestMessages, wantMulticasts*n)
	}
	msgSize := Count(wire.Size(pingMsg{}))
	if res.Metrics.HonestMulticastBytes != wantMulticasts*msgSize {
		t.Fatalf("multicast bytes = %d, want %d", res.Metrics.HonestMulticastBytes, wantMulticasts*msgSize)
	}
}

// corruptOnce is an adversary that corrupts a fixed node during setup.
type corruptOnce struct {
	Passive
	target types.NodeID
	seized *Seized
	err    error
}

func (a *corruptOnce) Setup(ctx *Ctx) {
	s, err := ctx.Corrupt(a.target)
	a.seized, a.err = &s, err
}

func TestStaticCorruption(t *testing.T) {
	nodes := echoNodes(4, 2, allZero)
	adv := &corruptOnce{target: 2}
	rt, err := NewRuntime(Config{
		N: 4, F: 1, MaxRounds: 10,
		Seize: func(id types.NodeID) any { return "keys-" + id.String() },
	}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	if adv.err != nil {
		t.Fatalf("setup corruption failed: %v", adv.err)
	}
	if adv.seized.Keys != "keys-2" {
		t.Fatalf("seized keys = %v", adv.seized.Keys)
	}
	if !res.Corrupt[2] || res.Corrupt[0] {
		t.Fatal("corruption status wrong")
	}
	fh := res.ForeverHonest()
	if len(fh) != 3 {
		t.Fatalf("forever-honest = %v", fh)
	}
	// Corrupt node sent nothing: 3 honest × 2 rounds of multicasts.
	if res.Metrics.HonestMulticasts != 6 {
		t.Fatalf("multicasts = %d, want 6", res.Metrics.HonestMulticasts)
	}
}

type budgetBuster struct {
	Passive
	errs []error
}

func (a *budgetBuster) Setup(ctx *Ctx) {
	for i := 0; i < 3; i++ {
		_, err := ctx.Corrupt(types.NodeID(i))
		a.errs = append(a.errs, err)
	}
}

func TestCorruptionBudgetEnforced(t *testing.T) {
	nodes := echoNodes(4, 1, allZero)
	adv := &budgetBuster{}
	rt, err := NewRuntime(Config{N: 4, F: 2, MaxRounds: 5}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if adv.errs[0] != nil || adv.errs[1] != nil {
		t.Fatalf("first two corruptions should succeed: %v %v", adv.errs[0], adv.errs[1])
	}
	if !errors.Is(adv.errs[2], ErrBudget) {
		t.Fatalf("third corruption should exhaust budget, got %v", adv.errs[2])
	}
}

// lateStatic tries to corrupt mid-protocol with static power.
type lateStatic struct {
	Passive
	err error
	ran bool
}

func (a *lateStatic) Round(ctx *Ctx) {
	if !a.ran {
		_, a.err = ctx.Corrupt(0)
		a.ran = true
	}
}

func TestStaticCannotCorruptAdaptively(t *testing.T) {
	nodes := echoNodes(3, 1, allZero)
	adv := &lateStatic{}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	rt.Run()
	if !errors.Is(adv.err, ErrPower) {
		t.Fatalf("static adaptive corruption must fail with ErrPower, got %v", adv.err)
	}
}

// remover corrupts the sender of the first observed envelope and tries to
// remove it.
type remover struct {
	power  Power
	err    error
	tried  bool
	target types.NodeID
}

func (a *remover) Power() Power { return a.power }
func (a *remover) Setup(*Ctx)   {}
func (a *remover) Round(ctx *Ctx) {
	if a.tried {
		return
	}
	for _, e := range ctx.Outgoing() {
		if e.From == a.target {
			a.tried = true
			if _, err := ctx.Corrupt(e.From); err != nil {
				a.err = err
				return
			}
			a.err = ctx.Remove(e)
			return
		}
	}
}

func TestAfterTheFactRemovalRequiresStrongPower(t *testing.T) {
	// This is the model boundary the paper's Theorem 1 turns on: a weakly
	// adaptive adversary may corrupt a node after it speaks but must not be
	// able to erase what it already sent.
	nodes := echoNodes(3, 1, allZero)
	adv := &remover{power: PowerWeaklyAdaptive, target: 1}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	rt.Run()
	if !errors.Is(adv.err, ErrPower) {
		t.Fatalf("weakly adaptive removal must fail with ErrPower, got %v", adv.err)
	}
}

func TestStronglyAdaptiveCanRemove(t *testing.T) {
	nodes := echoNodes(3, 1, allZero)
	adv := &remover{power: PowerStronglyAdaptive, target: 1}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	rt.Run()
	if adv.err != nil {
		t.Fatalf("strongly adaptive removal should succeed: %v", adv.err)
	}
}

func TestRemoveRequiresCorruptSender(t *testing.T) {
	nodes := echoNodes(3, 1, allZero)
	var removeErr error
	adv := &funcAdversary{
		power: PowerStronglyAdaptive,
		round: func(ctx *Ctx) {
			if removeErr == nil && len(ctx.Outgoing()) > 0 {
				removeErr = ctx.Remove(ctx.Outgoing()[0])
			}
		},
	}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	rt.Run()
	if !errors.Is(removeErr, ErrNotCorrupt) {
		t.Fatalf("removing an honest node's message must fail, got %v", removeErr)
	}
}

// funcAdversary adapts closures to the Adversary interface for tests.
type funcAdversary struct {
	power Power
	setup func(*Ctx)
	round func(*Ctx)
}

func (a *funcAdversary) Power() Power { return a.power }
func (a *funcAdversary) Setup(ctx *Ctx) {
	if a.setup != nil {
		a.setup(ctx)
	}
}
func (a *funcAdversary) Round(ctx *Ctx) {
	if a.round != nil {
		a.round(ctx)
	}
}

func TestRemovalSuppressesDelivery(t *testing.T) {
	// Remove node 1's round-0 multicast: node 1's input disappears from the
	// tallies of every other node.
	input := func(i int) types.Bit { return types.BitFromBool(i == 1) }
	// Without attack: tallies are 1 one vs 2 zeros → majority 0 anyway; make
	// it decisive: 3 nodes where node 1 votes 1, others 0, threshold >= means
	// removal changes nothing. Use a 2-node instance where node 1's vote for
	// 1 would tie and win (tallies[1] >= tallies[0]).
	nodes := echoNodes(2, 1, input)
	adv := &remover{power: PowerStronglyAdaptive, target: 1}
	rt, _ := NewRuntime(Config{N: 2, F: 1, MaxRounds: 5}, nodes, adv)
	res := rt.Run()
	// Node 0 is forever-honest; with node 1's vote erased it sees only its
	// own 0 and outputs 0. Without removal it would see {0,1} and output 1.
	if res.Outputs[0] != types.Zero {
		t.Fatalf("node 0 output %v; removal did not suppress delivery", res.Outputs[0])
	}
}

func TestInjection(t *testing.T) {
	// Corrupt node 2 at setup, then inject a flood of 1-votes on its behalf.
	nodes := echoNodes(3, 1, allZero)
	adv := &funcAdversary{
		power: PowerWeaklyAdaptive,
		setup: func(ctx *Ctx) {
			if _, err := ctx.Corrupt(2); err != nil {
				t.Errorf("corrupt: %v", err)
			}
		},
		round: func(ctx *Ctx) {
			if ctx.Round() == 0 {
				for i := 0; i < 5; i++ {
					if err := ctx.Inject(2, types.Broadcast, pingMsg{Val: types.One}); err != nil {
						t.Errorf("inject: %v", err)
					}
				}
			}
		},
	}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	res := rt.Run()
	// Honest nodes see 2 zeros and 5 ones → output 1. (This echo toy has no
	// dedup; real protocols count distinct senders.)
	if res.Outputs[0] != types.One || res.Outputs[1] != types.One {
		t.Fatalf("injection had no effect: outputs %v %v", res.Outputs[0], res.Outputs[1])
	}
	// Injected messages are corrupt sends and must not count as honest
	// communication: 2 honest nodes × 1 round.
	if res.Metrics.HonestMulticasts != 2 {
		t.Fatalf("honest multicasts = %d, want 2", res.Metrics.HonestMulticasts)
	}
}

func TestInjectFromHonestRejected(t *testing.T) {
	nodes := echoNodes(3, 1, allZero)
	var injErr error
	adv := &funcAdversary{
		power: PowerWeaklyAdaptive,
		round: func(ctx *Ctx) {
			if injErr == nil {
				injErr = ctx.Inject(0, types.Broadcast, pingMsg{})
			}
		},
	}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	rt.Run()
	if !errors.Is(injErr, ErrNotCorrupt) {
		t.Fatalf("injecting from honest node must fail, got %v", injErr)
	}
}

func TestInboxVisibilityOnlyForCorrupt(t *testing.T) {
	nodes := echoNodes(3, 2, allZero)
	var honestErr error
	var corruptInbox []Delivered
	adv := &funcAdversary{
		power: PowerWeaklyAdaptive,
		setup: func(ctx *Ctx) {
			_, _ = ctx.Corrupt(2)
		},
		round: func(ctx *Ctx) {
			if ctx.Round() == 1 {
				_, honestErr = ctx.Inbox(0)
				corruptInbox, _ = ctx.Inbox(2)
			}
		},
	}
	rt, _ := NewRuntime(Config{N: 3, F: 1, MaxRounds: 5}, nodes, adv)
	rt.Run()
	if !errors.Is(honestErr, ErrNotCorrupt) {
		t.Fatalf("honest inbox must be private, got %v", honestErr)
	}
	if len(corruptInbox) != 2 {
		t.Fatalf("corrupt node should have received 2 round-0 multicasts, got %d", len(corruptInbox))
	}
}

func TestConfigValidation(t *testing.T) {
	nodes := echoNodes(3, 1, allZero)
	if _, err := NewRuntime(Config{N: 2}, nodes, nil); err == nil {
		t.Fatal("mismatched N accepted")
	}
	if _, err := NewRuntime(Config{N: 3, F: 3}, nodes, nil); err == nil {
		t.Fatal("f >= n accepted")
	}
	if _, err := NewRuntime(Config{N: 3, F: -1}, nodes, nil); err == nil {
		t.Fatal("negative f accepted")
	}
	if _, err := NewRuntime(Config{N: 0}, nil, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestMaxRoundsTermination(t *testing.T) {
	// Nodes that never halt: runtime must stop at MaxRounds and the
	// termination checker must flag it.
	nodes := echoNodes(2, 1000, allZero)
	rt, _ := NewRuntime(Config{N: 2, F: 0, MaxRounds: 7}, nodes, nil)
	res := rt.Run()
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
	if err := CheckTermination(res); !errors.Is(err, ErrTermination) {
		t.Fatalf("want termination violation, got %v", err)
	}
}

func TestCheckers(t *testing.T) {
	res := &Result{
		Outputs: []types.Bit{types.Zero, types.One, types.Zero},
		Decided: []bool{true, true, true},
		Corrupt: []bool{false, false, false},
	}
	if err := CheckConsistency(res); !errors.Is(err, ErrConsistency) {
		t.Fatalf("want consistency violation, got %v", err)
	}
	// Corrupting the disagreeing node clears the violation.
	res.Corrupt[1] = true
	if err := CheckConsistency(res); err != nil {
		t.Fatalf("corrupt node must not trigger consistency: %v", err)
	}

	inputs := []types.Bit{types.One, types.One, types.One}
	if err := CheckAgreementValidity(res, inputs); !errors.Is(err, ErrValidity) {
		t.Fatalf("want validity violation, got %v", err)
	}
	// Mixed inputs make validity vacuous.
	inputs[0] = types.Zero
	if err := CheckAgreementValidity(res, inputs); err != nil {
		t.Fatalf("mixed-input validity must be vacuous: %v", err)
	}

	if err := CheckBroadcastValidity(res, 0, types.Zero); err != nil {
		t.Fatalf("broadcast validity holds: %v", err)
	}
	if err := CheckBroadcastValidity(res, 0, types.One); !errors.Is(err, ErrValidity) {
		t.Fatalf("want broadcast validity violation, got %v", err)
	}
	if err := CheckBroadcastValidity(res, 1, types.Zero); err != nil {
		t.Fatalf("corrupt sender must make validity vacuous: %v", err)
	}

	// The checkers range over the forever-honest set without materialising
	// it, so the edges are theirs to get right: a corrupt node 0 (the common
	// input comes from the first *honest* node), undecided nodes, and an
	// execution with no honest node left.
	for _, tc := range []struct {
		name                      string
		res                       Result
		inputs                    []types.Bit
		consistency, validity, tm error
	}{
		{name: "corrupt first node, unanimous honest inputs, wrong output",
			res: Result{Outputs: []types.Bit{types.One, types.Zero, types.Zero}, Decided: []bool{true, true, true},
				Corrupt: []bool{true, false, false}},
			inputs: []types.Bit{types.Zero, types.One, types.One}, validity: ErrValidity},
		{name: "corrupt first node, honest inputs disagree",
			res: Result{Outputs: []types.Bit{types.One, types.Zero, types.Zero}, Decided: []bool{true, true, true},
				Corrupt: []bool{true, false, false}},
			inputs: []types.Bit{types.One, types.One, types.Zero}},
		{name: "undecided honest node",
			res: Result{Outputs: []types.Bit{types.One, types.NoBit, types.One}, Decided: []bool{true, false, true},
				Corrupt: []bool{false, false, false}},
			inputs: []types.Bit{types.One, types.One, types.One}, validity: ErrValidity, tm: ErrTermination},
		{name: "undecided node between disagreeing outputs",
			res: Result{Outputs: []types.Bit{types.One, types.NoBit, types.Zero}, Decided: []bool{true, false, true},
				Corrupt: []bool{false, false, false}},
			inputs: []types.Bit{types.One, types.Zero, types.One}, consistency: ErrConsistency, tm: ErrTermination},
		{name: "no honest node",
			res: Result{Outputs: []types.Bit{types.One, types.Zero}, Decided: []bool{true, false},
				Corrupt: []bool{true, true}},
			inputs: []types.Bit{types.One, types.One}},
	} {
		if err := CheckConsistency(&tc.res); !errors.Is(err, tc.consistency) {
			t.Errorf("%s: consistency = %v, want %v", tc.name, err, tc.consistency)
		}
		if err := CheckAgreementValidity(&tc.res, tc.inputs); !errors.Is(err, tc.validity) {
			t.Errorf("%s: validity = %v, want %v", tc.name, err, tc.validity)
		}
		if err := CheckTermination(&tc.res); !errors.Is(err, tc.tm) {
			t.Errorf("%s: termination = %v, want %v", tc.name, err, tc.tm)
		}
	}

	// A passing execution is judged without a single allocation, at any n.
	const n = 4096
	ok := &Result{Outputs: make([]types.Bit, n), Decided: make([]bool, n), Corrupt: make([]bool, n)}
	okInputs := make([]types.Bit, n)
	for i := range ok.Decided {
		ok.Decided[i] = true
	}
	if avg := testing.AllocsPerRun(10, func() {
		if CheckConsistency(ok) != nil || CheckTermination(ok) != nil ||
			CheckAgreementValidity(ok, okInputs) != nil || CheckBroadcastValidity(ok, 0, types.Zero) != nil {
			t.Error("checker rejected an all-zero unanimous execution")
		}
	}); avg != 0 {
		t.Errorf("checkers allocate %.0f times on a passing result, want 0", avg)
	}
}
