package netsim

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"ccba/internal/obs"
	"ccba/internal/types"
)

// faultyMask marks ids in an n-long mask.
func faultyMask(n int, ids ...types.NodeID) []bool {
	mask := make([]bool, n)
	for _, id := range ids {
		mask[id] = true
	}
	return mask
}

// A drop-only chaos schedule at Δ=1 must be schedule-identical to the
// omission schedule over the same key: the jitter spread degenerates to
// next-round delivery, so the live/sim cross-validation at Δ=1 compares
// omission drops only.
func TestChaosDegeneratesToOmission(t *testing.T) {
	const n = 6
	key := FoldSeed([32]byte{9, 9, 9})
	faulty := faultyMask(n, 1, 4)
	om := Faults{Delta: 1, Key: key, Faulty: faulty, Rate: 0.4}
	ch := Faults{Delta: 1, Spread: SpreadJitter, Key: key, Faulty: faulty, Rate: 0.4}
	var drops int
	for round := 0; round < 40; round++ {
		for from := types.NodeID(0); from < n; from++ {
			for to := types.NodeID(0); to < n; to++ {
				a, ak := ch.Decide(round, from, to)
				b, bk := om.Decide(round, from, to)
				if a != b || ak != bk {
					t.Fatalf("round %d %d→%d: chaos (%d, %s) vs omission (%d, %s)", round, from, to, a, ak, b, bk)
				}
				if a == Drop {
					drops++
				}
			}
		}
	}
	if drops == 0 {
		t.Fatal("no drops in 40 rounds at rate 0.4 — schedule is degenerate")
	}
}

// Crash windows drop every outbound link of the victim for exactly the
// window, as crash faults; Validate rejects an empty window and a victim
// outside the faulty set.
func TestChaosCrashWindow(t *testing.T) {
	fs := Faults{Delta: 1, Faulty: faultyMask(6, 3), Crash: 3, CrashFrom: 2, CrashUntil: 5}
	if _, err := fs.Validate(6, 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		got, kind := fs.Decide(round, 3, 0)
		want := 1
		if round >= 2 && round < 5 {
			want = Drop
			if kind != obs.FaultCrash {
				t.Fatalf("round %d: crash-window drop classified %s", round, kind)
			}
		}
		if got != want {
			t.Fatalf("round %d: decided %d, want %d", round, got, want)
		}
		if other, _ := fs.Decide(round, 0, 3); other != 1 {
			t.Fatalf("round %d: inbound link of crashed node decided %d, want 1", round, other)
		}
	}
	empty := fs
	empty.CrashFrom = 5
	if _, err := empty.Validate(6, 1); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty crash window: %v", err)
	}
	honest := fs
	honest.Faulty = nil
	if _, err := honest.Validate(6, 1); err == nil || !strings.Contains(err.Error(), "faulty set") {
		t.Fatalf("crash victim outside the faulty set: %v", err)
	}
}

// Partitions hold cross-cut links to Δ inside the window; same-side links
// keep their jitter schedule.
func TestChaosPartitionHold(t *testing.T) {
	fs := Faults{Delta: 3, Spread: SpreadJitter, Key: FoldSeed([32]byte{2}), Cut: 2, CutFrom: 1, CutUntil: 4}
	for round := 0; round < 6; round++ {
		cross, _ := fs.Decide(round, 0, 3)
		if round >= 1 && round < 4 {
			if cross != 3 {
				t.Fatalf("round %d: cross-cut link decided %d, want Δ=3", round, cross)
			}
		} else if cross < 1 || cross > 3 {
			t.Fatalf("round %d: cross-cut link outside the window decided %d", round, cross)
		}
		if same, _ := fs.Decide(round, 0, 1); same < 1 || same > 3 {
			t.Fatalf("round %d: same-side link decided %d", round, same)
		}
	}
}

// Validate shares one power boundary between the simulator and the live
// cluster: Δ, the rate, the budget, ids in range and a cut in range.
func TestFaultsValidate(t *testing.T) {
	cases := []struct {
		name string
		fs   Faults
		want string // substring of the error, "" for valid
	}{
		{"lockstep", Faults{Delta: 1}, ""},
		{"delta", Faults{}, "Δ ≥ 1"},
		{"rate", Faults{Delta: 1, Rate: 1.5}, "outside"},
		{"budget", Faults{Delta: 1, Faulty: faultyMask(4, 0, 1, 2)}, "budget"},
		{"unknown", Faults{Delta: 1, Faulty: faultyMask(8, 7)}, "node 7"},
		{"cut", Faults{Delta: 2, Cut: 5, CutUntil: 3}, "range"},
		{"cut-ok", Faults{Delta: 2, Cut: 2, CutUntil: 3}, ""},
	}
	for _, tc := range cases {
		mask, err := tc.fs.Validate(4, 2)
		if tc.want == "" {
			if err != nil || mask != nil {
				t.Errorf("%s: (%v, %v), want (nil, nil)", tc.name, mask, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// The per-link rule is on the scheduled engine's hot path: it must not
// allocate.
func TestFaultsDecideAllocatesNothing(t *testing.T) {
	m := Faults{Delta: 3, Spread: SpreadJitter, Key: 7, Faulty: faultyMask(8, 1, 5), Rate: 0.3, Cut: 4, CutUntil: 9}
	allocs := testing.AllocsPerRun(100, func() {
		for from := types.NodeID(0); from < 8; from++ {
			for to := types.NodeID(0); to < 8; to++ {
				m.Link(3, from, to)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Link allocated %v times per 64 links", allocs)
	}
}

// TestFaultsPowerBoundary draws seeded random schedules and, on every one
// Validate accepts, checks the adversary's power link by link: Decide drops
// only links from Faulty senders, answers every other link with a delay in
// [1, Δ], and agrees with Uniform wherever Uniform is ok; Link adds the
// one-round self-link. The runtimes apply these answers unchecked, so this
// is the whole power boundary of the network model.
func TestFaultsPowerBoundary(t *testing.T) {
	const trials, rounds = 300, 12
	rng := rand.New(rand.NewPCG(45, 1))
	valid, drops, holds := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(9)
		f := rng.IntN(n)
		fs := Faults{
			Delta:  1 + rng.IntN(4),
			Spread: Spread(rng.IntN(3)),
			Key:    rng.Uint64(),
			Rate:   []float64{0, 0.3, 1}[rng.IntN(3)],
		}
		if k := rng.IntN(f + 2); k > 0 {
			// Up to f + 1 faulty senders, so an overspent set is drawn too.
			fs.Faulty = make([]bool, n)
			for _, id := range rng.Perm(n)[:min(k, n)] {
				fs.Faulty[id] = true
			}
		}
		if rng.IntN(2) == 0 {
			fs.Cut, fs.CutFrom = types.NodeID(rng.IntN(n+1)), rng.IntN(rounds)
			fs.CutUntil = fs.CutFrom + rng.IntN(rounds)
		}
		if rng.IntN(2) == 0 {
			// Any victim, so one outside the faulty set is drawn too.
			fs.Crash, fs.CrashFrom = types.NodeID(rng.IntN(n)), rng.IntN(rounds)
			fs.CrashUntil = fs.CrashFrom + 1 + rng.IntN(rounds)
		}
		mask, err := fs.Validate(n, f)
		if err != nil {
			continue
		}
		valid++
		fs.Faulty = mask // what NewRuntime runs
		for r := 0; r < rounds+2; r++ {
			for from := types.NodeID(0); int(from) < n; from++ {
				uni, uniOK := fs.Uniform(r, from)
				for to := types.NodeID(0); int(to) < n; to++ {
					if d, _ := fs.Link(r, from, to); from == to && d != 1 {
						t.Fatalf("%+v: self-link %d at round %d takes %d rounds, want 1", fs, from, r, d)
					}
					if from == to {
						continue
					}
					d, _ := fs.Decide(r, from, to)
					switch {
					case d == Drop && (mask == nil || !mask[from]):
						t.Fatalf("%+v: round %d drops honest sender %d's link to %d", fs, r, from, to)
					case d == Drop:
						drops++
					case d < 1 || d > fs.Delta:
						t.Fatalf("%+v: round %d %d→%d delay %d outside [1, %d]", fs, r, from, to, d, fs.Delta)
					case d > 1:
						holds++
					}
					if uniOK && d != uni {
						t.Fatalf("%+v: Uniform(%d, %d) = %d, but Decide gives %d to %d", fs, r, from, uni, d, to)
					}
				}
			}
		}
	}
	if valid < trials/3 || drops == 0 || holds == 0 {
		t.Fatalf("%d of %d schedules valid, %d drops, %d delays past one round: the draw exercises too little", valid, trials, drops, holds)
	}
}

// The tests below pin down how the Runtime delivers by its network model:
// worst-case Δ-delay reaches the bound, jitter is deterministic per seed,
// omission loses only the faulty senders' links, and the Uniform shortcut
// changes no delivery. The tests above pin the model's own answers.

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
func runTrace(t *testing.T, n int, scripts map[int][]Send, net Faults, adv Adversary, f int) []*traceNode {
	t.Helper()
	rounds := max(net.Delta, 1) + 1
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
	_, err = NewRuntime(Config{N: 4, F: 1, Net: Faults{Delta: -1, Spread: SpreadHold}}, mk(4), nil)
	if err == nil {
		t.Fatal("Δ=-1 model accepted")
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

// The per-link path must reproduce the uniform one exactly — arrivals with
// their rounds, the adversary's view, the Result with its Metrics and the
// trace, fault numbering included — under every model shape and under
// adversaries that corrupt, Inject, Remove and RemoveFor, with chatNode's
// self-links in every multicast. That equality is what lets the Runtime
// skip n Decide calls for a sender the model declares Uniform; the
// Runtime's perLink seam turns the shortcut off.
func TestPerLinkPathMatchesUniform(t *testing.T) {
	const n, rounds = 11, 5
	var seed [32]byte
	seed[0] = 11
	key := FoldSeed(seed)
	models := []struct {
		name string
		net  Faults
	}{
		{"delta-one", Faults{}},
		{"hold-2", Faults{Delta: 2, Spread: SpreadHold}},
		{"hold-3", Faults{Delta: 3, Spread: SpreadHold}},
		{"omission-2", Faults{Delta: 2, Key: key, Faulty: faultyMask(n, 2, 7), Rate: 0.5}},
		{"partition-3", Faults{Delta: 3, Cut: 5, CutFrom: 1, CutUntil: 3}},
		{"chaos-3", Faults{Delta: 3, Spread: SpreadJitter, Key: key, Faulty: faultyMask(n, 2, 7), Rate: 0.4,
			Cut: 5, CutFrom: 1, CutUntil: 3, Crash: 7, CrashFrom: 0, CrashUntil: 2}},
		{"chaos-hold-2", Faults{Delta: 2, Spread: SpreadHold, Key: key, Faulty: faultyMask(n, 2, 7), Rate: 0.4,
			Cut: 5, CutFrom: 2, CutUntil: 3, Crash: 7, CrashFrom: 1, CrashUntil: 3}},
	}
	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"passive", func() Adversary { return nil }},
		{"shard-hopper", func() Adversary { return &shardHopper{victims: []types.NodeID{0, n - 1, 3}} }},
		{"injecting", func() Adversary { return &injectingAdversary{} }},
		{"remove-for", func() Adversary { return &removeForMulticastAdversary{victim: 4} }},
	}
	type outcome struct {
		got    [][]arrival
		log    []string
		res    *Result
		events []obs.Event
	}
	run := func(t *testing.T, net Faults, adv Adversary, perLink bool) outcome {
		nodes := make([]Node, n)
		cn := make([]*chatNode, n)
		for i := range nodes {
			cn[i] = &chatNode{id: i, n: n, rounds: rounds}
			nodes[i] = cn[i]
		}
		rec := obs.NewRecorder(1 << 14)
		rt, err := NewRuntime(Config{N: n, F: 5, MaxRounds: rounds + 4, Net: net, Tracer: rec}, nodes, adv)
		if err != nil {
			t.Fatal(err)
		}
		rt.perLink = perLink
		out := outcome{res: rt.Run(), events: rec.Events()}
		for _, c := range cn {
			out.got = append(out.got, c.got)
		}
		if h, ok := adv.(*shardHopper); ok {
			out.log = h.log
		}
		return out
	}
	for _, m := range models {
		for _, a := range advs {
			t.Run(m.name+"/"+a.name, func(t *testing.T) {
				uni, links := run(t, m.net, a.mk(), false), run(t, m.net, a.mk(), true)
				if a.name != "passive" && uni.res.NumCorrupt() == 0 {
					t.Fatalf("adversary corrupted nobody: %v", uni.log)
				}
				if !reflect.DeepEqual(uni.res, links.res) {
					t.Errorf("result: uniform %+v, per-link %+v", uni.res, links.res)
				}
				if !reflect.DeepEqual(uni.log, links.log) {
					t.Errorf("adversary saw\n%v\nunder the uniform path and\n%v\nper link", uni.log, links.log)
				}
				for i := range uni.got {
					if !reflect.DeepEqual(uni.got[i], links.got[i]) {
						t.Errorf("node %d: uniform arrivals %v, per-link %v", i, uni.got[i], links.got[i])
					}
				}
				if !reflect.DeepEqual(uni.events, links.events) {
					t.Errorf("traces diverge: %d uniform events, %d per-link", len(uni.events), len(links.events))
				}
			})
		}
	}
}

// Every Faults lowering TestScheduleGolden hashes keeps the Uniform
// contract: wherever it answers ok, Decide gives that delay, and never
// Drop, on every link out of the sender.
func TestUniformAgreesWithDecide(t *testing.T) {
	const n, rounds = 7, 40
	for _, g := range scheduleGoldens {
		oks := 0
		for r := 0; r <= rounds; r++ {
			for from := types.NodeID(0); from < n; from++ {
				delay, ok := g.model.Uniform(r, from)
				if !ok {
					continue
				}
				oks++
				for to := types.NodeID(0); to < n; to++ {
					if to == from {
						continue
					}
					if got, _ := g.model.Decide(r, from, to); got != delay {
						t.Fatalf("%s: Uniform(%d, %d) = %d, but Decide(%d, %d, %d) = %d", g.name, r, from, delay, r, from, to, got)
					}
				}
			}
		}
		t.Logf("%s: %d of %d (round, sender) pairs uniform", g.name, oks, (rounds+1)*n)
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
