package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ccba/internal/types"
)

// The tests in this file pin the engine's one stepping mechanism: node IDs
// are partitioned into contiguous shards stepped by a worker pool, and the
// serial shard-order merge must produce the same envelope order, deliveries,
// metrics and outputs at every worker count — under every adversary and
// network model, not only the passive lockstep regime Sparse asserts.

// workerCounts is the sweep every equivalence claim here runs over, through
// newRuntime: serial, even and odd splits, more workers than shards can
// use, and far more workers than nodes (clamped).
var workerCounts = []int{1, 2, 3, 4, 7, 64}

// TestSparseShardPartition pins the shard-carving arithmetic: contiguous,
// disjoint, covering, and clamped to [1, n].
func TestSparseShardPartition(t *testing.T) {
	cases := []struct{ n, workers, wantShards int }{
		{10, 1, 1},
		{10, 3, 3},
		{10, 10, 10},
		{10, 64, 10}, // clamped to n
		{10, 0, 1},   // clamped to 1
		{1, 4, 1},
		{1_000, 8, 8},
	}
	for _, tc := range cases {
		shards := carveShards(tc.n, tc.workers)
		if len(shards) != tc.wantShards {
			t.Errorf("n=%d workers=%d: %d shards, want %d", tc.n, tc.workers, len(shards), tc.wantShards)
		}
		next := 0
		for k, sh := range shards {
			if sh.lo != next || sh.hi <= sh.lo {
				t.Fatalf("n=%d workers=%d: shard %d = [%d,%d) after %d", tc.n, tc.workers, k, sh.lo, sh.hi, next)
			}
			next = sh.hi
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: shards cover [0,%d), want [0,%d)", tc.n, tc.workers, next, tc.n)
		}
	}
	// NewRuntime's count is min(GOMAXPROCS, n) and nothing else.
	rt, err := NewRuntime(Config{N: 1_000, F: 1}, echoNodes(1_000, 1, allZero), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := min(runtime.GOMAXPROCS(0), 1_000); len(rt.shards) != want {
		t.Fatalf("NewRuntime carved %d shards at GOMAXPROCS=%d", len(rt.shards), runtime.GOMAXPROCS(0))
	}
}

// TestSparseShardDeliveryEquivalence runs the hostile unicast/multicast
// mix — including unicasts that cross shard boundaries in both directions,
// self-unicasts, and out-of-range recipients — at every worker count and
// requires per-recipient delivery sequences, metrics, and rounds identical
// to the serial run.
func TestSparseShardDeliveryEquivalence(t *testing.T) {
	const n = 9
	scripts := map[int][]Send{
		0: {
			Multicast(markMsg{Tag: 10}),
			Unicast(8, markMsg{Tag: 11}), // first shard → last shard
			Multicast(markMsg{Tag: 12}),
		},
		2: {
			Unicast(2, markMsg{Tag: 20}),  // self-unicast
			Unicast(17, markMsg{Tag: 21}), // out of range: dropped, still counted
		},
		4: {
			Unicast(1, markMsg{Tag: 40}), // middle shard → first shard
			Multicast(markMsg{Tag: 41}),
		},
		8: {
			Unicast(0, markMsg{Tag: 80}), // last shard → first shard
			Multicast(markMsg{Tag: 81}),
		},
	}
	runAt := func(workers int) ([]*scriptNode, *Result) {
		nodes := make([]Node, n)
		sn := make([]*scriptNode, n)
		for i := range nodes {
			sn[i] = &scriptNode{script: scripts[i], rounds: 1}
			nodes[i] = sn[i]
		}
		rt, err := newRuntime(Config{N: n, F: 2, MaxRounds: 5, Sparse: true}, nodes, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		return sn, rt.Run()
	}

	refNodes, refRes := runAt(1)
	for _, w := range workerCounts[1:] {
		gotNodes, gotRes := runAt(w)
		for i := 0; i < n; i++ {
			if r, g := tags(refNodes[i].got), tags(gotNodes[i].got); !equalU32(r, g) {
				t.Errorf("workers=%d node %d: serial delivered %v, sharded delivered %v", w, i, r, g)
			}
		}
		if refRes.Metrics != gotRes.Metrics {
			t.Errorf("workers=%d: metrics %+v, want %+v", w, gotRes.Metrics, refRes.Metrics)
		}
		if refRes.Rounds != gotRes.Rounds {
			t.Errorf("workers=%d: rounds %d, want %d", w, gotRes.Rounds, refRes.Rounds)
		}
	}
}

// TestSparseShardMultiRoundEquivalence sweeps worker counts over a
// multi-round protocol and requires outputs, decisions, halts, rounds and
// metrics identical to the serial run.
func TestSparseShardMultiRoundEquivalence(t *testing.T) {
	input := func(i int) types.Bit { return types.BitFromBool(i%3 != 0) }
	runAt := func(workers int) *Result {
		rt, err := newRuntime(Config{N: 40, F: 5, MaxRounds: 20, Sparse: true},
			echoNodes(40, 4, input), nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run()
	}
	ref := runAt(1)
	for _, w := range workerCounts[1:] {
		if got := runAt(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: result %+v, serial %+v", w, got, ref)
		}
	}
}

// chatNode is traffic that crosses every shard boundary every round: a
// multicast, a unicast a few ids up and one a few ids down (both wrapping),
// for `rounds` rounds. It records every arrival with its round.
type chatNode struct {
	id, n, rounds int
	got           []arrival
	halted        bool
}

func (c *chatNode) Step(round int, delivered []Delivered) []Send {
	for _, d := range delivered {
		c.got = append(c.got, arrival{round: round, from: d.From, tag: d.Msg.(markMsg).Tag})
	}
	if round >= c.rounds {
		c.halted = true
		return nil
	}
	tag := uint32(c.id*1000 + round*10)
	return []Send{
		Multicast(markMsg{Tag: tag}),
		Unicast(types.NodeID((c.id+3)%c.n), markMsg{Tag: tag + 1}),
		Unicast(types.NodeID((c.id+c.n-2)%c.n), markMsg{Tag: tag + 2}),
	}
}

func (c *chatNode) Output() (types.Bit, bool) { return types.Zero, false }
func (c *chatNode) Halted() bool              { return c.halted }

// shardHopper is a strongly adaptive adversary that uses every Ctx power
// across shard boundaries: each round it corrupts one more node (first id,
// last id, then the middle), erases what the victim just sent — the
// multicast for two recipients in other shards, one unicast outright — and
// injects a multicast and a unicast to the far end of the id space on its
// behalf. It logs the window as it saw it (Outgoing before acting, the
// victim's inbox), so the log is part of what must not depend on the
// worker count.
type shardHopper struct {
	victims []types.NodeID
	log     []string
}

func (a *shardHopper) Power() Power { return PowerStronglyAdaptive }
func (a *shardHopper) Setup(*Ctx)   {}
func (a *shardHopper) Round(ctx *Ctx) {
	for _, e := range ctx.Outgoing() {
		a.log = append(a.log, fmt.Sprintf("r%d out %d->%d #%d", ctx.Round(), e.From, e.To, e.Msg.(markMsg).Tag))
	}
	if ctx.Round() >= len(a.victims) {
		return
	}
	v := a.victims[ctx.Round()]
	if _, err := ctx.Corrupt(v); err != nil {
		a.log = append(a.log, "corrupt: "+err.Error())
		return
	}
	inbox, err := ctx.Inbox(v)
	a.log = append(a.log, fmt.Sprintf("r%d inbox %d: %v %v", ctx.Round(), v, tags(inbox), err))
	n := types.NodeID(ctx.N())
	unicasts := 0
	for _, e := range ctx.Outgoing() {
		if e.From != v {
			continue
		}
		if e.To == types.Broadcast {
			a.log = append(a.log, fmt.Sprint(ctx.RemoveFor(e, (v+1)%n), ctx.RemoveFor(e, (v+n/2)%n)))
		} else if unicasts++; unicasts == 1 {
			a.log = append(a.log, fmt.Sprint(ctx.Remove(e)))
		}
	}
	tag := uint32(900_000 + ctx.Round())
	a.log = append(a.log, fmt.Sprint(
		ctx.Inject(v, types.Broadcast, markMsg{Tag: tag}),
		ctx.Inject(v, (v+n-1)%n, markMsg{Tag: tag + 100})))
}

// TestShardsMatchSerialInEveryRegime reruns chatNode traffic at every
// worker count under the regimes sharded stepping never ran in before there
// was one engine: the envelope window with corruption, Remove, RemoveFor
// and Inject (lockstep and delayed), and the delivery ring under worst-case
// delay and omission. Arrivals (with their rounds), the adversary's view, the
// whole Result and the canonical order of the envelope list must equal the
// serial run's.
func TestShardsMatchSerialInEveryRegime(t *testing.T) {
	const n, rounds = 11, 4
	var seed [32]byte
	seed[0] = 5
	cases := []struct {
		name string
		net  func() NetModel
		adv  func() Adversary
	}{
		{"adaptive-lockstep", nil, func() Adversary { return &shardHopper{victims: []types.NodeID{0, n - 1, n / 2}} }},
		{"adaptive-worst-case-2", func() NetModel { return Faults{Delta: 2, Spread: SpreadHold} }, func() Adversary { return &shardHopper{victims: []types.NodeID{n - 1, 0, n / 2}} }},
		{"passive-worst-case-2", func() NetModel { return Faults{Delta: 2, Spread: SpreadHold} }, nil},
		{"passive-omission", func() NetModel {
			return Faults{Delta: 2, Key: FoldSeed(seed), Faulty: faultyMask(n, 0, 5, n-1), Rate: 0.5}
		}, nil},
		{"adaptive-omission", func() NetModel {
			return Faults{Delta: 2, Key: FoldSeed(seed), Faulty: faultyMask(n, 1, n-2), Rate: 0.5}
		}, func() Adversary { return &shardHopper{victims: []types.NodeID{n - 2, 3}} }},
	}
	type outcome struct {
		got [][]arrival
		log []string
		res *Result
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runAt := func(workers int) outcome {
				nodes := make([]Node, n)
				cn := make([]*chatNode, n)
				for i := range nodes {
					cn[i] = &chatNode{id: i, n: n, rounds: rounds}
					nodes[i] = cn[i]
				}
				cfg := Config{N: n, F: 4, MaxRounds: rounds + 4}
				if tc.net != nil {
					cfg.Net = tc.net()
				}
				var adv Adversary
				var hopper *shardHopper
				if tc.adv != nil {
					adv = tc.adv()
					hopper = adv.(*shardHopper)
				}
				rt, err := newRuntime(cfg, nodes, adv, workers)
				if err != nil {
					t.Fatal(err)
				}
				out := outcome{res: rt.Run()}
				for _, c := range cn {
					out.got = append(out.got, c.got)
				}
				if hopper != nil {
					out.log = hopper.log
				}
				return out
			}
			ref := runAt(1)
			if tc.adv != nil && ref.res.NumCorrupt() == 0 {
				t.Fatalf("adversary corrupted nobody: %v", ref.log)
			}
			for _, w := range workerCounts[1:] {
				got := runAt(w)
				if !reflect.DeepEqual(got.res, ref.res) {
					t.Errorf("workers=%d: result %+v, serial %+v", w, got.res, ref.res)
				}
				if !reflect.DeepEqual(got.log, ref.log) {
					t.Errorf("workers=%d: adversary saw\n%v\nserial adversary saw\n%v", w, got.log, ref.log)
				}
				for i := range ref.got {
					if !reflect.DeepEqual(got.got[i], ref.got[i]) {
						t.Errorf("workers=%d node %d: arrivals %v, serial %v", w, i, got.got[i], ref.got[i])
					}
				}
			}
		})
	}
}

// committeeNode multicasts every round iff it is one of the first 40 ids —
// committee-shaped traffic, the same at every n — and halts after `rounds`.
type committeeNode struct {
	speaks bool
	rounds int
	halted bool
}

func (c *committeeNode) Step(round int, _ []Delivered) []Send {
	if round >= c.rounds {
		c.halted = true
		return nil
	}
	if !c.speaks {
		return nil
	}
	return []Send{Multicast(markMsg{Tag: uint32(round)})}
}

func (c *committeeNode) Output() (types.Bit, bool) { return types.Zero, false }
func (c *committeeNode) Halted() bool              { return c.halted }

// TestEngineStateIsTrafficSized holds the engine to its memory claim
// without the Sparse assertion: under the passive adversary and the
// lockstep model, the bytes NewRuntime and Run allocate — less the four
// n-sized slices of the Result they return — do not depend on n. A hundred
// times the nodes with the same traffic must cost under 64 KB more (what
// does differ is the allocator rounding those four slices up to whole
// pages).
//
// The same run under worst-case Δ=2 delay is allowed its O(n) delivery
// ring — three slots of n slice headers, filled with one copy of every
// multicast per recipient: that state is what the model asks for. It is checked at the
// small n only, to show the bound above is about the regime and not about
// the measurement missing allocations.
func TestEngineStateIsTrafficSized(t *testing.T) {
	const rounds = 10
	engineBytes := func(n int, net NetModel) int64 {
		nodes := make([]Node, n)
		backing := make([]committeeNode, n)
		for i := range nodes {
			backing[i] = committeeNode{speaks: i < 40, rounds: rounds}
			nodes[i] = &backing[i]
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rt, err := NewRuntime(Config{N: n, F: 1, MaxRounds: rounds + 2, Net: net}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		runtime.ReadMemStats(&after)
		if res.Rounds != rounds+1 || res.Metrics.HonestMulticasts != 40*rounds {
			t.Fatalf("n=%d: %d rounds, %d multicasts", n, res.Rounds, res.Metrics.HonestMulticasts)
		}
		resultBytes := int64(len(res.Outputs) + len(res.Decided) + len(res.Halted) + len(res.Corrupt))
		return int64(after.TotalAlloc-before.TotalAlloc) - resultBytes
	}
	small, large := engineBytes(1_000, nil), engineBytes(100_000, nil)
	t.Logf("passive lockstep: n=1000 %d B, n=100000 %d B", small, large)
	if d := large - small; d > 64<<10 || d < -(64<<10) {
		t.Errorf("engine allocated %d B at n=1000 and %d B at n=100000: something in it is O(n)", small, large)
	}
	ring := engineBytes(1_000, Faults{Delta: 2, Spread: SpreadHold})
	t.Logf("passive worst-case(2): n=1000 %d B", ring)
	if ring-small < 3*1_000*24 {
		t.Errorf("Faults{Delta: 2, Spread: SpreadHold} at n=1000 allocated %d B, lockstep %d B: the ring's slice headers alone are %d B", ring, small, 3*1_000*24)
	}
}
