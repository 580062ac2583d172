package netsim

import (
	"testing"

	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// floodMsg is the toy message of the event-runtime tests.
type floodMsg struct{ B types.Bit }

func (m *floodMsg) Kind() wire.Kind { return 1 }
func (m *floodMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.Bit(m.B)
	return w.Buf
}
func (m *floodMsg) Size() int { return 1 }

// floodNode multicasts its input once and decides the majority bit after
// hearing from a quorum of n-f distinct senders, then halts.
type floodNode struct {
	n, f    int
	input   types.Bit
	seen    []bool
	ones    int
	total   int
	decided bool
	out     types.Bit
}

func newFloodNode(n, f int, input types.Bit) *floodNode {
	return &floodNode{n: n, f: f, input: input, seen: make([]bool, n)}
}

func (fn *floodNode) Start() []Send {
	return []Send{Multicast(&floodMsg{B: fn.input})}
}

func (fn *floodNode) Deliver(d Delivered) []Send {
	m, ok := d.Msg.(*floodMsg)
	if !ok || fn.seen[d.From] {
		return nil
	}
	fn.seen[d.From] = true
	fn.total++
	if m.B == types.One {
		fn.ones++
	}
	if !fn.decided && fn.total >= fn.n-fn.f {
		fn.decided = true
		fn.out = types.BitFromBool(2*fn.ones >= fn.total)
	}
	return nil
}

func (fn *floodNode) Output() (types.Bit, bool) { return fn.out, fn.decided }
func (fn *floodNode) Halted() bool              { return fn.decided }

func floodNodes(n, f int) []AsyncNode {
	nodes := make([]AsyncNode, n)
	for i := range nodes {
		nodes[i] = newFloodNode(n, f, types.BitFromBool(i%2 == 0))
	}
	return nodes
}

func eventSeed(b byte) [32]byte {
	var s [32]byte
	s[0] = b
	return s
}

func TestEventRuntimeFloodAllModes(t *testing.T) {
	for _, mode := range []SchedMode{SchedFIFO, SchedRandom, SchedAdvDelay} {
		t.Run(mode.String(), func(t *testing.T) {
			n, f := 7, 2
			rt, err := NewEventRuntime(EventConfig{N: n, F: f, Seed: eventSeed(1), Sched: mode}, floodNodes(n, f))
			if err != nil {
				t.Fatal(err)
			}
			res := rt.Run()
			for i := 0; i < n; i++ {
				if !res.Decided[i] || !res.Halted[i] {
					t.Fatalf("mode %s: node %d undecided (decided=%v halted=%v)", mode, i, res.Decided[i], res.Halted[i])
				}
			}
			if err := CheckTermination(res); err != nil {
				t.Fatalf("mode %s: %v", mode, err)
			}
			// Each node multicasts exactly once: n multicasts, n² pairwise.
			if res.Metrics.HonestMulticasts != Count(n) || res.Metrics.HonestMessages != Count(n*n) {
				t.Fatalf("mode %s: metrics %+v, want %d multicasts / %d messages", mode, res.Metrics, n, n*n)
			}
		})
	}
}

// TestEventRuntimeDeterministic pins that equal seeds reproduce the exact
// trace and result, and different seeds reorder under the random scheduler.
func TestEventRuntimeDeterministic(t *testing.T) {
	run := func(seed [32]byte, mode SchedMode) (*Result, []obs.Event) {
		n, f := 9, 2
		rec := obs.NewRecorder(0)
		rt, err := NewEventRuntime(EventConfig{N: n, F: f, Seed: seed, Sched: mode, Tracer: rec}, floodNodes(n, f))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), rec.Events()
	}
	for _, mode := range []SchedMode{SchedFIFO, SchedRandom, SchedAdvDelay} {
		resA, evA := run(eventSeed(7), mode)
		resB, evB := run(eventSeed(7), mode)
		if resA.Rounds != resB.Rounds || len(evA) != len(evB) {
			t.Fatalf("mode %s: same seed diverged: %d/%d steps, %d/%d events", mode, resA.Rounds, resB.Rounds, len(evA), len(evB))
		}
		for i := range evA {
			if evA[i] != evB[i] {
				t.Fatalf("mode %s: trace diverged at event %d: %+v vs %+v", mode, i, evA[i], evB[i])
			}
		}
	}
}

func TestEventRuntimeCrashedNodes(t *testing.T) {
	n, f := 7, 2
	crashed := make([]bool, n)
	crashed[0], crashed[3] = true, true
	rt, err := NewEventRuntime(EventConfig{N: n, F: f, Seed: eventSeed(3), Crashed: crashed}, floodNodes(n, f))
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	for i := 0; i < n; i++ {
		if crashed[i] {
			if res.Decided[i] || !res.Corrupt[i] {
				t.Fatalf("crashed node %d: decided=%v corrupt=%v", i, res.Decided[i], res.Corrupt[i])
			}
			continue
		}
		if !res.Decided[i] || res.Corrupt[i] {
			t.Fatalf("live node %d: decided=%v corrupt=%v", i, res.Decided[i], res.Corrupt[i])
		}
	}
	if err := CheckTermination(res); err != nil {
		t.Fatal(err)
	}
	if got := res.NumCorrupt(); got != 2 {
		t.Fatalf("NumCorrupt=%d, want 2", got)
	}
}

func TestEventRuntimeCrashBudget(t *testing.T) {
	n := 4
	crashed := []bool{true, true, false, false}
	_, err := NewEventRuntime(EventConfig{N: n, F: 1, Crashed: crashed}, floodNodes(n, 1))
	if err == nil {
		t.Fatal("two crashes under f=1 accepted")
	}
}

func TestEventRuntimeDeliveryCap(t *testing.T) {
	n, f := 7, 2
	rt, err := NewEventRuntime(EventConfig{N: n, F: f, Seed: eventSeed(5), MaxDeliveries: 3}, floodNodes(n, f))
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	if res.Rounds != 3 {
		t.Fatalf("Rounds=%d, want the cap 3", res.Rounds)
	}
	if err := CheckTermination(res); err == nil {
		t.Fatal("capped run reported as terminated")
	}
}

// TestEventRuntimeAdvDelayEventuallyDelivers pins the power boundary: the
// adversarial scheduler reorders within its bound but never drops, so even
// a quorum-starving schedule completes the flood.
func TestEventRuntimeAdvDelayEventuallyDelivers(t *testing.T) {
	n, f := 16, 5
	for s := byte(0); s < 8; s++ {
		rt, err := NewEventRuntime(EventConfig{N: n, F: f, Seed: eventSeed(s), Sched: SchedAdvDelay, AdvDelay: 1000}, floodNodes(n, f))
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		if err := CheckTermination(res); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
}
