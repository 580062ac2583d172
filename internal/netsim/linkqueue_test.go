package netsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ccba/internal/types"
	"ccba/internal/wire"
)

// refLink is one fully materialised link of the reference scheduler.
type refLink struct {
	prio, seq uint64
	from, to  types.NodeID
	msg       wire.Message
}

// refQueue is the scheduler as the runtime first had it, minus the heap:
// every admitted link is materialised with its own (from, to, msg), and a
// pop sorts the lot by (prio, seq) and takes the head. It shares nothing
// with linkQueue — its own expansion loop, crash filter and priority rule —
// so agreement between the two pins the send table's recipient-from-seq
// arithmetic and the heap's order at once.
type refQueue struct {
	n        int
	crashed  []bool
	sched    SchedMode
	advDelay uint64
	key      uint64
	seq      uint64
	links    []refLink
	ties     int // pops whose runner-up had the same prio
}

func (r *refQueue) push(from, to types.NodeID, msg wire.Message) {
	if r.crashed != nil && r.crashed[to] {
		return
	}
	prio := r.seq
	switch r.sched {
	case SchedRandom:
		prio = Mix64(r.key ^ r.seq)
	case SchedAdvDelay:
		if Mix64(r.key^r.seq)&3 != 0 {
			prio = r.seq + r.advDelay
		}
	}
	r.links = append(r.links, refLink{prio: prio, seq: r.seq, from: from, to: to, msg: msg})
	r.seq++
}

func (r *refQueue) admit(from types.NodeID, s Send) {
	if s.To == types.Broadcast {
		for j := 0; j < r.n; j++ {
			r.push(from, types.NodeID(j), s.Msg)
		}
	} else if int(s.To) >= 0 && int(s.To) < r.n {
		r.push(from, s.To, s.Msg)
	}
}

func (r *refQueue) pop() refLink {
	sort.Slice(r.links, func(i, j int) bool {
		a, b := r.links[i], r.links[j]
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	})
	head := r.links[0]
	if len(r.links) > 1 && r.links[1].prio == head.prio {
		r.ties++
	}
	r.links = r.links[1:]
	return head
}

// recycled counts the send records on q's free list.
func (q *linkQueue) recycled() int {
	k := 0
	for i := q.free; i != noRec; i = q.sends[i].next {
		k++
	}
	return k
}

// TestLinkQueueMatchesReferenceModel drives random interleavings of admits
// and pops through linkQueue and the reference, for every scheduler mode
// with and without a crash set, unicasts to crashed and out-of-range
// recipients mixed in. The adversarial mode runs with a holdback small
// enough that seq+AdvDelay keeps colliding with a later undelayed seq — the
// ties only the seq tiebreak orders. At n = 40 a send's order block spans
// more than one cache line, and admits are rare enough that the queue drains
// partially: sends with most of their links queued sit in the heap beside
// nearly drained ones, which the case checks it reached.
func TestLinkQueueMatchesReferenceModel(t *testing.T) {
	wideCrashes := make([]bool, 40)
	for id := 1; id < len(wideCrashes); id += 5 {
		wideCrashes[id] = true
	}
	for _, tc := range []struct {
		n, ops       int
		crashSet     []bool
		admit, outOf int // an op admits a send with probability admit/outOf
	}{
		{n: 7, ops: 4000, crashSet: []bool{false, true, false, false, true, false, false}, admit: 2, outOf: 5},
		{n: 40, ops: 8000, crashSet: wideCrashes, admit: 1, outOf: 16},
	} {
		n := tc.n
		for _, mode := range []SchedMode{SchedFIFO, SchedRandom, SchedAdvDelay} {
			for _, crashed := range [][]bool{nil, tc.crashSet} {
				advDelay := 0
				if mode == SchedAdvDelay {
					advDelay = 3
				}
				key := Mix64(uint64(mode) ^ 0x9e3779b97f4a7c15)
				q := newLinkQueue(n, crashed, mode, advDelay, key)
				ref := &refQueue{n: n, crashed: crashed, sched: mode, advDelay: uint64(advDelay), key: key}
				rng := rand.New(rand.NewSource(int64(mode)*2 + int64(len(crashed))))
				mixed := false // a send with ≥ 3/4 of its links queued beside one with a single link left

				step := func(op int) {
					t.Helper()
					got := ref.pop()
					from, to, msg := q.pop()
					if from != got.from || to != got.to || msg != got.msg {
						t.Fatalf("n=%d mode %s crashed=%v op %d: popped (%d→%d, %p), reference (%d→%d, %p) at seq %d",
							n, mode, crashed != nil, op, from, to, msg, got.from, got.to, got.msg, got.seq)
					}
				}
				for op := 0; op < tc.ops; op++ {
					if len(ref.links) == 0 || rng.Intn(tc.outOf) < tc.admit {
						from := types.NodeID(rng.Intn(n))
						// To ranges over [-3, n+2]: -1 is a multicast, the rest
						// unicasts, some out of range and some to crashed nodes.
						s := Send{To: types.NodeID(rng.Intn(n+6) - 3), Msg: &floodMsg{}}
						if rng.Intn(2) == 0 {
							s.To = types.Broadcast
						}
						q.admit(from, s)
						ref.admit(from, s)
					} else {
						step(op)
					}
					if q.len() != len(ref.links) {
						t.Fatalf("n=%d mode %s op %d: %d links queued, reference holds %d", n, mode, op, q.len(), len(ref.links))
					}
					most, least := 0, len(q.live)
					for _, e := range q.heap {
						left := int(q.sends[e.send].left)
						most, least = max(most, left), min(least, left)
					}
					mixed = mixed || (4*most >= 3*len(q.live) && least == 1)
				}
				for op := tc.ops; len(ref.links) > 0; op++ {
					step(op)
				}
				if q.len() != 0 || len(q.heap) != 0 || q.recycled() != len(q.sends) {
					t.Fatalf("n=%d mode %s: drained queue holds %d links in %d heap entries, %d of %d send records recycled",
						n, mode, q.len(), len(q.heap), q.recycled(), len(q.sends))
				}
				for i, s := range q.sends {
					if s.msg != nil {
						t.Fatalf("n=%d mode %s: recycled send record %d still references its message", n, mode, i)
					}
				}
				if mode == SchedAdvDelay && ref.ties == 0 {
					t.Fatalf("n=%d: adversarial-delay run never produced a prio tie; the seq tiebreak went untested", n)
				}
				if n == 40 && !mixed {
					t.Errorf("mode %s crashed=%v: no heap held a mostly queued send beside a nearly drained one", mode, crashed != nil)
				}
			}
		}
	}
}

// stubNode floods the runtime the way the benchmark's null node does: one
// multicast on Start and one more after each n deliveries, for gens
// generations. Its sends come from a buffer it owns, so whatever a run
// allocates per delivery is the runtime's.
type stubNode struct {
	n, gens  int
	got, gen int
	out      [1]Send
}

func (a *stubNode) Start() []Send {
	a.out[0] = Multicast(&floodMsg{})
	return a.out[:]
}

func (a *stubNode) Deliver(Delivered) []Send {
	a.got++
	if a.got%a.n == 0 && a.gen < a.gens {
		a.gen++
		return a.out[:]
	}
	return nil
}

func (a *stubNode) Output() (types.Bit, bool) { return types.Zero, a.Halted() }
func (a *stubNode) Halted() bool              { return a.got >= a.n*(a.gens+1) }

func stubRuntime(t *testing.T, n, gens int, mode SchedMode) *EventRuntime {
	t.Helper()
	nodes := make([]AsyncNode, n)
	for i := range nodes {
		nodes[i] = &stubNode{n: n, gens: gens}
	}
	rt, err := NewEventRuntime(EventConfig{N: n, F: (n - 1) / 3, Seed: eventSeed(1), Sched: mode}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestEventStateIsTrafficSized: over a 200-generation run the heap holds
// exactly one entry per send in flight, whatever the fan-out; the send table
// grows to the peak number of sends in flight — exactly, since a record is
// reused the moment its last link pops — and the order blocks to that peak
// times the width, rounded up to one chunk; none of it to the run's totals.
// The link count len reports, which the runtime's loop and Stop read, is the
// sum of the in-flight sends' undelivered links.
func TestEventStateIsTrafficSized(t *testing.T) {
	const n, gens = 32, 200
	for _, mode := range []SchedMode{SchedFIFO, SchedRandom, SchedAdvDelay} {
		rt := stubRuntime(t, n, gens, mode)
		q := rt.pending
		peakSends := 0
		observe := func() {
			t.Helper()
			inFlight := len(q.sends) - q.recycled()
			peakSends = max(peakSends, inFlight)
			if len(q.heap) != inFlight {
				t.Fatalf("mode %s at %d deliveries: %d heap entries for %d sends in flight", mode, rt.delivered, len(q.heap), inFlight)
			}
			links := 0
			for _, e := range q.heap {
				links += int(q.sends[e.send].left)
			}
			if q.len() != links {
				t.Fatalf("mode %s at %d deliveries: len() = %d, the sends in flight hold %d links", mode, rt.delivered, q.len(), links)
			}
		}
		rt.start()
		observe()
		for rt.running() {
			rt.step()
			observe()
		}
		totalSends, totalLinks := n*(gens+1), n*n*(gens+1)
		if rt.delivered != totalLinks {
			t.Fatalf("mode %s: %d deliveries, want %d", mode, rt.delivered, totalLinks)
		}
		if len(q.sends) != peakSends {
			t.Errorf("mode %s: send table holds %d records, peak in flight was %d", mode, len(q.sends), peakSends)
		}
		if peakSends*20 > totalSends {
			t.Errorf("mode %s: peak of %d sends in flight is not small against the run's %d; the stub no longer separates the two", mode, peakSends, totalSends)
		}
		if cap(q.heap) > max(2*peakSends, chunkRecs) {
			t.Errorf("mode %s: heap capacity %d for a peak of %d sends in flight", mode, cap(q.heap), peakSends)
		}
		slots := 0
		for _, c := range q.order {
			slots += len(c)
		}
		if want := (peakSends + chunkRecs - 1) / chunkRecs * chunkRecs * n; slots > want {
			t.Errorf("mode %s: %d order slots for a peak of %d sends of width %d, want at most %d",
				mode, slots, peakSends, n, want)
		}
	}
}

// TestEventStepAllocatesNothing: once the queue has grown to the traffic in
// flight, pop → Deliver → admit allocates nothing in the runtime.
func TestEventStepAllocatesNothing(t *testing.T) {
	// gens outlasts the ~71 generations measured here, and n*(gens+1) — the
	// stub's halting count — still fits a 32-bit int.
	const n, gens = 32, 1 << 20
	for _, mode := range []SchedMode{SchedFIFO, SchedRandom, SchedAdvDelay} {
		rt := stubRuntime(t, n, gens, mode)
		rt.start()
		for i := 0; i < 50*n*n; i++ {
			rt.step()
		}
		before := rt.delivered
		if allocs := testing.AllocsPerRun(20*n*n, rt.step); allocs != 0 {
			t.Errorf("mode %s: %.2f allocs per delivery in steady state, want 0", mode, allocs)
		}
		if rt.delivered-before < 20*n*n {
			t.Fatalf("mode %s: measured steps delivered %d, want at least %d", mode, rt.delivered-before, 20*n*n)
		}
	}
}

// TestEventRuntimeStopReasons: Stop tells a drained queue from the delivery
// cap from a completed run.
func TestEventRuntimeStopReasons(t *testing.T) {
	const n, f = 7, 2
	run := func(cfg EventConfig, nodes []AsyncNode) EventStop {
		t.Helper()
		cfg.N, cfg.F, cfg.Seed = n, f, eventSeed(5)
		rt, err := NewEventRuntime(cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
		return rt.Stop()
	}
	if stop := run(EventConfig{}, floodNodes(n, f)); stop.Reason != StopHalted || len(stop.Unhalted) != 0 {
		t.Errorf("completed flood: %+v", stop)
	}
	if stop := run(EventConfig{MaxDeliveries: 3}, floodNodes(n, f)); stop.Reason != StopCapped ||
		stop.Deliveries != 3 || stop.Pending != n*n-3 || len(stop.Unhalted) != n {
		t.Errorf("capped flood: %+v", stop)
	}
	// A quorum nobody can reach: each node waits for n senders, two crashed.
	crashed := make([]bool, n)
	crashed[1], crashed[4] = true, true
	stop := run(EventConfig{Crashed: crashed}, floodNodes(n, 0))
	if stop.Reason != StopDrained || stop.Pending != 0 || stop.Deliveries != (n-2)*(n-2) {
		t.Errorf("starved flood: %+v", stop)
	}
	if want := []types.NodeID{0, 2, 3, 5, 6}; !slices.Equal(stop.Unhalted, want) {
		t.Errorf("starved flood: unhalted %v, want %v", stop.Unhalted, want)
	}
}
