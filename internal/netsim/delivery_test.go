package netsim

import (
	"testing"

	"ccba/internal/types"
	"ccba/internal/wire"
)

// The tests in this file pin down the delivery semantics of the shared
// multicast fan-out: one per-round multicast list aliased by every inbox,
// merged in envelope order with per-recipient unicasts and removal
// exceptions. They are deliberately explicit about ordering and metrics so
// the buffer-reuse engine cannot drift from the reference semantics of one
// append per (envelope, recipient).

// scriptNode sends a fixed script of sends in round 0 and records everything
// it receives, in order.
type scriptNode struct {
	script []Send
	got    []Delivered
	rounds int
	halted bool
}

func (n *scriptNode) Step(round int, delivered []Delivered) []Send {
	// Copy: inbox slices are round-scoped and reused by the runtime.
	n.got = append(n.got, delivered...)
	if round >= n.rounds {
		n.halted = true
		return nil
	}
	if round == 0 {
		return n.script
	}
	return nil
}

func (n *scriptNode) Output() (types.Bit, bool) { return types.Zero, false }
func (n *scriptNode) Halted() bool              { return n.halted }

type markMsg struct{ Tag uint32 }

func (m markMsg) Kind() wire.Kind { return 7 }
func (m markMsg) Size() int       { return 4 }
func (m markMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U32(m.Tag)
	return w.Buf
}

func runScript(t *testing.T, n int, scripts map[int][]Send, adv Adversary) ([]*scriptNode, *Result) {
	t.Helper()
	nodes := make([]Node, n)
	sn := make([]*scriptNode, n)
	for i := range nodes {
		sn[i] = &scriptNode{script: scripts[i], rounds: 1}
		nodes[i] = sn[i]
	}
	rt, err := NewRuntime(Config{N: n, F: 2, MaxRounds: 5}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	return sn, rt.Run()
}

func tags(ds []Delivered) []uint32 {
	out := make([]uint32, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.Msg.(markMsg).Tag)
	}
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A multicast must be delivered to its own sender: quorum counting treats
// one's own vote uniformly with everyone else's.
func TestMulticastReachesSender(t *testing.T) {
	sn, _ := runScript(t, 3, map[int][]Send{
		1: {Multicast(markMsg{Tag: 42})},
	}, nil)
	for i, node := range sn {
		got := tags(node.got)
		if !equalU32(got, []uint32{42}) {
			t.Fatalf("node %d received %v, want [42] (sender included)", i, got)
		}
	}
}

// Interleaved unicasts and multicasts must arrive in envelope order: the
// shared multicast list and the per-recipient extras are merged by position,
// not concatenated.
func TestDeliveryOrderPreserved(t *testing.T) {
	sn, _ := runScript(t, 3, map[int][]Send{
		0: {
			Unicast(1, markMsg{Tag: 1}),
			Multicast(markMsg{Tag: 2}),
			Unicast(1, markMsg{Tag: 3}),
			Multicast(markMsg{Tag: 4}),
		},
		2: {Unicast(1, markMsg{Tag: 5})},
	}, nil)
	if got := tags(sn[1].got); !equalU32(got, []uint32{1, 2, 3, 4, 5}) {
		t.Fatalf("node 1 received %v, want [1 2 3 4 5] in envelope order", got)
	}
	// Nodes without unicasts see exactly the multicasts, in order.
	if got := tags(sn[0].got); !equalU32(got, []uint32{2, 4}) {
		t.Fatalf("node 0 received %v, want [2 4]", got)
	}
	if got := tags(sn[2].got); !equalU32(got, []uint32{2, 4}) {
		t.Fatalf("node 2 received %v, want [2 4]", got)
	}
}

// removeForMulticastAdversary corrupts node 0 in round 0 and erases its
// multicast for the victim only.
type removeForMulticastAdversary struct {
	victim types.NodeID
	err    error
}

func (a *removeForMulticastAdversary) Power() Power { return PowerStronglyAdaptive }
func (a *removeForMulticastAdversary) Setup(*Ctx)   {}
func (a *removeForMulticastAdversary) Round(ctx *Ctx) {
	if ctx.Round() != 0 {
		return
	}
	for _, e := range ctx.Outgoing() {
		if e.From == 0 && e.To == types.Broadcast {
			if _, err := ctx.Corrupt(0); err != nil {
				a.err = err
				return
			}
			a.err = ctx.RemoveFor(e, a.victim)
			return
		}
	}
}

// Per-recipient erasure of a multicast must pull it out of the shared list
// for the victim while every other node — including the sender — still
// receives it in order, and the honest-send metrics must still count it
// (it was sent by a then-honest node; Definitions 6 and 7).
func TestRemoveForFiltersSharedMulticast(t *testing.T) {
	adv := &removeForMulticastAdversary{victim: 2}
	sn, res := runScript(t, 4, map[int][]Send{
		0: {Multicast(markMsg{Tag: 10})},
		1: {Multicast(markMsg{Tag: 11})},
	}, adv)
	if adv.err != nil {
		t.Fatalf("adversary: %v", adv.err)
	}
	// Node 0 is corrupt (and thus no longer stepped); the honest non-victims
	// 1 and 3 must both receive both multicasts, in order.
	for _, i := range []int{1, 3} {
		if got := tags(sn[i].got); !equalU32(got, []uint32{10, 11}) {
			t.Fatalf("node %d received %v, want [10 11]", i, got)
		}
	}
	if got := tags(sn[2].got); !equalU32(got, []uint32{11}) {
		t.Fatalf("victim received %v, want [11] only", got)
	}
	wantSize := Count(wire.Size(markMsg{}))
	if res.Metrics.HonestMulticasts != 2 || res.Metrics.HonestMulticastBytes != 2*wantSize {
		t.Fatalf("metrics %+v: erased-for-one multicast must still be counted", res.Metrics)
	}
}

// injectingAdversary corrupts node 0 during setup, then each round injects a
// multicast from it and fully removes one honest multicast from node 1.
type injectingAdversary struct {
	err error
}

func (a *injectingAdversary) Power() Power { return PowerStronglyAdaptive }
func (a *injectingAdversary) Setup(ctx *Ctx) {
	if _, err := ctx.Corrupt(0); err != nil {
		a.err = err
	}
}

func (a *injectingAdversary) Round(ctx *Ctx) {
	if ctx.Round() != 0 || a.err != nil {
		return
	}
	if err := ctx.Inject(0, types.Broadcast, markMsg{Tag: 99}); err != nil {
		a.err = err
		return
	}
	for _, e := range ctx.Outgoing() {
		if e.From == 1 {
			// Corrupt the sender so its round-0 multicast can be erased.
			if _, err := ctx.Corrupt(1); err != nil {
				a.err = err
				return
			}
			a.err = ctx.Remove(e)
			return
		}
	}
}

// Injected envelopes are delivered but never counted as honest sends; fully
// removed envelopes are counted (sent by a then-honest node) but never
// delivered.
func TestInjectedAndRemovedMetrics(t *testing.T) {
	adv := &injectingAdversary{}
	sn, res := runScript(t, 3, map[int][]Send{
		1: {Multicast(markMsg{Tag: 20})},
		2: {Multicast(markMsg{Tag: 30})},
	}, adv)
	if adv.err != nil {
		t.Fatalf("adversary: %v", adv.err)
	}
	// Nodes 0 and 1 are corrupt (no longer stepped); honest node 2 must see
	// node 2's own multicast and the injected 99 — in envelope order, with
	// the injection appended after the honest sends — and not the removed 20.
	if got := tags(sn[2].got); !equalU32(got, []uint32{30, 99}) {
		t.Fatalf("node 2 received %v, want [30 99]", got)
	}
	// Honest sends: node 1's removed multicast and node 2's multicast. The
	// injection from corrupt node 0 must not be counted.
	wantSize := Count(wire.Size(markMsg{}))
	want := Metrics{
		HonestMulticasts:     2,
		HonestMulticastBytes: 2 * wantSize,
		HonestMessages:       2 * 3,
		HonestMessageBytes:   2 * 3 * wantSize,
	}
	if res.Metrics != want {
		t.Fatalf("metrics %+v, want %+v", res.Metrics, want)
	}
}

// Unicasts to out-of-range recipients vanish without panicking, and
// self-unicast is delivered (a node may send to itself).
func TestUnicastEdgeCases(t *testing.T) {
	sn, res := runScript(t, 3, map[int][]Send{
		0: {
			Unicast(types.NodeID(17), markMsg{Tag: 1}),
			Unicast(0, markMsg{Tag: 2}),
		},
	}, nil)
	if got := tags(sn[0].got); !equalU32(got, []uint32{2}) {
		t.Fatalf("node 0 received %v, want [2]", got)
	}
	for _, i := range []int{1, 2} {
		if got := tags(sn[i].got); len(got) != 0 {
			t.Fatalf("node %d received %v, want nothing", i, got)
		}
	}
	// Both unicasts were honest sends and are counted, deliverable or not.
	if res.Metrics.HonestMessages != 2 {
		t.Fatalf("metrics %+v, want 2 honest messages", res.Metrics)
	}
}
