package obs

import (
	"ccba/internal/types"
)

// EventKind discriminates the round-lifecycle events. The declaration
// order is the canonical within-(round, node) order of the trace: a node
// starts its round, reads its deliveries, speaks, possibly decides,
// possibly halts, then advances its sync watermark; fault injections sort
// last because the two runtimes discover them at different points of the
// round (the simulator after collecting every send, the live transport
// inside each Send call).
type EventKind uint8

// The event taxonomy (DESIGN.md §10).
const (
	// EvRoundStart: node began round Round (it was live: honest and not
	// halted). A and B are unused.
	EvRoundStart EventKind = iota + 1
	// EvDeliver: node read one inbox message this round. A is the sender,
	// B the exact encoded size (wire.Size — the Definitions 6–7 unit), Seq
	// the message's position in the inbox.
	EvDeliver
	// EvSend: node sent one message. A is the destination
	// (types.Broadcast, −1, for a multicast), B the exact encoded size,
	// Seq the send's position in the node's send list.
	EvSend
	// EvDecide: node first reported a decision. A is the output bit.
	EvDecide
	// EvHalt: node halted (emitted once, in the round it happened).
	EvHalt
	// EvMark: node's sync watermark advanced past this round; A is the new
	// watermark, round+1. The simulator advances by construction; the live
	// cluster emits it when the all-ack barrier completes.
	EvMark
	// EvFault: the network dropped one (sender, recipient) link this
	// round; Node is the sender, A the recipient, B the FaultKind, Seq a
	// per-(round, sender) counter in injection order.
	EvFault
	// EvCoin: node revealed the common coin of one ABA round (DESIGN.md
	// §11). Round is the ABA round, Seq the ACS slot (0 standalone), A the
	// coin bit.
	EvCoin
	// EvAsyncDeliver: the event-driven runtime delivered one message. Round
	// is the global delivery step (the async analogue of the round index, so
	// the canonical order is the schedule order), Node the recipient, A the
	// sender, B the exact encoded size.
	EvAsyncDeliver
)

// String returns the canonical JSONL tag of the kind.
func (k EventKind) String() string {
	switch k {
	case EvRoundStart:
		return "round_start"
	case EvDeliver:
		return "deliver"
	case EvSend:
		return "send"
	case EvDecide:
		return "decide"
	case EvHalt:
		return "halt"
	case EvMark:
		return "mark"
	case EvFault:
		return "fault"
	case EvCoin:
		return "coin"
	case EvAsyncDeliver:
		return "async_deliver"
	default:
		return "unknown"
	}
}

// FaultKind classifies an EvFault: a seeded per-link drop, or a crash
// window (total outbound omission for one node).
type FaultKind int32

// The fault kinds.
const (
	FaultDrop  FaultKind = 0
	FaultCrash FaultKind = 1
)

// String returns the canonical JSONL tag of the fault kind.
func (f FaultKind) String() string {
	if f == FaultCrash {
		return "crash"
	}
	return "drop"
}

// Event is one trace record. It is a flat value — no pointers, no
// allocation per emission — so tracing a million-node sparse round costs
// only the ring-buffer writes. Field meaning per kind is documented on the
// EventKind constants.
type Event struct {
	Round int32
	Node  int32
	Seq   uint32
	Kind  EventKind
	A, B  int32
}

// less orders events canonically: (Round, Node, Kind, Seq, A, B). Within
// one (round, node) the kind order is the lifecycle order (see EventKind),
// so a canonical sort makes the trace independent of emission interleaving
// — the simulator's shards and cluster node goroutines emit concurrently,
// yet the exported JSONL is byte-identical to a serial run's.
func less(a, b Event) bool {
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Tracer receives the event stream. Implementations must be safe for
// concurrent Emit calls: the round engine's shards and the cluster's node
// goroutines all emit into one tracer.
type Tracer interface {
	Emit(Event)
}

// Sink is the nil-guarded emission front the hot paths call through: a
// zero Sink (no tracer) makes every method a single-branch no-op, so the
// engines carry tracing at zero cost when it is off. Construct events only
// here — the obsguard analyzer (DESIGN.md §8) flags direct Tracer.Emit
// calls and Event literals outside this package.
type Sink struct {
	t Tracer
}

// NewSink wraps a tracer (nil is fine and yields the disabled sink).
func NewSink(t Tracer) Sink { return Sink{t: t} }

// Enabled reports whether emissions reach a tracer. Hot paths guard their
// per-event argument computation (sizes, loops) behind it.
func (s Sink) Enabled() bool { return s.t != nil }

// RoundStart emits the node's round-start event.
func (s Sink) RoundStart(round int, node types.NodeID) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Kind: EvRoundStart})
}

// Deliver emits one inbox read: message seq from sender, of the exact
// encoded size.
func (s Sink) Deliver(round int, node types.NodeID, seq int, from types.NodeID, size int) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Seq: uint32(seq), Kind: EvDeliver, A: int32(from), B: int32(size)})
}

// Send emits one send: message seq to the destination (types.Broadcast for
// a multicast), of the exact encoded size.
func (s Sink) Send(round int, node types.NodeID, seq int, to types.NodeID, size int) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Seq: uint32(seq), Kind: EvSend, A: int32(to), B: int32(size)})
}

// Decide emits the node's first decision.
func (s Sink) Decide(round int, node types.NodeID, bit types.Bit) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Kind: EvDecide, A: int32(bit)})
}

// Halt emits the node's halt transition.
func (s Sink) Halt(round int, node types.NodeID) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Kind: EvHalt})
}

// Mark emits the node's watermark advance past round.
func (s Sink) Mark(round int, node types.NodeID, acked int) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Kind: EvMark, A: int32(acked)})
}

// Fault emits one injected link fault: from dropped its round-r message to
// to. seq counts faults per (round, from) in injection order.
func (s Sink) Fault(round int, from, to types.NodeID, seq int, kind FaultKind) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(from), Seq: uint32(seq), Kind: EvFault, A: int32(to), B: int32(kind)})
}

// Coin emits one common-coin reveal: node learned the coin bit of ABA
// round round in ACS slot slot (0 standalone).
func (s Sink) Coin(round int, node types.NodeID, slot int, bit types.Bit) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(round), Node: int32(node), Seq: uint32(slot), Kind: EvCoin, A: int32(bit)})
}

// AsyncDeliver emits one event-driven delivery: at global delivery step
// step, node read one message from sender, of the exact encoded size.
func (s Sink) AsyncDeliver(step int, node types.NodeID, from types.NodeID, size int) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Round: int32(step), Node: int32(node), Kind: EvAsyncDeliver, A: int32(from), B: int32(size)})
}
