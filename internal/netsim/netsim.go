package netsim

import (
	"errors"
	"fmt"

	"ccba/internal/types"
	"ccba/internal/wire"
)

// Node is the sans-I/O state machine for one protocol participant.
//
// Implementations must be deterministic given their construction-time inputs
// (any randomness is injected via seeded sources at construction), so whole
// executions are reproducible.
type Node interface {
	// Step advances the node by one synchronous round. delivered holds the
	// messages that arrive at the beginning of the round (nil in round 0);
	// the returned sends are transmitted during the round and delivered at
	// the beginning of round+1.
	Step(round int, delivered []Delivered) []Send
	// Output returns the node's current output bit and whether it has
	// decided.
	Output() (types.Bit, bool)
	// Halted reports whether the node has terminated (a halted node is no
	// longer stepped).
	Halted() bool
}

// Delivered is a message as seen by its recipient. From is the authenticated
// sender identity (the paper assumes authenticated channels throughout).
type Delivered struct {
	From types.NodeID
	// flags is what the round engine knows of the delivery: the
	// Config.Screen verdict on a shared delivery, and the mark of an entry
	// of a round's shared list. It sits in the padding after From, so a
	// Delivered stays the size of {From, Msg} on 64-bit platforms.
	flags uint8
	Msg   wire.Message
}

// Delivered.flags bits. Neither screen bit set is "not screened".
const (
	screenPass uint8 = 1 << iota
	screenFail
	listed
)

// Screened returns the verdict of the run's Config.Screen on this delivery:
// known reports that the engine screened it, pass what the screen answered.
// Only shared lockstep deliveries are screened; a recipient checks
// everything that comes back unknown itself — unicasts, a held multicast's
// copy to its sender, the live cluster's and the event runtime's
// deliveries, and literals built outside an engine.
func (d Delivered) Screened() (pass, known bool) {
	return d.flags&screenPass != 0, d.flags&(screenPass|screenFail) != 0
}

// SharedList reports whether inbox carries the lockstep engine's mark of a
// round's shared list: the one slice the engine hands, unchanged, to every
// node without a private delivery that round, so that nodes in equal states
// reach equal states by it (core's state classes, DESIGN.md §6). The mark
// is on the entries, so a copy or a sub-slice of the list carries it too:
// a recipient that shares work by it must also know the list by its first
// element, its length and the round. The engine's merge of a list with a
// node's private deliveries strips the mark, and the live cluster, the
// event runtime and literals built outside an engine never set it. An empty
// inbox is never marked.
func SharedList(inbox []Delivered) bool {
	return len(inbox) > 0 && inbox[0].flags&listed != 0
}

// Send is an outgoing message. To is types.Broadcast for a multicast.
type Send struct {
	To  types.NodeID
	Msg wire.Message
}

// Multicast is a convenience constructor for broadcast sends.
func Multicast(m wire.Message) Send { return Send{To: types.Broadcast, Msg: m} }

// Unicast is a convenience constructor for pairwise sends.
func Unicast(to types.NodeID, m wire.Message) Send { return Send{To: to, Msg: m} }

// Power is an adversary's corruption power.
type Power int

const (
	// PowerStatic adversaries corrupt only before the protocol starts.
	PowerStatic Power = iota + 1
	// PowerWeaklyAdaptive adversaries corrupt adaptively and may make a
	// just-corrupted node send extra messages in the same round, but cannot
	// erase messages already sent ("no after-the-fact removal") — the model
	// in which the paper's upper bound lives.
	PowerWeaklyAdaptive
	// PowerStronglyAdaptive adversaries may additionally erase messages a
	// node sent in the round it was corrupted ("after-the-fact removal") —
	// the model of the Ω(f²) lower bound.
	PowerStronglyAdaptive
)

// String implements fmt.Stringer.
func (p Power) String() string {
	switch p {
	case PowerStatic:
		return "static"
	case PowerWeaklyAdaptive:
		return "weakly-adaptive"
	case PowerStronglyAdaptive:
		return "strongly-adaptive"
	default:
		return fmt.Sprintf("Power(%d)", int(p))
	}
}

// Adversary drives corruptions, removals, and injections. Implementations
// receive a Ctx scoped to the current round; the Runtime enforces power and
// budget.
type Adversary interface {
	// Power declares the adversary's corruption power.
	Power() Power
	// Setup runs once before round 0, before any node speaks. Static
	// corruption happens here.
	Setup(ctx *Ctx)
	// Round runs once per round, after so-far-honest nodes have produced
	// their sends and before delivery.
	Round(ctx *Ctx)
}

// Passive is a no-op adversary; embed it to implement only the hooks a
// strategy needs.
type Passive struct{}

// Power implements Adversary.
func (Passive) Power() Power { return PowerStatic }

// Setup implements Adversary.
func (Passive) Setup(*Ctx) {}

// Round implements Adversary.
func (Passive) Round(*Ctx) {}

var _ Adversary = Passive{}

// Seized is what the adversary gains by corrupting a node: the node's state
// machine (which it may keep stepping to simulate honest-but-filtered
// behaviour, as the lower-bound adversaries do) and the node's secret key
// material.
type Seized struct {
	ID   types.NodeID
	Node Node
	Keys any
}

// Errors returned by Ctx operations.
var (
	ErrBudget         = errors.New("netsim: corruption budget exhausted")
	ErrAlreadyCorrupt = errors.New("netsim: node already corrupt")
	ErrNotCorrupt     = errors.New("netsim: node is not corrupt")
	ErrPower          = errors.New("netsim: operation exceeds adversary power")
	ErrUnknownNode    = errors.New("netsim: unknown node")
	ErrRemoved        = errors.New("netsim: envelope already removed")
)

// Envelope is an in-flight message during the adversary's window: sent this
// round, not yet delivered. Envelopes are allocated from a round-scoped slab
// the Runtime reuses, so they are valid only within the round they belong
// to; adversaries must not retain them across rounds.
type Envelope struct {
	From types.NodeID
	To   types.NodeID // types.Broadcast for a multicast
	Msg  wire.Message

	size       int
	removed    bool
	removedFor map[types.NodeID]struct{} // per-recipient removals
}

// Removed reports whether the envelope has been erased by the adversary.
func (e *Envelope) Removed() bool { return e.removed }

// RemovedFor reports whether the envelope has been erased for recipient id.
func (e *Envelope) RemovedFor(id types.NodeID) bool {
	if e.removed {
		return true
	}
	_, ok := e.removedFor[id]
	return ok
}

// Size returns the encoded size of the message in bytes.
func (e *Envelope) Size() int { return e.size }
