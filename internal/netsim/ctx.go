package netsim

import (
	"fmt"

	"ccba/internal/types"
	"ccba/internal/wire"
)

// Ctx is the adversary's per-round window onto the execution. All mutations
// go through it so the Runtime can enforce the corruption budget and the
// adversary's declared power.
type Ctx struct {
	rt    *Runtime
	round int
	envs  []*Envelope
}

func (rt *Runtime) newCtx(round int, envs []*Envelope) *Ctx {
	return &Ctx{rt: rt, round: round, envs: envs}
}

func (c *Ctx) envelopes() []*Envelope { return c.envs }

// Round returns the current round (-1 during Setup).
func (c *Ctx) Round() int { return c.round }

// N returns the number of nodes.
func (c *Ctx) N() int { return c.rt.cfg.N }

// F returns the corruption budget.
func (c *Ctx) F() int { return c.rt.cfg.F }

// CorruptCount returns the number of corruptions made so far.
func (c *Ctx) CorruptCount() int {
	n := 0
	for _, s := range c.rt.status {
		if s == types.Corrupt {
			n++
		}
	}
	return n
}

// IsCorrupt reports whether node id is corrupt.
func (c *Ctx) IsCorrupt(id types.NodeID) bool {
	if int(id) < 0 || int(id) >= c.rt.cfg.N {
		return false
	}
	return c.rt.status[id] == types.Corrupt
}

// Outgoing returns the envelopes in flight this round: the sends of
// so-far-honest nodes plus any messages the adversary has injected. The
// slice is a live view; envelopes removed via Remove stay in it with
// Removed() == true. During Setup it is empty — a Setup-time adversary acts
// before any node speaks.
func (c *Ctx) Outgoing() []*Envelope { return c.envs }

// Inbox returns the messages delivered to corrupt node id at the beginning
// of this round. Honest nodes' inboxes are private.
func (c *Ctx) Inbox(id types.NodeID) ([]Delivered, error) {
	if int(id) < 0 || int(id) >= c.rt.cfg.N {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if c.rt.status[id] != types.Corrupt {
		return nil, fmt.Errorf("%w: inbox of honest node %d", ErrNotCorrupt, id)
	}
	var scratch []Delivered
	return c.rt.inbox(id, &scratch), nil
}

// Corrupt adaptively corrupts node id, handing over its state machine and
// secret keys. The Runtime stops stepping the node; the adversary speaks for
// it from now on via Inject. Static adversaries may corrupt only during
// Setup.
func (c *Ctx) Corrupt(id types.NodeID) (Seized, error) {
	if int(id) < 0 || int(id) >= c.rt.cfg.N {
		return Seized{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if c.rt.status[id] == types.Corrupt {
		return Seized{}, fmt.Errorf("%w: %d", ErrAlreadyCorrupt, id)
	}
	if c.rt.adv.Power() == PowerStatic && c.round >= 0 {
		return Seized{}, fmt.Errorf("%w: static adversary corrupting at round %d", ErrPower, c.round)
	}
	// Omission faults declared by the network model spend the same budget:
	// corruptions plus still-honest faulty senders may never exceed F.
	// Corrupting an already-faulty node converts its fault slot into a
	// corruption slot rather than consuming a second one.
	spent := c.CorruptCount() + c.rt.honestFaultyCount()
	if c.rt.cfg.Net.Faulty != nil && c.rt.cfg.Net.Faulty[id] {
		spent--
	}
	if spent >= c.rt.cfg.F {
		return Seized{}, fmt.Errorf("%w: f=%d (%d spent on omission faults)",
			ErrBudget, c.rt.cfg.F, c.rt.honestFaultyCount())
	}
	c.rt.status[id] = types.Corrupt
	seized := Seized{ID: id, Node: c.rt.nodes[id]}
	if c.rt.cfg.Seize != nil {
		seized.Keys = c.rt.cfg.Seize(id)
	}
	return seized, nil
}

// Remove erases an in-flight envelope — after-the-fact removal. It requires
// StronglyAdaptive power and a corrupt sender: the adversary must corrupt a
// node before erasing what it sent this round. This is the exact capability
// whose necessity Theorem 1 of the paper establishes.
func (c *Ctx) Remove(e *Envelope) error {
	if c.rt.adv.Power() != PowerStronglyAdaptive {
		return fmt.Errorf("%w: after-the-fact removal requires strongly-adaptive power (have %s)",
			ErrPower, c.rt.adv.Power())
	}
	if c.rt.status[e.From] != types.Corrupt {
		return fmt.Errorf("%w: cannot remove message from honest node %d", ErrNotCorrupt, e.From)
	}
	if e.removed {
		return ErrRemoved
	}
	e.removed = true
	return nil
}

// RemoveFor erases an in-flight envelope for a single recipient — the
// "egress router" form of after-the-fact removal (§1 of the paper): the
// adversary drops the copy of a multicast destined to one node while the
// rest of the network still receives it. This is the removal the
// Dolev–Reischuk-style adversary A′ of Theorem 4 performs ("removes the
// message sent by s to p in that round"). Same power requirements as
// Remove.
func (c *Ctx) RemoveFor(e *Envelope, to types.NodeID) error {
	if c.rt.adv.Power() != PowerStronglyAdaptive {
		return fmt.Errorf("%w: after-the-fact removal requires strongly-adaptive power (have %s)",
			ErrPower, c.rt.adv.Power())
	}
	if c.rt.status[e.From] != types.Corrupt {
		return fmt.Errorf("%w: cannot remove message from honest node %d", ErrNotCorrupt, e.From)
	}
	if e.RemovedFor(to) {
		return ErrRemoved
	}
	if e.removedFor == nil {
		e.removedFor = make(map[types.NodeID]struct{})
	}
	e.removedFor[to] = struct{}{}
	return nil
}

// Inject sends a message on behalf of corrupt node from. To may be
// types.Broadcast. Injection during Setup is not possible (no messages flow
// before round 0).
func (c *Ctx) Inject(from, to types.NodeID, msg wire.Message) error {
	if c.round < 0 {
		return fmt.Errorf("netsim: inject during setup")
	}
	if int(from) < 0 || int(from) >= c.rt.cfg.N {
		return fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	if c.rt.status[from] != types.Corrupt {
		return fmt.Errorf("%w: inject from honest node %d", ErrNotCorrupt, from)
	}
	c.envs = append(c.envs, &Envelope{From: from, To: to, Msg: msg, size: wire.Size(msg)})
	return nil
}
