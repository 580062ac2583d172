package transport

import (
	"context"
	"fmt"
	"sync"

	"ccba/internal/types"
)

// ChanNetwork is the in-process transport: n endpoints, one unbounded
// mailbox each, no sockets. Envelopes are handed over as values (payload
// bytes and decode cell shared, never copied), so the only cost per link is
// a queue append — the transport itself adds no scheduling freedom beyond
// goroutine interleaving, which the cluster synchronizer already absorbs.
//
// The round barrier is the one envelope kind the network does not fan out:
// a multicast EnvSync arrives at a tally the endpoints share, and the
// arrival that completes a round pushes one EnvBarrier into each mailbox —
// n envelopes per round where per-link markers would be n². The tally only
// sees multicasts, so the endpoints of one ChanNetwork are chaos-wrapped
// all (NewChaosNetwork, whose per-link Sends bypass it and keep per-link
// markers) or none. WrapChaos refuses a lone chan endpoint, which would
// never arrive and would leave the others' barrier incomplete forever.
type ChanNetwork struct {
	eps []Transport
}

// NewChanNetwork builds the in-process network for an n-node cluster.
func NewChanNetwork(n int) (*ChanNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: chan network needs n ≥ 1, got %d", n)
	}
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	tally := &barrierTally{n: n, open: map[uint32]*barrierRound{}}
	net := &ChanNetwork{eps: make([]Transport, n)}
	for i := range net.eps {
		net.eps[i] = &chanEndpoint{self: types.NodeID(i), boxes: boxes, tally: tally}
	}
	return net, nil
}

// N implements Network.
func (c *ChanNetwork) N() int { return len(c.eps) }

// Endpoints implements Network.
func (c *ChanNetwork) Endpoints() []Transport { return c.eps }

// Close implements Network.
func (c *ChanNetwork) Close() error {
	for _, ep := range c.eps {
		ep.Close()
	}
	return nil
}

// barrierTally counts, per open round, which nodes have multicast their
// sync marker. A round opens with its first arrival and is deleted by its
// n-th, so the map holds as many rounds as the synchronizer lets a peer
// lead by, plus one: two under the all-ack barrier.
type barrierTally struct {
	mu   sync.Mutex
	n    int
	open map[uint32]*barrierRound
}

type barrierRound struct {
	arrived       []uint64 // n-bit set of the nodes whose sync is in
	count, halted int
}

// arrive records node from's round sync. The arrival that completes the
// round reports done, with the number of halted nodes among the n.
func (t *barrierTally) arrive(from types.NodeID, round uint32, halted bool) (haltedCount int, done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	br := t.open[round]
	if br == nil {
		br = &barrierRound{arrived: make([]uint64, (t.n+63)/64)}
		t.open[round] = br
	}
	word, bit := int(from)/64, uint64(1)<<(uint(from)%64)
	if br.arrived[word]&bit != 0 {
		return 0, false, fmt.Errorf("transport: node %d issued its round-%d sync twice", from, round)
	}
	br.arrived[word] |= bit
	br.count++
	if halted {
		br.halted++
	}
	if br.count < t.n {
		return 0, false, nil
	}
	delete(t.open, round)
	return br.halted, true, nil
}

// missing lists the nodes whose round sync has not arrived, or nil when the
// round is not open (nobody has arrived yet, or everybody has).
func (t *barrierTally) missing(round uint32) []types.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	br := t.open[round]
	if br == nil {
		return nil
	}
	var ids []types.NodeID
	for i := 0; i < t.n; i++ {
		if br.arrived[i/64]&(1<<(uint(i)%64)) == 0 {
			ids = append(ids, types.NodeID(i))
		}
	}
	return ids
}

// chanEndpoint is one node's view of a ChanNetwork.
type chanEndpoint struct {
	self  types.NodeID
	boxes []*mailbox
	tally *barrierTally
}

var _ Transport = (*chanEndpoint)(nil)

// Self implements Transport.
func (e *chanEndpoint) Self() types.NodeID { return e.self }

// N implements Transport.
func (e *chanEndpoint) N() int { return len(e.boxes) }

// Send implements Transport. A unicast EnvSync is an ordinary per-link
// marker: only Multicast goes through the tally.
func (e *chanEndpoint) Send(to types.NodeID, env Envelope) error {
	if err := checkAddr(to, len(e.boxes)); err != nil {
		return err
	}
	if !e.boxes[to].push(env) {
		return fmt.Errorf("%w: node %d", ErrClosed, to)
	}
	return nil
}

// Multicast implements Transport. Every recipient's queue entry shares the
// same payload slice and decode cell; nothing is encoded or copied. An
// EnvSync is not fanned out at all: it arrives at the shared tally, and the
// n-th arrival of a round multicasts the one EnvBarrier that stands for all
// n markers. Each node pushes its round-r data before it arrives and the
// EnvBarrier is pushed after the last arrival, so in every mailbox every
// round-r envelope precedes the round-r marker — what n per-link FIFO
// markers guaranteed.
func (e *chanEndpoint) Multicast(env Envelope) error {
	if env.Kind == EnvSync {
		halted, done, err := e.tally.arrive(e.self, env.Round, env.Halted)
		if err != nil || !done {
			return err
		}
		env = Envelope{Kind: EnvBarrier, From: e.self, Round: env.Round, Seq: uint32(halted)}
	}
	for to := range e.boxes {
		if !e.boxes[to].push(env) {
			return fmt.Errorf("%w: node %d", ErrClosed, to)
		}
	}
	return nil
}

// BarrierMissing lists the nodes that have not yet multicast their round
// sync — the question a runner stuck at that barrier wants answered. It
// returns nil when the round is not open in the tally.
func (e *chanEndpoint) BarrierMissing(round uint32) []types.NodeID {
	return e.tally.missing(round)
}

// Recv implements Transport.
func (e *chanEndpoint) Recv(ctx context.Context) (Envelope, error) {
	return e.boxes[e.self].pop(ctx)
}

// Close implements Transport.
func (e *chanEndpoint) Close() error {
	e.boxes[e.self].close()
	return nil
}
