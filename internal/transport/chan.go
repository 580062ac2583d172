package transport

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"ccba/internal/types"
)

// ChanNetwork is the in-process transport: n endpoints, one unbounded
// mailbox each, no sockets. Envelopes are handed over as values (payload
// bytes and decode cell shared, never copied) — the transport itself adds no
// scheduling freedom beyond goroutine interleaving, which the cluster
// synchronizer already absorbs.
//
// A round moves as one log, not as envelopes. A data multicast is not fanned
// out: it is appended to the sender's own run for its round. A multicast
// EnvSync arrives at a tally the endpoints share and publishes that run to
// the round's log, and the arrival that completes a round pushes one
// EnvBarrier into each mailbox carrying the whole log (Envelope.Runs) — n
// envelopes per round where per-link delivery costs n per multicast and n²
// markers. Unicasts and result records still go through the mailboxes.
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
// sync marker, and keeps the round's log of published runs. A round opens
// with its first arrival and is deleted by its n-th, so under the all-ack
// barrier the map holds at most two rounds.
type barrierTally struct {
	mu   sync.Mutex
	n    int
	open map[uint32]*barrierRound
}

type barrierRound struct {
	arrived       []uint64 // n-bit set of the nodes whose sync is in
	count, halted int
	// log holds one run per node that multicast data this round, in the
	// order their syncs arrived.
	log [][]Envelope
}

// arrive records node from's round sync and publishes its run of round
// multicasts. The arrival that completes the round reports done, with the
// round's log and the number of halted nodes among the n.
func (t *barrierTally) arrive(from types.NodeID, round uint32, halted bool, run []Envelope) (log [][]Envelope, haltedCount int, done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	br := t.open[round]
	if br == nil {
		br = &barrierRound{arrived: make([]uint64, (t.n+63)/64)}
		t.open[round] = br
	}
	word, bit := int(from)/64, uint64(1)<<(uint(from)%64)
	if br.arrived[word]&bit != 0 {
		return nil, 0, false, fmt.Errorf("transport: node %d issued its round-%d sync twice", from, round)
	}
	br.arrived[word] |= bit
	br.count++
	if halted {
		br.halted++
	}
	if len(run) > 0 {
		br.log = append(br.log, run)
	}
	if br.count < t.n {
		return nil, 0, false, nil
	}
	delete(t.open, round)
	return br.log, br.halted, true, nil
}

// bySender orders the runs of one round log by sender — the lockstep
// engine's (sender, seq) order, since each run is in seq order already.
func bySender(a, b []Envelope) int { return cmp.Compare(a[0].From, b[0].From) }

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

// chanEndpoint is one node's view of a ChanNetwork. Its run belongs to the
// node's sending goroutine.
type chanEndpoint struct {
	self  types.NodeID
	boxes []*mailbox
	tally *barrierTally
	// run is this node's unpublished data multicasts, all of one round, in
	// seq order; the node's sync for that round publishes it.
	run []Envelope
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

// Multicast implements Transport. Neither kind the round loop multicasts
// is fanned out. An EnvData is appended to the sender's run for its round.
// An EnvSync arrives at the shared tally, publishing that run to the round's
// log, and the n-th arrival of a round multicasts the one EnvBarrier that
// stands for all n markers and carries the log. The data travels inside the
// marker, so in every mailbox the round-r marker holds every round-r
// multicast — what n per-link FIFO markers guaranteed, by construction. Any
// other kind (EnvResult) is pushed into every mailbox, sharing one payload
// slice and decode cell.
func (e *chanEndpoint) Multicast(env Envelope) error {
	switch env.Kind {
	case EnvData, EnvSync:
		if len(e.run) > 0 && e.run[0].Round != env.Round {
			return fmt.Errorf("transport: node %d multicast a round-%d envelope before its round-%d sync", e.self, env.Round, e.run[0].Round)
		}
		if env.Kind == EnvData {
			e.run = append(e.run, env)
			return nil
		}
		run := e.run
		e.run = nil
		log, halted, done, err := e.tally.arrive(e.self, env.Round, env.Halted, run)
		if err != nil || !done {
			return err
		}
		// The barrier's log is sorted once here instead of by each of the n
		// recipients. The tally has let go of it, so it is sorted in place.
		slices.SortFunc(log, bySender)
		env = Envelope{Kind: EnvBarrier, From: e.self, Round: env.Round, Seq: uint32(halted), Runs: log}
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
