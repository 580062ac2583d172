package transport

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"ccba/internal/types"
)

// EnvKind tags the role of an envelope inside the cluster protocol.
type EnvKind uint8

// The envelope kinds.
const (
	// EnvData carries one wire-encoded protocol message.
	EnvData EnvKind = 1
	// EnvSync is the per-link round barrier marker: the sender has finished
	// transmitting its round-Round traffic. Halted reports whether the
	// sender's state machine has terminated.
	EnvSync EnvKind = 2
	// EnvResult carries the sender's final per-node result record once the
	// run has ended — the exchange between nodes in separate processes.
	EnvResult EnvKind = 3
	// EnvHello opens a TCP connection: it identifies the dialing node. It
	// never reaches the cluster runtime.
	EnvHello EnvKind = 4
	// EnvBarrier is the chan network's aggregated barrier marker: all n
	// nodes have issued their round-Round EnvSync, Seq of them halted, and
	// Runs holds the round's multicasts. It stands for those n markers and
	// that traffic in one envelope and exists only in process —
	// DecodeEnvelope rejects the kind, so no TCP peer can inject one.
	EnvBarrier EnvKind = 5
)

// Envelope is the unit a Transport carries: one protocol message (or
// synchronizer marker) tagged with its sender, round, and per-sender send
// sequence. The (From, Round, Seq) triple is what lets the cluster runtime
// reassemble the deterministic delivery order of the lockstep engine from
// arbitrarily interleaved live traffic.
type Envelope struct {
	// Kind is the envelope's role.
	Kind EnvKind
	// From is the sending node's index (trusted; see the package comment).
	From types.NodeID
	// Round is the protocol round the envelope belongs to.
	Round uint32
	// Seq numbers the sender's data envelopes within the round, in the order
	// the state machine produced the sends. On an EnvBarrier it is the number
	// of halted nodes among the n the marker stands for.
	Seq uint32
	// Halted is meaningful on EnvSync envelopes: whether the sender's state
	// machine has terminated as of this round.
	Halted bool
	// Payload is the canonical wire encoding (wire.Marshal) of a protocol
	// message for EnvData, a result record for EnvResult, and empty for the
	// marker kinds. Receivers must treat it as read-only: a multicast shares
	// one payload slice across all in-process recipients.
	Payload []byte
	// Cell, when the sender attached one, lets the in-process recipients of
	// one multicast share a single decode of Payload (see Decode). It never
	// crosses a socket: an envelope received over TCP has none.
	Cell *DecodeCell
	// Runs is an EnvBarrier's round log: one run per node that multicast
	// data in the round, each run that node's EnvData envelopes in Seq
	// order, the runs in sender order. Every recipient shares them
	// read-only. They never cross a socket.
	Runs [][]Envelope
}

// Order is the lockstep engine's delivery order of data envelopes: round,
// then sender, then the sender's send sequence. A recipient sorts what it
// received one envelope at a time by it.
func Order(a, b Envelope) int {
	return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.From, b.From), cmp.Compare(a.Seq, b.Seq))
}

// RunsOrder is Order over runs, each one sender's envelopes of one round in
// Seq order, so ordering the runs orders their concatenation.
func RunsOrder(a, b []Envelope) int { return Order(a[0], b[0]) }

// DecodeCell is the once-cell the recipients of one multicast share: the
// first to call Decode parses Payload, the rest reuse its value or its
// error. The zero value is ready to use.
type DecodeCell struct {
	once sync.Once
	val  any
	err  error
}

// Decode returns decode(e.Payload), computed once per Cell. Without a Cell
// every call decodes — the TCP path, and every unicast. The value is always
// the product of decoding the canonical payload bytes, never the sender's
// in-memory message, and recipients sharing a Cell must treat it as
// read-only. All sharers must pass the same decoder.
func Decode[T any](e Envelope, decode func([]byte) (T, error)) (T, error) {
	c := e.Cell
	if c == nil {
		return decode(e.Payload)
	}
	c.once.Do(func() { c.val, c.err = decode(e.Payload) })
	v, _ := c.val.(T) // the zero T when the shared decode failed
	return v, c.err
}

// Transport is one node's endpoint into the cluster: Send and Recv of
// envelopes addressed by node index. Send must be safe for use by the
// node's goroutine while Recv blocks; Recv is single-consumer.
type Transport interface {
	// Self returns the node index this endpoint belongs to.
	Self() types.NodeID
	// N returns the cluster size.
	N() int
	// Send delivers env to node to (to == Self() loops back locally).
	Send(to types.NodeID, env Envelope) error
	// Multicast delivers env to every node, the sender included —
	// equivalent to n Sends, but lets the transport pay per-envelope costs
	// once instead of once per recipient: TCP encodes the frame once, and
	// the chan network hands a whole round over at once — a node's round-r
	// data multicasts join its run, its round-r EnvSync publishes the run,
	// and each node receives one EnvBarrier per round carrying every run
	// instead of n² markers and one envelope per multicast. A node's round-r
	// data multicasts therefore precede its round-r EnvSync, which precedes
	// its round-(r+1) data — the round loop's order anyway.
	Multicast(env Envelope) error
	// Recv blocks until an envelope arrives, the context is cancelled, or
	// the endpoint is closed.
	Recv(ctx context.Context) (Envelope, error)
	// Close releases the endpoint; blocked Recv calls return ErrClosed.
	Close() error
}

// Network is a full set of cluster endpoints, one per node — what
// cluster.Run drives. The chan network always holds all n endpoints; the
// TCP network does too when assembled in one process (tests, smoke runs),
// while a multi-process mesh uses ListenTCP for its single local endpoint
// and cluster.RunNode instead.
type Network interface {
	// N returns the cluster size.
	N() int
	// Endpoints returns the n per-node endpoints, indexed by node.
	Endpoints() []Transport
	// Close closes every endpoint.
	Close() error
}

// Errors returned by transports.
var (
	// ErrClosed reports a Send or Recv on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownNode reports a Send to an out-of-range node index.
	ErrUnknownNode = errors.New("transport: unknown node")
)

// mailbox is an unbounded multi-producer single-consumer envelope queue.
// Unbounded is a correctness choice, not a convenience: a bounded inbox
// could deadlock the round barrier (every node blocked sending into every
// other node's full inbox), and the synchronizer bounds the backlog anyway —
// a peer can run at most one round ahead of the slowest node, so at most two
// rounds of traffic are ever in flight.
type mailbox struct {
	mu     sync.Mutex
	q      []Envelope
	head   int
	closed bool
	// signal has capacity 1: a push makes at most one pending wakeup, and
	// the consumer re-checks the queue under the lock after every wakeup.
	signal chan struct{}
	done   chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{signal: make(chan struct{}, 1), done: make(chan struct{})}
}

// push enqueues env; it reports false when the mailbox is closed.
func (b *mailbox) push(env Envelope) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.q = append(b.q, env)
	b.mu.Unlock()
	select {
	case b.signal <- struct{}{}:
	default:
	}
	return true
}

// pop dequeues the next envelope, blocking until one arrives, ctx is
// cancelled, or the mailbox closes.
func (b *mailbox) pop(ctx context.Context) (Envelope, error) {
	for {
		b.mu.Lock()
		if b.head < len(b.q) {
			env := b.q[b.head]
			b.q[b.head] = Envelope{} // release payload references
			b.head++
			if b.head == len(b.q) {
				b.q = b.q[:0]
				b.head = 0
			}
			b.mu.Unlock()
			return env, nil
		}
		closed := b.closed
		b.mu.Unlock()
		if closed {
			return Envelope{}, ErrClosed
		}
		select {
		case <-b.signal:
		case <-b.done:
		case <-ctx.Done():
			return Envelope{}, ctx.Err()
		}
	}
}

// close marks the mailbox closed and wakes the consumer. Already-queued
// envelopes remain readable until drained.
func (b *mailbox) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
	b.mu.Unlock()
}

// checkAddr validates a destination index against the cluster size.
func checkAddr(to types.NodeID, n int) error {
	if int(to) < 0 || int(to) >= n {
		return fmt.Errorf("%w: send to node %d in a cluster of %d", ErrUnknownNode, to, n)
	}
	return nil
}
