package netsim

import (
	"slices"

	"ccba/internal/types"
	"ccba/internal/wire"
)

// link is one undelivered message copy as the scheduler holds it: its
// (prio, seq) ordering key and the index of the send record it fans out
// from. seq is the global link admission counter, so ties on prio resolve in
// send order and the order is total. The entry carries no pointer, so a sift
// moves 24 bytes with no write barrier and the collector never scans the
// heap's backing array.
type link struct {
	prio uint64
	seq  uint64
	send uint32
}

// before reports whether a is delivered ahead of b.
func (a link) before(b link) bool {
	return a.prio < b.prio || (a.prio == b.prio && a.seq < b.seq)
}

// sendRec is one admitted Send, stored once however many links it fans out
// into. A multicast's links take the consecutive seqs first, first+1, …, one
// per live node in ascending id order, so a link's recipient is the
// (seq−first)-th live node and is never stored per link.
type sendRec struct {
	first uint64 // seq of the send's first link
	msg   wire.Message
	from  types.NodeID
	to    types.NodeID // the unicast recipient, or types.Broadcast
	left  int32        // links not yet popped
}

// heapArity is the fan-out of the link heap. Four children per node halves
// the depth of a binary heap while a node's children still share a cache
// line or two, which is what a pop — the sift that walks the whole depth —
// pays for.
const heapArity = 4

// linkQueue is the event runtime's scheduler state: a d-ary min-heap of
// links ordered by (prio, seq) over a table of the sends they came from.
// One structure serves all three SchedModes — the mode only decides how a
// link's prio is derived from its seq — and because (prio, seq) is a total
// order, the pop sequence is a pure function of the admission sequence
// whatever the heap's shape. Send records are recycled when their last link
// is popped, so both slices are sized by traffic in flight, not run length.
type linkQueue struct {
	n        int
	crashed  []bool         // the crash set; nil means nobody crashed
	live     []types.NodeID // the non-crashed ids, ascending
	sched    SchedMode
	advDelay uint64
	key      uint64 // folded scheduler key
	seq      uint64 // link admission counter

	heap  []link
	sends []sendRec
	free  []uint32 // recycled sends indices
}

// newLinkQueue builds the queue of an n-node run. crashed is nil or has n
// entries; links to crashed nodes are never admitted.
func newLinkQueue(n int, crashed []bool, sched SchedMode, advDelay int, key uint64) *linkQueue {
	q := &linkQueue{n: n, crashed: crashed, sched: sched, advDelay: uint64(advDelay), key: key}
	q.live = make([]types.NodeID, 0, n)
	for id := 0; id < n; id++ {
		if crashed == nil || !crashed[id] {
			q.live = append(q.live, types.NodeID(id))
		}
	}
	return q
}

// len returns the number of links in flight.
func (q *linkQueue) len() int { return len(q.heap) }

// admit schedules one send from node from: a multicast becomes one link per
// live node (sender included), a unicast one link. Sends that reach nobody —
// a unicast to a crashed or out-of-range node — consume no seq and leave no
// record: a crashed node receives nothing, and skipping the admission keeps
// the queue traffic-sized.
func (q *linkQueue) admit(from types.NodeID, s Send) {
	links := 1
	switch {
	case s.To == types.Broadcast:
		links = len(q.live)
	case int(s.To) < 0 || int(s.To) >= q.n || (q.crashed != nil && q.crashed[s.To]):
		return
	}
	rec := sendRec{first: q.seq, msg: s.Msg, from: from, to: s.To, left: int32(links)}
	var idx uint32
	if k := len(q.free); k > 0 {
		idx = q.free[k-1]
		q.free = q.free[:k-1]
		q.sends[idx] = rec
	} else {
		idx = uint32(len(q.sends))
		q.sends = append(grown(q.sends), rec)
	}
	for ; links > 0; links-- {
		q.push(link{prio: q.prio(q.seq), seq: q.seq, send: idx})
		q.seq++
	}
}

// prio derives a link's priority from its admission seq. FIFO priorities
// are the admission order itself; random priorities are a seeded hash of
// it; the adversarial mode holds a seeded three-in-four fraction of links
// back by advDelay positions. Every priority is finite, so delivery is
// eventually guaranteed and the schedule is a pure function of the run seed.
func (q *linkQueue) prio(seq uint64) uint64 {
	switch q.sched {
	case SchedRandom:
		return Mix64(q.key ^ seq)
	case SchedAdvDelay:
		if Mix64(q.key^seq)&3 != 0 {
			return seq + q.advDelay
		}
	}
	return seq
}

// push sifts one link up from a new leaf.
func (q *linkQueue) push(l link) {
	q.heap = append(grown(q.heap), l)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !l.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = l
}

// pop removes the (prio, seq)-least link and returns it materialised. The
// queue must be non-empty.
func (q *linkQueue) pop() (from, to types.NodeID, msg wire.Message) {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	l := h[last]
	h = h[:last]
	q.heap = h
	// Sift the former last leaf down from the root.
	for i := 0; last > 0; {
		c := heapArity*i + 1
		if c >= last {
			h[i] = l
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, last); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(l) {
			h[i] = l
			break
		}
		h[i] = h[m]
		i = m
	}

	s := &q.sends[top.send]
	from, to, msg = s.from, s.to, s.msg
	if to == types.Broadcast {
		to = q.live[top.seq-s.first]
	}
	if s.left--; s.left == 0 {
		s.msg = nil // release the message with its last link
		q.free = append(q.free, top.send)
	}
	return from, to, msg
}

// grown returns s with room for one more element, doubling a full slice.
// Both queue slices only ever grow to the run's peak traffic, and append's
// own 1.25× steps would copy — and allocate — five times that peak on the
// way up where doubling copies twice.
func grown[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 64))
}
