package netsim

import (
	"slices"

	"ccba/internal/types"
	"ccba/internal/wire"
)

// link is one undelivered message copy as the scheduler orders it: its
// (prio, seq) ordering key and the index of the send record it fans out
// from. seq is the global link admission counter, so ties on prio resolve in
// send order and the order is total. The heap holds one link per send in
// flight, the send's least undelivered one. The entry carries no pointer, so
// a sift moves 24 bytes with no write barrier and the collector never scans
// the heap's backing array.
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
// (seq−first)-th live node and is never stored per link. The record's order
// block lists those offsets in (prio, seq) order; a unicast is its own
// one-link run and leaves its block unread.
type sendRec struct {
	first uint64 // seq of the send's first link
	msg   wire.Message
	from  types.NodeID
	to    types.NodeID // the unicast recipient, or types.Broadcast
	left  int32        // links not yet popped
	next  uint32       // the next recycled record while this one is free
}

// noRec ends the recycled-record list.
const noRec = ^uint32(0)

// heapArity is the fan-out of the send heap. Four children per node halves
// the depth of a binary heap while a node's children still share a cache
// line or two, which is what a pop — the sift that walks the whole depth —
// pays for.
const heapArity = 4

// chunkRecs is how many records' order blocks are allocated at a time, and
// the capacity the heap and the send table start at. A chunk is never copied
// as the run grows; at n = 32 it is 256 KiB, and the ACS benchmark's peak of
// ~9.5k sends in flight takes five.
const chunkRecs = 2048

// linkQueue is the event runtime's scheduler state: a k-way merge of the
// sends in flight. A send's links are sorted by (prio, seq) into its order
// block when it is admitted, and a d-ary min-heap holds each send's least
// undelivered link, so the heap is as large as the sends in flight, not their
// fan-out. One structure serves all three SchedModes — the mode only decides
// how a link's prio is derived from its seq — and because (prio, seq) is a
// total order, the pop sequence is a pure function of the admission sequence
// whatever the heap's shape. Send records and their blocks are recycled when
// their last link is popped, so all of it is sized by traffic in flight.
type linkQueue struct {
	n        int
	crashed  []bool         // the crash set; nil means nobody crashed
	live     []types.NodeID // the non-crashed ids, ascending
	sched    SchedMode
	advDelay uint64
	key      uint64 // folded scheduler key
	seq      uint64 // link admission counter
	links    int    // links in flight

	heap  []link // one entry per send in flight
	sends []sendRec
	free  uint32 // head of the recycled-record list, or noRec

	order [][]uint32 // the records' order blocks, chunkRecs to a chunk
	keys  []link     // scratch a multicast's links are sorted in
}

// newLinkQueue builds the queue of an n-node run. crashed is nil or has n
// entries; links to crashed nodes are never admitted.
func newLinkQueue(n int, crashed []bool, sched SchedMode, advDelay int, key uint64) *linkQueue {
	q := &linkQueue{n: n, crashed: crashed, sched: sched, advDelay: uint64(advDelay), key: key, free: noRec}
	q.live = make([]types.NodeID, 0, n)
	for id := 0; id < n; id++ {
		if crashed == nil || !crashed[id] {
			q.live = append(q.live, types.NodeID(id))
		}
	}
	q.keys = make([]link, len(q.live))
	q.heap = make([]link, 0, chunkRecs)
	q.sends = make([]sendRec, 0, chunkRecs)
	return q
}

// len returns the number of links in flight.
func (q *linkQueue) len() int { return q.links }

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
	idx := q.free
	if idx != noRec {
		q.free = q.sends[idx].next
		q.sends[idx] = rec
	} else {
		idx = uint32(len(q.sends))
		q.sends = append(grown(q.sends), rec)
		if idx%chunkRecs == 0 {
			q.order = append(grown(q.order), make([]uint32, chunkRecs*len(q.live)))
		}
	}

	// Sort the links by (prio, seq) with an insertion sort: FIFO keys arrive
	// in order, adversarial-delay keys nearly so, and a random run's are one
	// per live node, few enough that moving them beats a general sort's
	// indirect comparisons.
	keys := q.keys[:links]
	for i := range keys {
		seq := q.seq + uint64(i)
		k := link{prio: q.prio(seq), seq: seq, send: idx}
		j := i
		for ; j > 0 && k.before(keys[j-1]); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	if links > 1 {
		block := q.block(idx)
		for i, k := range keys {
			block[i] = uint32(k.seq - q.seq)
		}
	}
	q.seq += uint64(links)
	q.links += links
	q.push(keys[0])
}

// block returns send record idx's order block: a multicast's link offsets
// (seq − first), sorted by (prio, seq) at admission.
func (q *linkQueue) block(idx uint32) []uint32 {
	w := len(q.live)
	i := int(idx%chunkRecs) * w
	return q.order[idx/chunkRecs][i : i+w]
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

// push sifts one send's head link up from a new leaf.
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
	top := q.heap[0]
	s := &q.sends[top.send]
	from, to, msg = s.from, s.to, s.msg
	if to == types.Broadcast {
		to = q.live[top.seq-s.first]
	}
	q.links--
	if s.left--; s.left > 0 {
		// The send's next link takes its place at the root.
		seq := s.first + uint64(q.block(top.send)[len(q.live)-int(s.left)])
		q.siftDown(link{prio: q.prio(seq), seq: seq, send: top.send})
	} else {
		s.msg = nil // release the message with its last link
		s.next, q.free = q.free, top.send
		last := len(q.heap) - 1
		l := q.heap[last]
		if q.heap = q.heap[:last]; last > 0 {
			q.siftDown(l)
		}
	}
	return from, to, msg
}

// siftDown places l at the root and sifts it down to its place.
func (q *linkQueue) siftDown(l link) {
	h := q.heap
	for i := 0; ; {
		c := heapArity*i + 1
		if c >= len(h) {
			h[i] = l
			return
		}
		m := c
		for j, end := c+1, min(c+heapArity, len(h)); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(l) {
			h[i] = l
			return
		}
		h[i] = h[m]
		i = m
	}
}

// grown returns s with room for one more element, doubling a full slice.
// The queue's slices only ever grow to the run's peak traffic, and append's
// own 1.25× steps would copy — and allocate — five times that peak on the
// way up where doubling copies twice.
func grown[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 64))
}
