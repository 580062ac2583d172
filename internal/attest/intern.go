package attest

import (
	"bytes"
	"sync"
	"sync/atomic"

	"ccba/internal/types"
)

// Interner is a per-run intern table for attestation-set state
// (DESIGN.md §6). Under the passive lockstep schedule every forever-honest
// node receives the identical multicast traffic, so every node's vote and
// commit sets walk the identical sequence of states; storing that sequence
// once and handing each node a handle drops the protocol-state
// term from O(n·committee) to O(committee) per iteration. A node that
// would mutate a state other nodes still share never mutates in place:
// each Add is a transition to an immutable successor state, recorded in
// the table so every follower performing the same transition lands on the
// same handle (copy-on-divergence). Divergent traffic — adversarial
// unicasts, per-recipient removals — simply forks the transition graph:
// each divergent node pays for its own states, degrading gracefully to
// today's per-node copies while identical nodes keep sharing.
//
// Interned states are immutable once published, so certificates cut from
// them alias the shared backing array instead of copying per node.
//
// The table is safe for concurrent use: the round engine's shards advance
// handles from several worker goroutines at once,
// once per delivered attestation, so the path every such Add takes — the
// transition is already recorded — writes nothing another shard reads.
// States are immutable once published, and almost every state has exactly
// one successor, so that successor hangs off the state as an atomic pointer
// and a hit is one atomic load and a proof compare. Only recording a new
// transition takes the lock, and only a state's second and later
// successors (forks) live in the locked map. The hit counter is not on the
// table either: see hitBlock.
//
// State identity under concurrency is best-effort (two workers racing the
// same first-ever transition both take the write path; the second finds
// the first's state), but state *content* is a pure function of the add
// sequence, so execution results are bit-identical for every worker count.
type Interner struct {
	mu   sync.RWMutex
	root *sharedAtts

	// Stats counters, guarded by mu.
	states int
	clones int
	forks  int

	// cur is the hitBlock Hits is handing out, the head of the list of all
	// of them; replaced under mu.
	cur atomic.Pointer[hitBlock]
}

// bindsPerHitBlock is how many consecutive Hits (or Bind) calls count their
// hits on one hitBlock; BindTo takes no place. A node takes one place at
// construction and binds every set — then or later — to it, so a block
// spans 64 nodes: small enough that engine shards (contiguous id
// ranges, nodes built in id order) own their blocks outright except for the
// one straddling a shard boundary, large enough that the blocks cost two
// bytes per node.
const bindsPerHitBlock = 64

// hitBlock is what a bound Set holds in place of the *Interner: the table,
// plus the hit counter of its block of Sets on a cache line of its own, so
// counting a hit does not pull a line every shard writes. Stats sums the
// blocks.
type hitBlock struct {
	table *Interner
	hits  atomic.Int64
	bound atomic.Int32 // Bind calls on this block; may overshoot once full
	prev  *hitBlock    // the block handed out before this one
	_     [128 - 32]byte
}

// sharedAtts is one immutable interned state: an attestation sequence plus
// the transitions out of it. A state no Set holds any more stays in the
// table, because its memory is bounded by the distinct add-sequences of the
// run (O(committee²) per iteration under honest-identical traffic) and a
// later follower may still want the recorded transition. An owned-mode Set
// keeps its private, mutable sequence in one too, outside any table, and
// records no transition.
type sharedAtts struct {
	atts []Attestation
	// first is the first transition recorded out of this state, read
	// without the lock; it is stored once, under Interner.mu, after the
	// successor is complete.
	first atomic.Pointer[sharedAtts]
	// forks holds the transitions recorded after first, keyed by the added
	// node id; the (rare) case of two distinct proofs for one id — which a
	// shared table spanning several tags can produce — is a short list
	// disambiguated by proof bytes. Guarded by Interner.mu.
	forks map[types.NodeID][]*sharedAtts
}

// adds reports whether st is the state reached by adding (id, proof) to its
// predecessor.
func (st *sharedAtts) adds(id types.NodeID, proof []byte) bool {
	last := &st.atts[len(st.atts)-1]
	return last.ID == id && bytes.Equal(last.Proof, proof)
}

// NewInterner constructs an empty per-run intern table.
func NewInterner() *Interner {
	return &Interner{root: &sharedAtts{}}
}

// InternStats is the table's telemetry, for budget tests, the
// copy-on-divergence assertions, and the run reports (scenario, cmd/ba).
// The counters are deterministic per (config, seed) — the
// double-checked insert in record makes them schedule-independent — so
// reports that embed them stay byte-diffable across worker counts.
type InternStats struct {
	// States is the number of interned states created (the empty root is
	// not counted).
	States int `json:"states"`
	// Clones counts copy-on-divergence clones; every state is cloned from
	// its predecessor exactly once, so this always equals States.
	Clones int `json:"clones"`
	// Hits counts Adds resolved to an already-recorded successor — the
	// sharing the table exists for.
	Hits int64 `json:"hits"`
	// Forks counts states that acquired a second distinct successor: the
	// moments node histories actually diverged.
	Forks int `json:"forks"`
}

// Stats returns a snapshot of the table's counters.
func (in *Interner) Stats() InternStats {
	in.mu.RLock()
	defer in.mu.RUnlock()
	st := InternStats{States: in.states, Clones: in.clones, Forks: in.forks}
	for b := in.cur.Load(); b != nil; b = b.prev {
		st.Hits += b.hits.Load()
	}
	return st
}

// recorded returns the successor already recorded out of h for
// (id, proof), or nil. It takes no write lock: first is an atomic load, and
// the forks map is read under the read lock.
func (in *Interner) recorded(h *sharedAtts, id types.NodeID, proof []byte) *sharedAtts {
	first := h.first.Load()
	if first == nil {
		return nil
	}
	if first.adds(id, proof) {
		return first
	}
	in.mu.RLock()
	next := findFork(h.forks[id], id, proof)
	in.mu.RUnlock()
	return next
}

// record resolves the transition state --Add(id, proof)--> successor under
// the write lock, recording and cloning it unless another worker recorded
// it since the caller's unlocked look. hit reports that it had.
func (in *Interner) record(h *sharedAtts, id types.NodeID, proof []byte) (next *sharedAtts, hit bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	first := h.first.Load()
	if first != nil {
		if first.adds(id, proof) {
			return first, true
		}
		if next := findFork(h.forks[id], id, proof); next != nil {
			return next, true
		}
	}
	// Copy-on-divergence: the successor is a fresh immutable state; h's
	// attestations are never touched, so every Set still holding h is
	// unaffected.
	atts := make([]Attestation, len(h.atts)+1)
	copy(atts, h.atts)
	atts[len(h.atts)] = Attestation{ID: id, Proof: proof}
	next = &sharedAtts{atts: atts}
	if first == nil {
		h.first.Store(next)
	} else {
		if h.forks == nil {
			// The transition that gives a state its second successor is
			// a divergence fork.
			in.forks++
			h.forks = make(map[types.NodeID][]*sharedAtts, 1)
		}
		h.forks[id] = append(h.forks[id], next)
	}
	in.states++
	in.clones++
	return next, false
}

// findFork scans a (nearly always length-one) successor list for the state
// that adds exactly (id, proof).
func findFork(list []*sharedAtts, id types.NodeID, proof []byte) *sharedAtts {
	for _, st := range list {
		if st.adds(id, proof) {
			return st
		}
	}
	return nil
}

// Bind switches an empty Set to interned mode: its state becomes a handle
// into in's transition graph, starting at the shared empty root, and its
// hits count on the hit block Bind is currently handing out. Binding a
// non-empty or already-bound set panics — interning is a construction-time
// decision, not a migration.
func (s *Set) Bind(in *Interner) {
	if in == nil {
		return
	}
	s.mustBeFresh()
	s.BindTo(in.Hits())
}

// Hits is where a group of Sets counts its interned hits: one place on one
// of a table's hit blocks. A node takes one and binds every set it owns to
// it, including sets it creates while stepping: those are bound from
// whichever shard steps the node, so drawing each from the table's current
// block would have several shards counting hits on one cache line. The
// zero value is owned mode: sets bound to it stay owned.
type Hits struct{ b *hitBlock }

// Hits takes a place on the hit block the table is handing out, as Bind
// does; a nil table gives the zero Hits.
func (in *Interner) Hits() Hits {
	if in == nil {
		return Hits{}
	}
	b := in.cur.Load()
	if b == nil || b.bound.Add(1) > bindsPerHitBlock {
		b = in.nextBlock()
	}
	return Hits{b}
}

// BindTo switches an empty Set to interned mode on h's table, counting its
// hits on h's block and taking no further place on it; under the zero Hits
// s stays owned. Binding a non-empty or already-bound set panics, as in
// Bind.
func (s *Set) BindTo(h Hits) {
	if h.b == nil {
		return
	}
	s.mustBeFresh()
	s.in, s.h = h.b, h.b.table.root
}

// Count adds k hits to h's block: the Adds of a transition h's owner took
// by adopting the state another owner reached with the same Adds from the
// same state. Every one of those Adds would have hit the transitions the
// other owner recorded, so the table's Hits stay what performing them would
// have counted. h must not be the zero Hits.
func (h Hits) Count(k int64) {
	if k != 0 {
		h.b.hits.Add(k)
	}
}

func (s *Set) mustBeFresh() {
	if s.in != nil || s.Count() != 0 {
		panic("attest: Bind on a non-empty or already-interned Set")
	}
}

// nextBlock takes a place for one Set on a fresh hit block — the one
// another binder just opened, if it got here first.
func (in *Interner) nextBlock() *hitBlock {
	in.mu.Lock()
	defer in.mu.Unlock()
	b := in.cur.Load()
	if b == nil || b.bound.Add(1) > bindsPerHitBlock {
		b = &hitBlock{table: in, prev: b}
		b.bound.Store(1)
		in.cur.Store(b)
	}
	return b
}

// Interned reports whether the set holds interned shared state.
func (s *Set) Interned() bool { return s.in != nil }

// SharesStorageWith reports whether two interned sets currently hold the
// same shared state handle — the property the copy-on-divergence tests
// assert forks exactly at the first divergent mutation.
func (s *Set) SharesStorageWith(o *Set) bool {
	return s.in != nil && s.h == o.h
}

// addInterned is Add in interned mode: a transition to the successor
// state, shared with every other set that performed the same sequence.
//
// A recorded transition is tried first. The successor adding (id, proof)
// out of a state exists only if some Add of id to that state found id
// absent, so a hit is a valid Add without the duplicate scan; only a miss
// pays the O(committee) scan before recording.
func (s *Set) addInterned(id types.NodeID, proof []byte) bool {
	table := s.in.table
	if next := table.recorded(s.h, id, proof); next != nil {
		s.in.hits.Add(1)
		s.h = next
		return true
	}
	for i := range s.h.atts {
		if s.h.atts[i].ID == id {
			return false
		}
	}
	next, hit := table.record(s.h, id, proof)
	if hit {
		s.in.hits.Add(1)
	}
	s.h = next
	return true
}

// Copy sets s to o's current content and makes it count its hits on h's
// block. o must be interned and h bound: s takes o's state handle, which is
// immutable, so nothing is copied. This is how a core node forks its own
// state off the frozen one a whole state class shares.
func (s *Set) Copy(o *Set, h Hits) { s.in, s.h = h.b, o.h }

// CountsOn reports whether s counts its hits on h's block.
func (s *Set) CountsOn(h Hits) bool { return s.in != nil && s.in == h.b }

// resetInterned rebinds the empty root, recycling the set for the next
// iteration window.
func (s *Set) resetInterned() { s.h = s.in.table.root }
