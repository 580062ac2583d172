package fmine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ccba/internal/crypto/prf"
	"ccba/internal/types"
)

// CommitteeProb is the per-node success probability for committee messages:
// λ/n, so that each committee is λ-sized in expectation (§3.2).
func CommitteeProb(n, lambda int) float64 {
	if n <= 0 {
		return 0
	}
	p := float64(lambda) / float64(n)
	if p > 1 {
		return 1
	}
	return p
}

// LeaderProb is the success probability for a proposal: 1/(2n), so that on
// average one node is elected leader every two iterations (§3.2).
func LeaderProb(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 1 / (2 * float64(n))
}

// Tag identifies a mining target. Domain separates protocols, Type is the
// protocol-local message type, Iter the epoch/iteration, and Bit the bit
// being endorsed (NoBit for messages that are not bit-specific — used only
// by the Chen–Micali-style ablation, which is exactly the design the paper's
// §3.3 Remark proves insecure).
type Tag struct {
	Domain string
	Type   uint8
	Iter   uint32
	Bit    types.Bit
}

// Encode returns the canonical byte encoding of the tag.
func (t Tag) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, len(t.Domain)+10))
}

// AppendEncode appends the canonical byte encoding of the tag to dst (the
// wire package's U32 length, the domain, U8 type, U32 iteration, Bit), so
// hot paths can encode into a reused or stack buffer instead of allocating
// per evaluation. It appends to the slice itself rather than through a
// wire.Writer: a store through the Writer's pointer would move a caller's
// stack buffer to the heap.
func (t Tag) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Domain)))
	dst = append(dst, t.Domain...)
	dst = append(dst, t.Type)
	dst = binary.BigEndian.AppendUint32(dst, t.Iter)
	return append(dst, byte(t.Bit))
}

// tagKey is the comparable form of a Tag, used as a map key on the hot
// mine/verify paths: key construction is allocation-free, unlike encoding
// the tag to bytes and interning it as a string.
type tagKey struct {
	domain string
	typ    uint8
	iter   uint32
	bit    types.Bit
}

func (t Tag) key() tagKey {
	return tagKey{domain: t.Domain, typ: t.Type, iter: t.Iter, bit: t.Bit}
}

// String implements fmt.Stringer for diagnostics.
func (t Tag) String() string {
	return fmt.Sprintf("%s/T%d/r%d/b%s", t.Domain, t.Type, t.Iter, t.Bit)
}

// ProbFunc maps a tag to its mining success probability — the paper's
// P : {0,1}* → [0,1] from Figure 1. Protocols install, e.g., λ/n for
// committee messages and 1/(2n) for proposals.
type ProbFunc func(Tag) float64

// Miner is one node's private mining capability. The adversary obtains a
// node's Miner only by corrupting it.
type Miner interface {
	// Mine attempts to mine a ticket for tag. It returns the ticket proof
	// and whether the attempt succeeded. Repeating an attempt returns the
	// memoised result (Figure 1: coins are stored).
	Mine(tag Tag) (proof []byte, ok bool)
	// ID returns the identity this miner mines for.
	ID() types.NodeID
}

// Verifier checks mined tickets; it is public knowledge.
type Verifier interface {
	// Verify reports whether node id holds a valid ticket for tag.
	Verify(tag Tag, id types.NodeID, proof []byte) bool
}

// Suite bundles the per-node miners and the shared verifier for one
// execution.
type Suite interface {
	Miner(id types.NodeID) Miner
	Verifier() Verifier
	// ProofSize returns the ticket proof length in bytes, for
	// communication-complexity accounting.
	ProofSize() int
}

// ---------------------------------------------------------------------------
// Ideal functionality (Figure 1)

// IdealProofSize is the ticket size in the hybrid world: the 32-byte coin
// value ρ. (The real world replaces it with a 64-byte VRF proof.)
const IdealProofSize = prf.OutputSize

// Ideal is the F_mine ideal functionality. It is safe for concurrent use,
// and neither mine nor verify writes to memory another goroutine reads on
// its hit path: a simulation verifies every delivered ticket once per
// simulated receiver, from every engine shard at once.
//
// The table stores only *successful* attempts, as the ticket bytes handed
// out for them. That is Figure 1 exactly, not an approximation of it: the
// coin for (tag, id) is derived deterministically from the hidden PRF key,
// so Mine answers a repeated attempt identically with or without a memo,
// and verify(tag, id, proof) is (mined ∧ coin-below-difficulty ∧
// proof-matches) — for a failed attempt the difficulty conjunct is false
// whether or not the attempt is remembered. Every node attempts to mine
// every round, so remembering failures would grow the table as
// O(n · rounds); successes number O(committee) per round.
//
// The table is indexed by eight bytes of the ticket itself (ticketIndex),
// not by a hash of (tag, id): a ticket is a PRF output, so those bytes are
// already uniform, and verify is handed the ticket. The index only finds
// candidates — every entry records the (tag, id) it was mined for and all
// 32 ticket bytes, and verify compares all three, so a presented proof is
// accepted exactly when that node mined exactly those bytes for exactly
// that tag. Entries are write-once and never removed, so readers need no
// lock: a lookup is atomic loads only (see ticketTable).
type Ideal struct {
	prob ProbFunc

	// tickets is the current table of every Coin[m, i] that succeeded.
	// Mine returns the stored entry's bytes on every repeat: committee
	// members re-attempt their round tags, and a fresh copy per attempt
	// would cost one allocation per member per round. Tickets are
	// immutable by contract (they are message payloads).
	tickets atomic.Pointer[ticketTable]
	// storeMu serialises the writers: first successes, O(committee) a round.
	storeMu sync.Mutex

	// hidden is the trusted party's coin source; it never leaves f.
	hidden prf.State

	// miners is the directory of the Miner values Miner hands out, one
	// chunk per minerChunkLen consecutive ids, each allocated on the first
	// request for one of its ids: a Miner is a pointer into its chunk, so
	// handing one out allocates nothing. Chunks are write-once; minersMu
	// serialises adding one, and growing the directory replaces it.
	miners   atomic.Pointer[[]atomic.Pointer[minerChunk]]
	minersMu sync.Mutex
}

// minerChunkLen is how many consecutive ids share one allocation of
// miners: a node's miner then costs what a boxed one did, without an
// allocation per call.
const minerChunkLen = 64

type minerChunk [minerChunkLen]idealMiner

// ticketEntry is one successful Coin[m, i] cell of Figure 1: the attempt it
// belongs to and the ticket handed out for it, in one object so a success
// costs one allocation. Immutable.
type ticketEntry struct {
	tag    Tag
	id     types.NodeID
	ticket prf.Output
}

// ticketTable is an insert-only open-addressed hash table: an entry sits in
// the first free slot at or after its index (linear probing, power-of-two
// size, at most half full). A slot goes from nil to its entry once and
// never changes again, so a reader probing with atomic loads sees each
// entry either fully or not yet. Growing builds a larger table and swaps
// Ideal.tickets; a reader still probing the old one sees everything stored
// before the swap, which is all a concurrent lookup may rely on.
type ticketTable struct {
	slots []atomic.Pointer[ticketEntry]
	used  int // guarded by Ideal.storeMu
}

// ticketIndex is the table index of a full-length ticket: bytes 8..16.
// Bytes 0..8 are the ones the difficulty test constrains (every stored
// ticket has them below the threshold), so they are not uniform over the
// table's contents; the rest of a PRF output is.
func ticketIndex(ticket []byte) uint64 {
	return binary.LittleEndian.Uint64(ticket[8:16])
}

// minTicketSlots is the initial table size; a power of two.
const minTicketSlots = 64

// insert places e in the first free slot of its probe sequence.
func (t *ticketTable) insert(e *ticketEntry) {
	mask := uint64(len(t.slots) - 1)
	i := ticketIndex(e.ticket[:]) & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
	t.used++
}

// NewIdeal constructs the functionality with a seeded coin source.
func NewIdeal(seed [32]byte, prob ProbFunc) *Ideal {
	f := &Ideal{prob: prob, hidden: prf.NewState(prf.DeriveKey(prf.Key(seed), "fmine/ideal"))}
	f.tickets.Store(&ticketTable{slots: make([]atomic.Pointer[ticketEntry], minTicketSlots)})
	return f
}

// evalCoin computes the Bernoulli coin for (tag, id). Deriving it from a
// hidden PRF key is equivalent to flipping and storing a fresh coin on first
// use, and keeps executions reproducible. The coin input is the canonical
// NodeID ‖ tag encoding, so coin values are bit-identical to earlier
// revisions for the same seed. The evaluator is an immutable value, so the
// n evaluations of a round run on every engine shard at once with no lock;
// the encoding goes to a stack buffer (a domain too long for it spills to
// the heap, which no protocol's does).
func (f *Ideal) evalCoin(tag Tag, id types.NodeID) prf.Output {
	var buf [64]byte
	in := binary.BigEndian.AppendUint32(buf[:0], uint32(id)) // wire's NodeID
	return f.hidden.Eval(tag.AppendEncode(in))
}

// lookup returns the stored entry for (tag, id, ticket), if that attempt
// succeeded with exactly those bytes. ticket must be full-length.
func (f *Ideal) lookup(tag Tag, id types.NodeID, ticket []byte) *ticketEntry {
	t := f.tickets.Load()
	mask := uint64(len(t.slots) - 1)
	for i := ticketIndex(ticket) & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if string(e.ticket[:]) == string(ticket) && e.id == id && e.tag == tag {
			return e
		}
	}
}

// store publishes e and returns the entry that now records its attempt: e
// itself, or the one a concurrent mine of the same (tag, id) published
// first (the PRF is deterministic, so both hold identical bytes).
func (f *Ideal) store(e *ticketEntry) *ticketEntry {
	f.storeMu.Lock()
	defer f.storeMu.Unlock()
	if prior := f.lookup(e.tag, e.id, e.ticket[:]); prior != nil {
		return prior
	}
	t := f.tickets.Load()
	if 2*(t.used+1) > len(t.slots) {
		grown := &ticketTable{slots: make([]atomic.Pointer[ticketEntry], 2*len(t.slots))}
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				grown.insert(old)
			}
		}
		f.tickets.Store(grown)
		t = grown
	}
	t.insert(e)
	return e
}

// mine returns node id's ticket for tag, recording it on first success.
// The coin is evaluated first and its output looked up, so a repeat
// success returns the stored bytes and a failure touches no table at all.
func (f *Ideal) mine(tag Tag, id types.NodeID) ([]byte, bool) {
	out := f.evalCoin(tag, id)
	if !out.Below(f.prob(tag)) {
		return nil, false
	}
	e := f.lookup(tag, id, out[:])
	if e == nil {
		e = f.store(&ticketEntry{tag: tag, id: id, ticket: out})
	}
	return e.ticket[:], true
}

// verify implements Figure 1's verify(m, i): it answers only if mine(m) has
// been called by node i, preserving ticket secrecy for honest nodes. The
// hybrid-world ticket is the coin value itself, so a successful node
// presented with the wrong ticket bytes is a forgery and rejected.
func (f *Ideal) verify(tag Tag, id types.NodeID, proof []byte) bool {
	return len(proof) == IdealProofSize && f.lookup(tag, id, proof) != nil
}

type idealMiner struct {
	f  *Ideal
	id types.NodeID
}

func (m *idealMiner) Mine(tag Tag) ([]byte, bool) { return m.f.mine(tag, m.id) }
func (m *idealMiner) ID() types.NodeID            { return m.id }

type idealVerifier struct{ f *Ideal }

func (v idealVerifier) Verify(tag Tag, id types.NodeID, proof []byte) bool {
	return v.f.verify(tag, id, proof)
}

// Miner returns node id's mining capability, id ≥ 0. It allocates nothing
// once id's chunk exists, and is safe for concurrent use.
func (f *Ideal) Miner(id types.NodeID) Miner {
	c, i := int(id)/minerChunkLen, int(id)%minerChunkLen
	if dir := f.miners.Load(); dir != nil && c < len(*dir) {
		if chunk := (*dir)[c].Load(); chunk != nil {
			return &chunk[i]
		}
	}
	return &f.chunk(c)[i]
}

// chunk returns chunk c of the miners, adding it (and growing the
// directory to hold it) unless another caller got here first.
func (f *Ideal) chunk(c int) *minerChunk {
	f.minersMu.Lock()
	defer f.minersMu.Unlock()
	dir := f.miners.Load()
	if dir == nil || c >= len(*dir) {
		var old []atomic.Pointer[minerChunk]
		if dir != nil {
			old = *dir
		}
		grown := make([]atomic.Pointer[minerChunk], max(c+1, 2*len(old)))
		for k := range old {
			grown[k].Store(old[k].Load())
		}
		dir = &grown
		f.miners.Store(dir)
	}
	chunk := (*dir)[c].Load()
	if chunk == nil {
		chunk = new(minerChunk)
		for k := range chunk {
			chunk[k] = idealMiner{f: f, id: types.NodeID(c*minerChunkLen + k)}
		}
		(*dir)[c].Store(chunk)
	}
	return chunk
}

// Verifier returns the public verification interface.
func (f *Ideal) Verifier() Verifier { return idealVerifier{f: f} }

// ProofSize implements Suite.
func (f *Ideal) ProofSize() int { return IdealProofSize }

var _ Suite = (*Ideal)(nil)
