package fmine

import (
	"fmt"
	"sync"

	"ccba/internal/crypto/prf"
	"ccba/internal/types"
	"ccba/internal/wire"
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

// AppendEncode appends the canonical byte encoding of the tag to dst, so hot
// paths can reuse a scratch buffer instead of allocating per evaluation.
func (t Tag) AppendEncode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U32(uint32(len(t.Domain)))
	w.Buf = append(w.Buf, t.Domain...)
	w.U8(t.Type)
	w.U32(t.Iter)
	w.Bit(t.Bit)
	return w.Buf
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

// Ideal is the F_mine ideal functionality. It is safe for concurrent use.
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
// The table is keyed by the comparable (tag, id) pair rather than an
// encoded byte string: a simulation verifies every delivered ticket once per
// simulated receiver, so the verify path must be a single allocation-free
// map lookup. The PRF evaluator and encoding scratch are reused across
// evaluations (heap profiles of large runs were dominated by per-call
// HMAC construction and tag encoding).
type Ideal struct {
	prob ProbFunc

	mu sync.RWMutex
	// tickets holds Coin[m, i] for every mined(m, i) that succeeded. Mine
	// returns the stored slice itself on every repeat: committee members
	// re-attempt their round tags, and a fresh copy per attempt would cost
	// one allocation per member per round. Tickets are immutable by
	// contract (they are message payloads).
	tickets map[coinKey][]byte

	// evalMu guards the PRF state and scratch buffer separately from the
	// ticket table, so a miss's HMAC evaluation never runs inside the
	// table's write lock: parallel mining only serialises on the short
	// evaluation itself, and distinct nodes mine distinct keys anyway.
	evalMu  sync.Mutex
	hidden  *prf.State // trusted party's coin source; never exposed
	scratch []byte     // coin-input encoding buffer
}

// coinKey identifies one Coin[m, i] cell of Figure 1.
type coinKey struct {
	tag tagKey
	id  types.NodeID
}

// NewIdeal constructs the functionality with a seeded coin source.
func NewIdeal(seed [32]byte, prob ProbFunc) *Ideal {
	return &Ideal{
		prob:    prob,
		hidden:  prf.NewState(prf.DeriveKey(prf.Key(seed), "fmine/ideal")),
		tickets: make(map[coinKey][]byte),
	}
}

// evalCoin computes the Bernoulli coin for (tag, id). Deriving it from a
// hidden PRF key is equivalent to flipping and storing a fresh coin on first
// use, and keeps executions reproducible. The coin input is the canonical
// NodeID ‖ tag encoding, so coin values are bit-identical to earlier
// revisions for the same seed.
func (f *Ideal) evalCoin(tag Tag, id types.NodeID) prf.Output {
	f.evalMu.Lock()
	w := wire.Writer{Buf: f.scratch[:0]}
	w.NodeID(id)
	f.scratch = tag.AppendEncode(w.Buf)
	out := f.hidden.Eval(f.scratch)
	f.evalMu.Unlock()
	return out
}

// mine returns node id's ticket for tag, recording it on first success.
func (f *Ideal) mine(tag Tag, id types.NodeID) ([]byte, bool) {
	key := coinKey{tag: tag.key(), id: id}

	f.mu.RLock()
	ticket, hit := f.tickets[key]
	f.mu.RUnlock()
	if hit {
		return ticket, true
	}
	out := f.evalCoin(tag, id)
	if !out.Below(f.prob(tag)) {
		return nil, false
	}
	// Concurrent misses on the same key would both evaluate, but the PRF
	// is deterministic, so the duplicate store holds identical bytes.
	ticket = make([]byte, IdealProofSize)
	copy(ticket, out[:])
	f.mu.Lock()
	f.tickets[key] = ticket
	f.mu.Unlock()
	return ticket, true
}

// verify implements Figure 1's verify(m, i): it answers only if mine(m) has
// been called by node i, preserving ticket secrecy for honest nodes. The
// hybrid-world ticket is the coin value itself, so a successful node
// presented with the wrong ticket bytes is a forgery and rejected.
func (f *Ideal) verify(tag Tag, id types.NodeID, proof []byte) bool {
	f.mu.RLock()
	ticket, hit := f.tickets[coinKey{tag: tag.key(), id: id}]
	f.mu.RUnlock()
	return hit && string(proof) == string(ticket)
}

type idealMiner struct {
	f  *Ideal
	id types.NodeID
}

func (m idealMiner) Mine(tag Tag) ([]byte, bool) { return m.f.mine(tag, m.id) }
func (m idealMiner) ID() types.NodeID            { return m.id }

type idealVerifier struct{ f *Ideal }

func (v idealVerifier) Verify(tag Tag, id types.NodeID, proof []byte) bool {
	return v.f.verify(tag, id, proof)
}

// Miner returns node id's mining capability.
func (f *Ideal) Miner(id types.NodeID) Miner { return idealMiner{f: f, id: id} }

// Verifier returns the public verification interface.
func (f *Ideal) Verifier() Verifier { return idealVerifier{f: f} }

// ProofSize implements Suite.
func (f *Ideal) ProofSize() int { return IdealProofSize }

var _ Suite = (*Ideal)(nil)
