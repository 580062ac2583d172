package fmine

import (
	"bytes"
	"crypto/sha256"
	"sync"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/sig"
	"ccba/internal/crypto/vrf"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Real is the real-world instantiation of eligibility election: the
// Appendix D compiler with the NIZK layer substituted by a VRF (DESIGN.md
// §4). A mining attempt evaluates the node's VRF on the tag; it succeeds iff
// the pseudorandom output clears the tag's difficulty, and the VRF proof is
// the publicly verifiable ticket.
type Real struct {
	pub  *pki.Public
	sks  []sig.PrivateKey
	prob ProbFunc
	// miners are the Miner values Miner hands out, one per key, built
	// once so that handing one out allocates nothing.
	miners []realMiner

	// Verification is deterministic, so the simulator memoises results:
	// in a real deployment each of the n nodes verifies a multicast once;
	// simulating all n nodes in one process would repeat the identical
	// Ed25519 verification n times. The cache preserves behaviour exactly.
	//
	// Ed25519 signatures are unique for the honestly generated keys the
	// trusted PKI enforces, so each (tag, id) pair has exactly one valid
	// proof; the cache stores the first proof seen per pair and answers
	// hits with a byte comparison — no hashing, no allocation. A different
	// proof for a cached pair (an adversarial forgery) falls through to a
	// full verification, preserving exact semantics; known-invalid proofs
	// are remembered in a side table keyed by proof digest so an adversary
	// re-multicasting the same forgery costs one Ed25519 verification
	// total, not one per simulated receiver per round.
	//
	// The positive cache keeps every entry: it holds one per valid (tag, id)
	// ticket, so its size follows the committees, not n — the winners of
	// each iteration's tags times the iterations run (DESIGN.md §9).
	mu    sync.RWMutex
	cache map[verifyKey]verifyEntry
	bad   map[badProofKey]struct{}
}

// badProofKey identifies a proof that failed verification for a (tag, id)
// pair. Hashing only happens on this slow path — honest traffic never
// touches it.
type badProofKey struct {
	key  verifyKey
	hash [sha256.Size]byte
}

type verifyKey struct {
	tag tagKey
	id  types.NodeID
}

type verifyEntry struct {
	proof []byte
	valid bool
}

// NewReal constructs the real-world suite from a trusted PKI setup. The
// secrets slice must contain each node's setup output, indexed by node ID.
func NewReal(pub *pki.Public, secrets []pki.Secret, prob ProbFunc) *Real {
	sks := make([]sig.PrivateKey, len(secrets))
	for i, s := range secrets {
		sks[i] = s.VrfSK
	}
	r := &Real{
		pub:    pub,
		sks:    sks,
		prob:   prob,
		miners: make([]realMiner, len(sks)),
		cache:  make(map[verifyKey]verifyEntry),
		bad:    make(map[badProofKey]struct{}),
	}
	for i := range r.miners {
		r.miners[i] = realMiner{r: r, id: types.NodeID(i)}
	}
	return r
}

type realMiner struct {
	r  *Real
	id types.NodeID
}

func (m *realMiner) Mine(tag Tag) ([]byte, bool) {
	scratch := wire.GetScratch()
	tagBytes := tag.AppendEncode((*scratch)[:0])
	out, proof := vrf.Eval(m.r.sks[m.id], tagBytes)
	*scratch = tagBytes[:0]
	wire.PutScratch(scratch)
	if !out.Below(m.r.prob(tag)) {
		return nil, false
	}
	return proof, true
}

func (m *realMiner) ID() types.NodeID { return m.id }

type realVerifier struct{ r *Real }

func (v realVerifier) Verify(tag Tag, id types.NodeID, proof []byte) bool {
	key := verifyKey{tag: tag.key(), id: id}

	v.r.mu.RLock()
	e, hit := v.r.cache[key]
	v.r.mu.RUnlock()
	if hit && bytes.Equal(e.proof, proof) {
		return e.valid
	}

	pk := v.r.pub.VRFKey(id)
	if pk == nil {
		return false
	}

	// Slow path: a proof this pair has not positively cached. Check the
	// known-forgery table before paying for an Ed25519 verification.
	bk := badProofKey{key: key, hash: sha256.Sum256(proof)}
	v.r.mu.RLock()
	_, known := v.r.bad[bk]
	v.r.mu.RUnlock()
	if known {
		return false
	}

	scratch := wire.GetScratch()
	tagBytes := tag.AppendEncode((*scratch)[:0])
	out, ok := vrf.Verify(pk, tagBytes, proof)
	*scratch = tagBytes[:0]
	wire.PutScratch(scratch)
	valid := ok && out.Below(v.r.prob(tag))

	if !valid {
		v.r.mu.Lock()
		v.r.bad[bk] = struct{}{}
		v.r.mu.Unlock()
		return false
	}

	// Cache the valid result, copying the proof (envelopes share backing
	// arrays with protocol state, and the cache must not be invalidated by
	// later mutation). A valid proof always claims the slot: if a forgery
	// for (tag, id) was delivered — and cached — before the genuine ticket,
	// the genuine ticket must not be re-verified n times just because it
	// arrived second. Uniqueness of Ed25519 signatures under honestly
	// generated keys means a valid entry is never displaced.
	v.r.mu.Lock()
	if cur, exists := v.r.cache[key]; !exists || !cur.valid {
		v.r.cache[key] = verifyEntry{proof: bytes.Clone(proof), valid: valid}
	}
	v.r.mu.Unlock()
	return valid
}

// MineBatch attempts to mine tag for every id in ids, returning per-id
// proofs (nil where the attempt failed) and success flags. It is
// semantically identical to calling each miner's Mine(tag) in order; the
// batch form encodes the tag and builds the VRF domain input once for the
// whole batch (vrf.EvalBatch), which is the entry point for evaluating a
// shard's mining attempts in one call.
func (r *Real) MineBatch(tag Tag, ids []types.NodeID) ([][]byte, []bool) {
	scratch := wire.GetScratch()
	tagBytes := tag.AppendEncode((*scratch)[:0])

	sks := make([]sig.PrivateKey, len(ids))
	for i, id := range ids {
		sks[i] = r.sks[id]
	}
	outs, proofs := vrf.EvalBatch(sks, tagBytes, nil, nil)
	*scratch = tagBytes[:0]
	wire.PutScratch(scratch)

	p := r.prob(tag)
	oks := make([]bool, len(ids))
	for i := range outs {
		if outs[i].Below(p) {
			oks[i] = true
		} else {
			proofs[i] = nil
		}
	}
	return proofs, oks
}

// Miner returns node id's mining capability (its VRF secret key bound to the
// difficulty schedule), without allocating.
func (r *Real) Miner(id types.NodeID) Miner { return &r.miners[id] }

// Verifier returns the public verification interface.
func (r *Real) Verifier() Verifier { return realVerifier{r: r} }

// ProofSize implements Suite.
func (r *Real) ProofSize() int { return vrf.ProofSize }

var _ Suite = (*Real)(nil)
