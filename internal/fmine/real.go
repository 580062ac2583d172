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
	mu    sync.RWMutex
	cache map[verifyKey]verifyEntry
	bad   map[badProofKey]struct{}

	// The positive cache is bounded by an iteration window: a full memo grows
	// one entry — a 64-byte proof copy plus map overhead — per (tag, id) ever
	// verified, which over a long real-crypto run at n = 10⁵–10⁶ re-creates
	// the per-node memory wall the sparse engine exists to avoid. Eviction
	// exploits the protocols' verification locality: traffic for iteration i
	// is verified within a few iterations of i (core's lockstep window keeps
	// two), so entries whose tag iteration has fallen more than leanWindow
	// behind the highest iteration seen are dropped. Iteration-0 tags
	// (Terminate, and any other iteration-free domain) recur for the whole
	// execution and are never evicted.
	//
	// Eviction is bookkeeping, not semantics: the cache memoises a
	// deterministic verification, so an evicted entry merely re-verifies on
	// next sight, and answers are those of vrf.Verify at every worker count
	// (TestRealVerifyAfterEviction).
	maxIter uint32
	byIter  map[uint32][]verifyKey // insertion log per iteration, iter ≠ 0
	live    []uint32               // iterations with a byIter bucket (no map ranging)
}

// leanWindow is how many iterations behind the newest observed iteration a
// cache entry survives. Core's lockstep window keeps two iterations of
// attestation state; doubling that covers stragglers (certificates
// re-verified one epoch late) with room to spare, while still bounding the
// cache at O(window · traffic-per-iteration).
const leanWindow = 4

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
		byIter: make(map[uint32][]verifyKey),
	}
	for i := range r.miners {
		r.miners[i] = realMiner{r: r, id: types.NodeID(i)}
	}
	return r
}

// CacheLen reports the current number of positive verify-cache entries;
// telemetry for the tests that pin the cache's boundedness.
func (r *Real) CacheLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cache)
}

// noteInsertLocked logs a cache insertion and evicts buckets that have fallen
// outside the iteration window. Caller holds r.mu.
func (r *Real) noteInsertLocked(key verifyKey) {
	iter := key.tag.iter
	if iter == 0 {
		return // iteration-free tags (Terminate) live forever
	}
	if _, ok := r.byIter[iter]; !ok {
		r.live = append(r.live, iter)
	}
	r.byIter[iter] = append(r.byIter[iter], key)
	if iter <= r.maxIter {
		return
	}
	r.maxIter = iter
	kept := r.live[:0]
	for _, it := range r.live {
		if it+leanWindow > r.maxIter {
			kept = append(kept, it)
			continue
		}
		for _, k := range r.byIter[it] {
			delete(r.cache, k)
		}
		delete(r.byIter, it)
	}
	r.live = kept
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
		v.r.noteInsertLocked(key)
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
