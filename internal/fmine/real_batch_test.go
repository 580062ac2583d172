package fmine

import (
	"bytes"
	"slices"
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/vrf"
	"ccba/internal/types"
)

// The batch mining entry point must be observationally equivalent to the
// scalar path — identical proofs, identical success flags — and the verify
// cache must answer exactly as an uncached vrf.Verify would, for genuine
// tickets, wrong-owner claims, and forged bytes.

const batchProb = 0.5

func batchReal(n int) (*Real, *pki.Public, []types.NodeID) {
	pub, secrets := pki.Setup(n, [32]byte{42})
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return NewReal(pub, secrets, constProb(batchProb)), pub, ids
}

func TestRealMineBatchMatchesScalar(t *testing.T) {
	r, _, ids := batchReal(24)
	for iter := uint32(1); iter <= 3; iter++ {
		tag := Tag{Domain: "batch-test", Type: 1, Iter: iter, Bit: types.One}
		proofs, oks := r.MineBatch(tag, ids)
		for i, id := range ids {
			p, ok := r.Miner(id).Mine(tag)
			if ok != oks[i] || !bytes.Equal(p, proofs[i]) {
				t.Fatalf("iter %d id %d: batch (%x, %v), scalar (%x, %v)", iter, id, proofs[i], oks[i], p, ok)
			}
		}
	}
}

// TestRealVerifyCacheIsInvisible pins the verify cache's invisibility. It
// keeps every valid ticket it has verified, and a ticket presented again
// iterations later — genuine, forged, or under the wrong owner — is
// answered exactly as vrf.Verify answers it, the first time and again once
// the answer is cached or recorded as a forgery.
func TestRealVerifyCacheIsInvisible(t *testing.T) {
	const n = 16
	r, pub, ids := batchReal(n)
	reference := func(tag Tag, id types.NodeID, proof []byte) bool {
		out, ok := vrf.Verify(pub.VRFKey(id), tag.Encode(), proof)
		return ok && out.Below(batchProb)
	}

	termTag := Tag{Domain: "cache-test", Type: 9, Iter: 0, Bit: types.NoBit}
	termProofs, termOks := r.MineBatch(termTag, ids)
	v := r.Verifier()
	for i, id := range ids {
		v.Verify(termTag, id, termProofs[i])
	}

	const iters = 20
	perIter := make(map[uint32][][]byte)
	iterTag := func(iter uint32) Tag { return Tag{Domain: "cache-test", Type: 1, Iter: iter, Bit: types.One} }
	for iter := uint32(1); iter <= iters; iter++ {
		proofs, _ := r.MineBatch(iterTag(iter), ids)
		for i, id := range ids {
			v.Verify(iterTag(iter), id, proofs[i])
		}
		perIter[iter] = proofs
	}

	// Every valid ticket stays cached, iteration 0's and iteration 1's alike.
	early := iterTag(1)
	for i, id := range ids {
		for _, c := range []struct {
			tag   Tag
			valid bool
		}{{termTag, termOks[i]}, {early, perIter[1][i] != nil}} {
			if _, cached := r.cache[verifyKey{tag: c.tag.key(), id: id}]; cached != c.valid {
				t.Fatalf("iter %d id %d: cached %v after %d iterations, want %v", c.tag.Iter, id, cached, iters, c.valid)
			}
		}
	}
	if !slices.Contains(termOks, true) {
		t.Fatal("no iteration-0 ticket won at p=0.5; corpus broken")
	}

	// Early tickets, their forgeries and wrong-owner claims answer as an
	// uncached verification does, the first time and again once the answer
	// is cached or recorded as a forgery.
	var claimIDs []types.NodeID
	var claimProofs [][]byte
	valid := 0
	for i, proof := range perIter[1] {
		if proof == nil {
			continue
		}
		forged := bytes.Clone(proof)
		forged[len(forged)-1] ^= 1
		claimIDs = append(claimIDs, ids[i], ids[i], ids[(i+1)%n])
		claimProofs = append(claimProofs, proof, forged, proof)
	}
	for j := range claimIDs {
		want := reference(early, claimIDs[j], claimProofs[j])
		first := v.Verify(early, claimIDs[j], claimProofs[j])
		again := v.Verify(early, claimIDs[j], claimProofs[j])
		if first != want || again != want {
			t.Fatalf("claim %d (id %d) after %d iterations: Verify %v, then %v; vrf.Verify says %v",
				j, claimIDs[j], iters, first, again, want)
		}
		if want {
			valid++
		}
	}
	if valid == 0 || valid == len(claimIDs) {
		t.Fatalf("%d of %d late claims valid; the corpus needs both outcomes", valid, len(claimIDs))
	}
	for i, ok := range termOks {
		if got := v.Verify(termTag, ids[i], termProofs[i]); got != ok {
			t.Fatalf("iter-0 id %d: verify %v, want %v", i, got, ok)
		}
	}
}
