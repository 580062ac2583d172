package fmine

import (
	"bytes"
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/vrf"
	"ccba/internal/types"
)

// The batch mine/verify entry points must be observationally equivalent to
// the scalar path — identical proofs, identical success flags, identical
// verify answers for genuine tickets, wrong-owner claims, and forged bytes —
// and the windowed verify cache must stay bounded while answering exactly as
// an uncached vrf.Verify would.

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

func TestRealVerifyBatchMatchesScalar(t *testing.T) {
	const n = 24
	r, _, ids := batchReal(n)
	tag := Tag{Domain: "batch-test", Type: 1, Iter: 1, Bit: types.Zero}
	proofs, oks := r.MineBatch(tag, ids)

	// Build a hostile claim set: genuine tickets, failed attempts' nil
	// proofs, wrong-owner proofs, and forged bytes.
	claimIDs := append([]types.NodeID{}, ids...)
	claimProofs := append([][]byte{}, proofs...)
	firstWin := -1
	for i, ok := range oks {
		if ok {
			firstWin = i
			break
		}
	}
	if firstWin < 0 {
		t.Fatal("no successful tickets at p=0.5; corpus broken")
	}
	// Wrong owner: node (firstWin+1) claims firstWin's ticket.
	claimIDs = append(claimIDs, types.NodeID((firstWin+1)%n))
	claimProofs = append(claimProofs, proofs[firstWin])
	// Forgery: flipped byte of a genuine ticket, claimed by its owner.
	forged := bytes.Clone(proofs[firstWin])
	forged[0] ^= 1
	claimIDs = append(claimIDs, types.NodeID(firstWin))
	claimProofs = append(claimProofs, forged)

	got := r.VerifyBatch(tag, claimIDs, claimProofs)
	v := r.Verifier()
	for i := range claimIDs {
		if want := v.Verify(tag, claimIDs[i], claimProofs[i]); got[i] != want {
			t.Fatalf("claim %d (id %d): batch %v, scalar %v", i, claimIDs[i], got[i], want)
		}
	}
	// Repeat the batch: now every answer is a cache or bad-table hit and
	// must not change.
	again := r.VerifyBatch(tag, claimIDs, claimProofs)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("claim %d: first batch %v, cached batch %v", i, got[i], again[i])
		}
	}
}

// TestRealVerifyAfterEviction pins the cache's eviction policy and its
// invisibility. Entries older than the iteration window are dropped and
// iteration-0 (Terminate) entries never are; a ticket presented again after
// its iteration left the window — genuine, forged, or under the wrong owner —
// is answered exactly as vrf.Verify answers it, through both entry points.
func TestRealVerifyAfterEviction(t *testing.T) {
	const n = 16
	r, pub, ids := batchReal(n)
	reference := func(tag Tag, id types.NodeID, proof []byte) bool {
		out, ok := vrf.Verify(pub.VRFKey(id), tag.Encode(), proof)
		return ok && out.Below(batchProb)
	}

	termTag := Tag{Domain: "evict-test", Type: 9, Iter: 0, Bit: types.NoBit}
	termProofs, termOks := r.MineBatch(termTag, ids)
	r.VerifyBatch(termTag, ids, termProofs)

	const iters = 20
	perIter := make(map[uint32][][]byte)
	iterTag := func(iter uint32) Tag { return Tag{Domain: "evict-test", Type: 1, Iter: iter, Bit: types.One} }
	for iter := uint32(1); iter <= iters; iter++ {
		proofs, _ := r.MineBatch(iterTag(iter), ids)
		// Alternate the entry point that populates the cache.
		if iter%2 == 0 {
			r.VerifyBatch(iterTag(iter), ids, proofs)
		} else {
			for i, id := range ids {
				r.Verifier().Verify(iterTag(iter), id, proofs[i])
			}
		}
		perIter[iter] = proofs
	}

	// Bounded: at most the window's worth of per-iteration entries plus the
	// immortal iteration-0 ones, every one of which is still cached.
	termCached := 0
	for i, ok := range termOks {
		_, cached := r.cache[verifyKey{tag: termTag.key(), id: ids[i]}]
		if cached != ok {
			t.Fatalf("iter-0 id %d: cached %v after %d iterations, want %v (never evicted)", i, cached, iters, ok)
		}
		if ok {
			termCached++
		}
	}
	if termCached == 0 {
		t.Fatal("no iteration-0 ticket won at p=0.5; corpus broken")
	}
	if got, max := r.CacheLen(), termCached+leanWindow*n; got > max {
		t.Fatalf("cache has %d entries after %d iterations, want ≤ %d", got, iters, max)
	}
	early := iterTag(1)
	for _, id := range ids {
		if _, cached := r.cache[verifyKey{tag: early.key(), id: id}]; cached {
			t.Fatalf("iteration-1 entry of id %d survived to iteration %d (window %d)", id, iters, leanWindow)
		}
	}

	// Evicted tickets, their forgeries and wrong-owner claims answer as an
	// uncached verification does.
	v := r.Verifier()
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
	// Even claims reach the scalar entry point uncached, odd ones the batch.
	scalar := make([]bool, len(claimIDs))
	for j := 0; j < len(claimIDs); j += 2 {
		scalar[j] = v.Verify(early, claimIDs[j], claimProofs[j])
	}
	batch := r.VerifyBatch(early, claimIDs, claimProofs)
	for j := 1; j < len(claimIDs); j += 2 {
		scalar[j] = v.Verify(early, claimIDs[j], claimProofs[j])
	}
	for j := range claimIDs {
		want := reference(early, claimIDs[j], claimProofs[j])
		if batch[j] != want || scalar[j] != want {
			t.Fatalf("claim %d (id %d) after eviction: VerifyBatch %v, Verify %v, vrf.Verify says %v",
				j, claimIDs[j], batch[j], scalar[j], want)
		}
		if want {
			valid++
		}
	}
	if valid == 0 || valid == len(claimIDs) {
		t.Fatalf("%d of %d post-eviction claims valid; the corpus needs both outcomes", valid, len(claimIDs))
	}
	for i, ok := range termOks {
		if got := v.Verify(termTag, ids[i], termProofs[i]); got != ok {
			t.Fatalf("iter-0 id %d: verify %v, want %v", i, got, ok)
		}
	}
}
