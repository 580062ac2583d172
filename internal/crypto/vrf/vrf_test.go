package vrf

import (
	"math"
	"testing"
	"testing/quick"

	"ccba/internal/crypto/sig"
)

func keyFor(b byte) (sig.PublicKey, sig.PrivateKey) {
	var seed [32]byte
	seed[0] = b
	return sig.KeyFromSeed(seed)
}

func TestEvalVerify(t *testing.T) {
	pk, sk := keyFor(1)
	out, proof := Eval(sk, []byte("tag"))
	got, ok := Verify(pk, []byte("tag"), proof)
	if !ok {
		t.Fatal("honest proof rejected")
	}
	if got != out {
		t.Fatal("verified output differs from evaluated output")
	}
}

func TestEvalDeterministic(t *testing.T) {
	_, sk := keyFor(1)
	o1, p1 := Eval(sk, []byte("tag"))
	o2, p2 := Eval(sk, []byte("tag"))
	if o1 != o2 || string(p1) != string(p2) {
		t.Fatal("VRF evaluation not deterministic")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	pk, sk := keyFor(1)
	_, proof := Eval(sk, []byte("tag A"))
	if _, ok := Verify(pk, []byte("tag B"), proof); ok {
		t.Fatal("proof accepted for different message")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	_, sk := keyFor(1)
	pk2, _ := keyFor(2)
	_, proof := Eval(sk, []byte("tag"))
	if _, ok := Verify(pk2, []byte("tag"), proof); ok {
		t.Fatal("proof accepted under wrong key")
	}
}

func TestOutputsDifferAcrossKeys(t *testing.T) {
	_, sk1 := keyFor(1)
	_, sk2 := keyFor(2)
	o1, _ := Eval(sk1, []byte("tag"))
	o2, _ := Eval(sk2, []byte("tag"))
	if o1 == o2 {
		t.Fatal("outputs collide across keys")
	}
}

func TestOutputsDifferAcrossMessages(t *testing.T) {
	_, sk := keyFor(1)
	f := func(m1, m2 []byte) bool {
		if string(m1) == string(m2) {
			return true
		}
		o1, _ := Eval(sk, m1)
		o2, _ := Eval(sk, m2)
		return o1 != o2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBitSpecificIndependence is the statistical heart of the paper's §3.2
// insight: eligibility for bit b must be (empirically) independent of
// eligibility for 1−b. We check that, across many keys, the correlation of
// the two success indicators at p = 0.3 is negligible.
func TestBitSpecificIndependence(t *testing.T) {
	const trials = 4000
	const p = 0.3
	var both, forB, forNotB int
	for i := 0; i < trials; i++ {
		var seed [32]byte
		seed[0], seed[1] = byte(i), byte(i>>8)
		_, sk := sig.KeyFromSeed(seed)
		oB, _ := Eval(sk, []byte("ACK/r=5/b=0"))
		oN, _ := Eval(sk, []byte("ACK/r=5/b=1"))
		b := oB.Below(p)
		nb := oN.Below(p)
		if b {
			forB++
		}
		if nb {
			forNotB++
		}
		if b && nb {
			both++
		}
	}
	pB := float64(forB) / trials
	pN := float64(forNotB) / trials
	pBoth := float64(both) / trials
	// Independence predicts pBoth ≈ pB·pN (≈0.09). Tolerance 0.03 is >5σ.
	if math.Abs(pBoth-pB*pN) > 0.03 {
		t.Fatalf("joint eligibility %.4f far from product %.4f — bit-specific tickets are correlated",
			pBoth, pB*pN)
	}
}

func TestProofSize(t *testing.T) {
	_, sk := keyFor(1)
	_, proof := Eval(sk, []byte("m"))
	if len(proof) != ProofSize {
		t.Fatalf("proof size %d, want %d", len(proof), ProofSize)
	}
}

// TestEvalBatchMatchesScalar pins batch ≡ scalar for evaluation: same
// outputs, same proofs, in input order.
func TestEvalBatchMatchesScalar(t *testing.T) {
	const n = 16
	msg := []byte("batch tag")
	sks := make([]sig.PrivateKey, n)
	for i := range sks {
		_, sks[i] = keyFor(byte(i + 1))
	}
	outs, proofs := EvalBatch(sks, msg, nil, nil)
	if len(outs) != n || len(proofs) != n {
		t.Fatalf("batch returned %d outputs, %d proofs, want %d each", len(outs), len(proofs), n)
	}
	for i, sk := range sks {
		out, proof := Eval(sk, msg)
		if outs[i] != out || string(proofs[i]) != string(proof) {
			t.Fatalf("key %d: batch (%x, %x), scalar (%x, %x)", i, outs[i], proofs[i], out, proof)
		}
	}
}
