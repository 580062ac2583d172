package prf

import (
	"crypto/rand"
	"math"
	"testing"
	"testing/quick"
)

func testKey(t *testing.T) Key {
	t.Helper()
	k, err := NewKey(rand.Reader)
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	return k
}

func TestEvalDeterministic(t *testing.T) {
	k := testKey(t)
	msg := []byte("tag")
	if Eval(k, msg) != Eval(k, msg) {
		t.Fatal("PRF not deterministic")
	}
}

func TestEvalKeySeparation(t *testing.T) {
	k1, k2 := testKey(t), testKey(t)
	if Eval(k1, []byte("m")) == Eval(k2, []byte("m")) {
		t.Fatal("different keys produced identical outputs")
	}
}

func TestEvalMessageSeparation(t *testing.T) {
	k := testKey(t)
	if Eval(k, []byte("m1")) == Eval(k, []byte("m2")) {
		t.Fatal("different messages produced identical outputs")
	}
}

func TestDeriveKeyLabels(t *testing.T) {
	k := testKey(t)
	if DeriveKey(k, "a") == DeriveKey(k, "b") {
		t.Fatal("different labels produced identical sub-keys")
	}
	if DeriveKey(k, "a") != DeriveKey(k, "a") {
		t.Fatal("derivation not deterministic")
	}
}

func TestThresholdEdges(t *testing.T) {
	if Threshold(0) != 0 {
		t.Errorf("Threshold(0) = %d", Threshold(0))
	}
	if Threshold(-1) != 0 {
		t.Errorf("Threshold(-1) = %d", Threshold(-1))
	}
	if Threshold(1) != math.MaxUint64 {
		t.Errorf("Threshold(1) = %d", Threshold(1))
	}
	if Threshold(2) != math.MaxUint64 {
		t.Errorf("Threshold(2) = %d", Threshold(2))
	}
	half := Threshold(0.5)
	if half < (1<<63)-(1<<40) || half > (1<<63)+(1<<40) {
		t.Errorf("Threshold(0.5) = %d far from 2^63", half)
	}
}

func TestBelowProbabilityEmpirical(t *testing.T) {
	// Mining success frequency should track the target probability. With
	// 20k trials at p=0.1 the standard deviation is ~0.002, so ±0.02 is a
	// >9σ band — a failure here means the threshold logic is wrong, not bad
	// luck.
	k := testKey(t)
	const trials = 20000
	const p = 0.1
	hits := 0
	msg := make([]byte, 8)
	for i := 0; i < trials; i++ {
		for j := 0; j < 8; j++ {
			msg[j] = byte(i >> (8 * j))
		}
		if Eval(k, msg).Below(p) {
			hits++
		}
	}
	freq := float64(hits) / trials
	if math.Abs(freq-p) > 0.02 {
		t.Fatalf("success frequency %.4f far from target %.2f", freq, p)
	}
}

func TestBelowOneAlwaysSucceeds(t *testing.T) {
	k := testKey(t)
	for i := 0; i < 100; i++ {
		if !Eval(k, []byte{byte(i)}).Below(1) {
			t.Fatal("Below(1) must always succeed")
		}
	}
}

func TestBelowZeroNeverSucceeds(t *testing.T) {
	k := testKey(t)
	for i := 0; i < 100; i++ {
		if Eval(k, []byte{byte(i)}).Below(0) {
			t.Fatal("Below(0) must never succeed")
		}
	}
}

func TestFractionRange(t *testing.T) {
	k := testKey(t)
	f := func(msg []byte) bool {
		fr := Eval(k, msg).Fraction()
		return fr >= 0 && fr < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStateEvalMatchesEvalWithoutAllocating pins the reusable evaluator:
// the same bytes as the one-shot Eval on every message, including after
// other messages went through the same State, and no heap allocation per
// call (mining evaluates once per node per round).
func TestStateEvalMatchesEvalWithoutAllocating(t *testing.T) {
	k := testKey(t)
	s := NewState(k)
	msgs := [][]byte{nil, []byte("m"), []byte("a longer message that spans more than one SHA-256 block, to be sure"), []byte("m")}
	for _, msg := range msgs {
		if got, want := s.Eval(msg), Eval(k, msg); got != want {
			t.Fatalf("State.Eval(%q) = %x, Eval says %x", msg, got, want)
		}
	}
	first := s.Eval(msgs[1])
	s.Eval(msgs[2])
	if first != Eval(k, msgs[1]) {
		t.Fatal("a later Eval overwrote an Output already returned")
	}
	msg := []byte("hot-path message")
	if avg := testing.AllocsPerRun(100, func() { s.Eval(msg) }); avg != 0 {
		t.Errorf("State.Eval allocates %.1f times per call, want 0", avg)
	}
}
