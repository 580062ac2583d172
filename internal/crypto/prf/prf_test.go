package prf

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"math"
	mrand "math/rand"
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

// hmacSHA256 is the reference PRF, computed by the standard library.
func hmacSHA256(k Key, msg []byte) Output {
	mac := hmac.New(sha256.New, k[:])
	mac.Write(msg)
	var out Output
	mac.Sum(out[:0])
	return out
}

// compressions runs f once per SHA-256 compression this host can execute:
// the generic one always, and the SHA-extensions kernel where the CPU has
// it. It switches the package's selection, so its callers do not run in
// parallel.
func compressions(f func(name string)) {
	kernel := useSHANI
	defer func() { useSHANI = kernel }()
	useSHANI = false
	f("generic")
	if kernel {
		useSHANI = true
		f("sha-ni")
	}
}

// TestEvalMatchesCryptoHMAC checks the midstate evaluator against
// crypto/hmac on every message length from 0 to 300 bytes, which crosses
// each padding edge: 55/56 (the inner hash's last block overflows into a
// second one), 64 (a whole message block), 119/120 and beyond.
func TestEvalMatchesCryptoHMAC(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	compressions(func(name string) {
		for trial := 0; trial < 4; trial++ {
			var k Key
			rng.Read(k[:])
			s := NewState(k)
			for n := 0; n <= 300; n++ {
				msg := make([]byte, n)
				rng.Read(msg)
				want := hmacSHA256(k, msg)
				if got := s.Eval(msg); got != want {
					t.Fatalf("%s: State.Eval of a %d-byte message = %x, crypto/hmac says %x", name, n, got, want)
				}
				if got := Eval(k, msg); got != want {
					t.Fatalf("%s: Eval of a %d-byte message = %x, crypto/hmac says %x", name, n, got, want)
				}
			}
		}
	})
}

// FuzzEvalMatchesHMAC compares the evaluator with crypto/hmac on arbitrary
// keys and messages, under every compression the host runs. A key shorter
// than KeySize is zero-extended, a longer one truncated.
func FuzzEvalMatchesHMAC(f *testing.F) {
	f.Add([]byte("key"), []byte("tag"))
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		var k Key
		copy(k[:], key)
		want := hmacSHA256(k, msg)
		compressions(func(name string) {
			if got := Eval(k, msg); got != want {
				t.Fatalf("%s: Eval(%x, %x) = %x, crypto/hmac says %x", name, k, msg, got, want)
			}
		})
	})
}

// BenchmarkEval times one evaluation of an 18-byte message (the length of
// an fmine coin input, NodeID ‖ Tag with a four-byte domain) by the
// midstate evaluator under each compression, and by a reused crypto/hmac
// object, which is what the evaluator replaced.
func BenchmarkEval(b *testing.B) {
	k := Key{1}
	msg := make([]byte, 18)
	compressions(func(name string) {
		b.Run(name, func(b *testing.B) {
			s := NewState(k)
			b.ReportAllocs()
			for b.Loop() {
				s.Eval(msg)
			}
		})
	})
	b.Run("crypto-hmac", func(b *testing.B) {
		mac := hmac.New(sha256.New, k[:])
		var out Output
		b.ReportAllocs()
		for b.Loop() {
			mac.Reset()
			mac.Write(msg)
			mac.Sum(out[:0])
		}
	})
}
