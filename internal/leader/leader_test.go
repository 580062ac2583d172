package leader

import (
	"testing"

	"ccba/internal/testenv"
)

func TestDeterministic(t *testing.T) {
	var seed [32]byte
	seed[0] = 3
	o1, o2 := New(seed, 10), New(seed, 10)
	for iter := uint32(0); iter < 50; iter++ {
		if o1.Leader(iter) != o2.Leader(iter) {
			t.Fatalf("iteration %d: oracles disagree", iter)
		}
	}
}

func TestRange(t *testing.T) {
	var seed [32]byte
	o := New(seed, 7)
	for iter := uint32(0); iter < 200; iter++ {
		l := o.Leader(iter)
		if l < 0 || int(l) >= 7 {
			t.Fatalf("leader %d out of range", l)
		}
	}
}

func TestRoughlyUniform(t *testing.T) {
	var seed [32]byte
	seed[0] = 1
	const n = 8
	const iters = 8000
	o := New(seed, n)
	counts := make([]int, n)
	for iter := uint32(0); iter < iters; iter++ {
		counts[o.Leader(iter)]++
	}
	// Each node expects 1000 elections, σ≈30; ±200 is generous.
	for id, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("node %d elected %d times (expected ≈1000)", id, c)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	var s1, s2 [32]byte
	s2[0] = 1
	o1, o2 := New(s1, 100), New(s2, 100)
	same := 0
	for iter := uint32(0); iter < 100; iter++ {
		if o1.Leader(iter) == o2.Leader(iter) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("different seeds coincide on %d/100 iterations", same)
	}
}

func TestN(t *testing.T) {
	var seed [32]byte
	if New(seed, 5).N() != 5 {
		t.Fatal("N() wrong")
	}
}

func TestInvalidNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 did not panic")
		}
	}()
	var seed [32]byte
	New(seed, 0)
}

// TestLeaderAllocatesNothing: a draw encodes the iteration into a stack
// buffer, so electing a leader allocates nothing.
func TestLeaderAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	o := New([32]byte{4}, 1000)
	iter := uint32(0)
	if avg := testing.AllocsPerRun(100, func() { iter++; o.Leader(iter) }); avg != 0 {
		t.Errorf("Leader allocates %.1f times per call, want 0", avg)
	}
}
