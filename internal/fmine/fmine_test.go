package fmine

import (
	"math"
	"sync"
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/prf"
	"ccba/internal/types"
)

func constProb(p float64) ProbFunc { return func(Tag) float64 { return p } }

func tag(typ uint8, iter uint32, bit types.Bit) Tag {
	return Tag{Domain: "test", Type: typ, Iter: iter, Bit: bit}
}

func newIdeal(p float64) *Ideal {
	var seed [32]byte
	seed[0] = 42
	return NewIdeal(seed, constProb(p))
}

func newReal(n int, p float64) *Real {
	var seed [32]byte
	seed[0] = 42
	pub, secrets := pki.Setup(n, seed)
	return NewReal(pub, secrets, constProb(p))
}

func suites(t *testing.T, n int, p float64) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"ideal": newIdeal(p),
		"real":  newReal(n, p),
	}
}

func TestMineDeterministic(t *testing.T) {
	for name, s := range suites(t, 4, 0.5) {
		t.Run(name, func(t *testing.T) {
			m := s.Miner(1)
			p1, ok1 := m.Mine(tag(1, 3, types.Zero))
			p2, ok2 := m.Mine(tag(1, 3, types.Zero))
			if ok1 != ok2 || string(p1) != string(p2) {
				t.Fatal("repeated mining attempt returned different results (Figure 1 memoisation)")
			}
		})
	}
}

func TestMineVerifyRoundTrip(t *testing.T) {
	for name, s := range suites(t, 8, 1.0) {
		t.Run(name, func(t *testing.T) {
			m := s.Miner(3)
			proof, ok := m.Mine(tag(2, 1, types.One))
			if !ok {
				t.Fatal("p=1 mining must succeed")
			}
			if len(proof) != s.ProofSize() {
				t.Fatalf("proof size %d, want %d", len(proof), s.ProofSize())
			}
			if !s.Verifier().Verify(tag(2, 1, types.One), 3, proof) {
				t.Fatal("valid ticket rejected")
			}
		})
	}
}

func TestVerifyRejectsWrongTag(t *testing.T) {
	for name, s := range suites(t, 8, 1.0) {
		t.Run(name, func(t *testing.T) {
			m := s.Miner(3)
			proof, _ := m.Mine(tag(2, 1, types.One))
			if s.Verifier().Verify(tag(2, 1, types.Zero), 3, proof) {
				t.Fatal("ticket for bit 1 accepted for bit 0 — breaks vote-specific eligibility")
			}
			if s.Verifier().Verify(tag(2, 2, types.One), 3, proof) {
				t.Fatal("ticket accepted for wrong iteration")
			}
			if s.Verifier().Verify(tag(3, 1, types.One), 3, proof) {
				t.Fatal("ticket accepted for wrong type")
			}
		})
	}
}

func TestVerifyRejectsWrongNode(t *testing.T) {
	for name, s := range suites(t, 8, 1.0) {
		t.Run(name, func(t *testing.T) {
			proof, _ := s.Miner(3).Mine(tag(2, 1, types.One))
			if s.Verifier().Verify(tag(2, 1, types.One), 4, proof) {
				t.Fatal("node 3's ticket accepted as node 4's")
			}
		})
	}
}

func TestFailedAttemptYieldsNoProof(t *testing.T) {
	for name, s := range suites(t, 8, 0.0) {
		t.Run(name, func(t *testing.T) {
			proof, ok := s.Miner(0).Mine(tag(1, 1, types.Zero))
			if ok || proof != nil {
				t.Fatal("p=0 mining must fail with no proof")
			}
			if s.Verifier().Verify(tag(1, 1, types.Zero), 0, nil) {
				t.Fatal("verifier accepted an unsuccessful attempt")
			}
		})
	}
}

// TestIdealSecrecyBeforeMining checks Figure 1's "else return 0" branch:
// verify answers only for attempts that were actually mined, so the
// adversary cannot probe honest nodes' eligibility.
func TestIdealSecrecyBeforeMining(t *testing.T) {
	f := newIdeal(1.0)
	if f.Verifier().Verify(tag(1, 1, types.Zero), 5, nil) {
		t.Fatal("verify answered before mine was called")
	}
	proof, _ := f.Miner(5).Mine(tag(1, 1, types.Zero))
	if !f.Verifier().Verify(tag(1, 1, types.Zero), 5, proof) {
		t.Fatal("verify must answer after mining")
	}
}

// TestIdealForgedProofRejected: presenting wrong ticket bytes for a
// successful attempt must fail.
func TestIdealForgedProofRejected(t *testing.T) {
	f := newIdeal(1.0)
	proof, _ := f.Miner(5).Mine(tag(1, 1, types.Zero))
	forged := make([]byte, len(proof))
	copy(forged, proof)
	forged[0] ^= 1
	if f.Verifier().Verify(tag(1, 1, types.Zero), 5, forged) {
		t.Fatal("forged ticket bytes accepted")
	}
}

// TestBitSpecificIndependenceIdeal mirrors the VRF test: eligibility for b
// and 1−b must be independent coins in the ideal functionality too.
func TestBitSpecificIndependenceIdeal(t *testing.T) {
	const n = 4000
	const p = 0.3
	f := newIdeal(p)
	var both, forB, forN int
	for i := 0; i < n; i++ {
		m := f.Miner(types.NodeID(i))
		_, okB := m.Mine(tag(1, 7, types.Zero))
		_, okN := m.Mine(tag(1, 7, types.One))
		if okB {
			forB++
		}
		if okN {
			forN++
		}
		if okB && okN {
			both++
		}
	}
	pB, pN, pBoth := float64(forB)/n, float64(forN)/n, float64(both)/n
	if math.Abs(pBoth-pB*pN) > 0.03 {
		t.Fatalf("joint eligibility %.4f far from product %.4f", pBoth, pB*pN)
	}
}

// TestCommitteeSizeConcentration: with p = λ/n the committee size should
// concentrate around λ (this is the statistical core of Lemma 11).
func TestCommitteeSizeConcentration(t *testing.T) {
	const n = 2000
	const lambda = 80
	for name, s := range map[string]Suite{
		"ideal": func() Suite {
			var seed [32]byte
			return NewIdeal(seed, constProb(CommitteeProb(n, lambda)))
		}(),
		"real": func() Suite {
			var seed [32]byte
			pub, secrets := pki.Setup(n, seed)
			return NewReal(pub, secrets, constProb(CommitteeProb(n, lambda)))
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			count := 0
			for i := 0; i < n; i++ {
				if _, ok := s.Miner(types.NodeID(i)).Mine(tag(1, 1, types.Zero)); ok {
					count++
				}
			}
			// Mean λ=80, σ≈8.9; ±36 is ~4σ.
			if count < lambda-36 || count > lambda+36 {
				t.Fatalf("committee size %d far from λ=%d", count, lambda)
			}
		})
	}
}

func TestProbHelpers(t *testing.T) {
	if got := CommitteeProb(1000, 40); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("CommitteeProb = %v", got)
	}
	if got := CommitteeProb(10, 40); got != 1 {
		t.Fatalf("CommitteeProb must clamp to 1, got %v", got)
	}
	if got := CommitteeProb(0, 40); got != 0 {
		t.Fatalf("CommitteeProb with n=0 = %v", got)
	}
	if got := LeaderProb(1000); math.Abs(got-0.0005) > 1e-12 {
		t.Fatalf("LeaderProb = %v", got)
	}
	if got := LeaderProb(0); got != 0 {
		t.Fatalf("LeaderProb with n=0 = %v", got)
	}
}

// TestEligibilityThresholds pins the difficulties D_p that decide every
// committee and leader election at the benchmark's node counts (λ = 40).
// Eligibility is ρ < prf.Threshold(p), computed in IEEE-754 float64 from
// p = λ/n or 1/(2n); the values hold wherever Go does that arithmetic in
// float64 without extended precision, which this test checks on every
// architecture it runs on.
func TestEligibilityThresholds(t *testing.T) {
	for _, c := range []struct {
		n                 int
		committee, leader uint64
	}{
		{200, 0x3333333333333400, 0xa3d70a3d70a3d8},
		{1000, 0xa3d70a3d70a3d80, 0x20c49ba5e353f8},
		{10000, 0x10624dd2f1a9fc0, 0x346dc5d638865},
	} {
		if got := prf.Threshold(CommitteeProb(c.n, 40)); got != c.committee {
			t.Errorf("n=%d: Threshold(λ/n) = %#x, want %#x", c.n, got, c.committee)
		}
		if got := prf.Threshold(LeaderProb(c.n)); got != c.leader {
			t.Errorf("n=%d: Threshold(1/(2n)) = %#x, want %#x", c.n, got, c.leader)
		}
	}
}

func TestTagEncodingInjective(t *testing.T) {
	tags := []Tag{
		tag(1, 1, types.Zero),
		tag(1, 1, types.One),
		tag(1, 2, types.Zero),
		tag(2, 1, types.Zero),
		{Domain: "other", Type: 1, Iter: 1, Bit: types.Zero},
		{Domain: "test", Type: 1, Iter: 1, Bit: types.NoBit},
	}
	seen := make(map[string]Tag)
	for _, tg := range tags {
		k := string(tg.Encode())
		if prev, dup := seen[k]; dup {
			t.Fatalf("tags %v and %v encode identically", prev, tg)
		}
		seen[k] = tg
	}
}

func TestTagString(t *testing.T) {
	got := tag(2, 7, types.One).String()
	if got != "test/T2/r7/b1" {
		t.Fatalf("Tag.String() = %q", got)
	}
}

func TestRealVerifierCache(t *testing.T) {
	r := newReal(4, 1.0)
	m := r.Miner(2)
	proof, _ := m.Mine(tag(1, 1, types.Zero))
	v := r.Verifier()
	for i := 0; i < 3; i++ {
		if !v.Verify(tag(1, 1, types.Zero), 2, proof) {
			t.Fatal("cached verification flipped")
		}
	}
	bad := make([]byte, len(proof))
	if v.Verify(tag(1, 1, types.Zero), 2, bad) {
		t.Fatal("zero proof accepted")
	}
	if v.Verify(tag(1, 1, types.Zero), 2, bad) {
		t.Fatal("cached rejection flipped")
	}
}

// TestMinerAllocatesNothing pins how a suite hands out miners: each id's
// miner is built once, Real's with the suite and Ideal's with the first
// request for an id of its chunk, so building a node, starting an ABA
// instance or mining through Suite.Miner allocates nothing. One id gets one
// miner however its first requests race.
func TestMinerAllocatesNothing(t *testing.T) {
	const n, workers = 3*minerChunkLen + 5, 4
	for name, s := range suites(t, n, 0.5) {
		t.Run(name, func(t *testing.T) {
			got := make([][]Miner, workers)
			var wg sync.WaitGroup
			for w := range got {
				got[w] = make([]Miner, n)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range n {
						id := (i*(w+1) + w*minerChunkLen) % n // a different order per worker
						got[w][id] = s.Miner(types.NodeID(id))
					}
				}()
			}
			wg.Wait()
			for id := range n {
				m := got[0][id]
				if m.ID() != types.NodeID(id) {
					t.Fatalf("Miner(%d).ID() = %d", id, m.ID())
				}
				for w := 1; w < workers; w++ {
					if got[w][id] != m {
						t.Fatalf("Miner(%d) handed out two miners", id)
					}
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				for id := range n {
					s.Miner(types.NodeID(id))
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations handing out %d miners, want 0", allocs, n)
			}
		})
	}
}
