package attest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ccba/internal/testenv"
	"ccba/internal/types"
)

// setScript drives s through a seeded Add/Contains/Count/Reset/Attestations
// script and logs every observable answer. It also returns each slice
// Attestations handed out, next to a copy of it taken at that moment.
func setScript(s *Set, seed int64) (log []string, got, snap [][]Attestation) {
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 600; step++ {
		id := types.NodeID(rng.Intn(16))
		switch op := rng.Intn(20); {
		case op < 10:
			proof := []byte(fmt.Sprintf("p%d-%d", id, rng.Intn(2)))
			log = append(log, fmt.Sprintf("add %d %s: %v", id, proof, s.Add(id, proof)))
		case op < 14:
			log = append(log, fmt.Sprintf("contains %d: %v", id, s.Contains(id)))
		case op < 16:
			log = append(log, fmt.Sprintf("count: %d", s.Count()))
		case op < 17:
			s.Reset()
			log = append(log, "reset")
		default:
			atts := s.Attestations()
			got, snap = append(got, atts), append(snap, slices.Clone(atts))
			log = append(log, fmt.Sprintf("attestations: %v", atts))
		}
	}
	return log, got, snap
}

// TestOwnedSetMatchesBound replays one seeded script on a zero Set and on a
// bound one. The answers must agree step for step, and no slice either mode
// returned from Attestations may change under later Adds and Resets: the
// owned set's is a copy, the bound set's an immutable shared state.
func TestOwnedSetMatchesBound(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		var owned, bound Set
		bound.Bind(NewInterner())
		logO, gotO, snapO := setScript(&owned, seed)
		logB, gotB, snapB := setScript(&bound, seed)
		if !slices.Equal(logO, logB) {
			for i := range logO {
				if logO[i] != logB[i] {
					t.Fatalf("seed %d step %d: owned %q, bound %q", seed, i, logO[i], logB[i])
				}
			}
		}
		for k := range gotO {
			if !equalAtts(gotO[k], snapO[k]) || !equalAtts(gotB[k], snapB[k]) {
				t.Fatalf("seed %d: Attestations() result %d changed after it was returned", seed, k)
			}
		}
	}
}

func equalAtts(a, b []Attestation) bool {
	return slices.EqualFunc(a, b, func(x, y Attestation) bool {
		return x.ID == y.ID && string(x.Proof) == string(y.Proof)
	})
}

// TestSetRefillAllocatesNothing pins Reset's promise in both modes: once a
// set has held a committee, emptying and refilling it allocates nothing —
// the owned set reuses its private state's backing array, the bound set
// follows the transitions its first fill recorded.
func TestSetRefillAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	proofs := make([][]byte, 40)
	for i := range proofs {
		proofs[i] = proofFor(types.NodeID(i))
	}
	var owned, bound Set
	bound.Bind(NewInterner())
	for name, s := range map[string]*Set{"owned": &owned, "bound": &bound} {
		refill := func() {
			s.Reset()
			for i, p := range proofs {
				s.Add(types.NodeID(i), p)
			}
		}
		refill() // warm-up: the first fill allocates the state
		if avg := testing.AllocsPerRun(20, refill); avg != 0 {
			t.Errorf("%s: Reset and refill allocated %.1f times per run", name, avg)
		}
		if s.Count() != len(proofs) {
			t.Errorf("%s: %d attestations after refill, want %d", name, s.Count(), len(proofs))
		}
	}
}

// TestSetBindRefusals pins that interning stays a construction-time choice
// for a two-word set: Bind and BindTo panic on a set that holds an
// attestation or is already bound.
func TestSetBindRefusals(t *testing.T) {
	in := NewInterner()
	hits := in.Hits()
	cases := map[string]func(){
		"Bind non-empty": func() {
			var s Set
			s.Add(1, proofFor(1))
			s.Bind(in)
		},
		"Bind bound": func() {
			var s Set
			s.Bind(in)
			s.Bind(in)
		},
		"BindTo non-empty": func() {
			var s Set
			s.Add(1, proofFor(1))
			s.BindTo(hits)
		},
		"BindTo bound": func() {
			var s Set
			s.BindTo(hits)
			s.BindTo(hits)
		},
	}
	for name, bind := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			bind()
		}()
	}
}
