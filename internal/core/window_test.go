package core

import (
	"testing"

	"ccba/internal/attest"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// Under the lockstep fact (Δ = 1, passive adversary) a node recycles its
// window and never leaves its two inline slots, on the dense and the Sparse
// engine, with owned and with interned sets, while a keep-all node of the
// same run holds more than two iterations. That the two runs give the same
// Result is the root package's TestEquivalenceMatrix (its keep-all column).
// A window holds only iterations that received votes or commits, and an
// honest run's votes mostly fall in its first and its deciding iteration;
// at λ = 8 this seed's committees also fall short of the quorum in between,
// so the keep-all window has more to hold.
func TestLockstepWindowStaysInline(t *testing.T) {
	const n, f, lambda = 80, 24, 8
	run := func(lockstep, sparse, interned bool) (*netsim.Result, []netsim.Node) {
		cfg := Config{
			N: n, F: f, Lambda: lambda, MaxIters: 60,
			Suite:    fmine.NewIdeal([32]byte{22}, Probabilities(n, lambda)),
			Lockstep: lockstep,
		}
		if interned {
			cfg.Intern = attest.NewInterner()
		}
		nodes, err := NewNodes(cfg, mixedInputs(n))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds(), Sparse: sparse}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), nodes
	}
	maxSlots := func(nodes []netsim.Node) int {
		most := 0
		for _, nd := range nodes {
			c := nd.(*Node)
			most = max(most, c.st.votes.len(), c.st.commits.len())
		}
		return most
	}

	res, keepAll := run(false, false, false)
	checkAll(t, res, mixedInputs(n))
	if most := maxSlots(keepAll); most <= 2 {
		t.Fatalf("keep-all nodes held at most %d iterations; the run never leaves the inline slots", most)
	}
	for _, tc := range []struct {
		name             string
		sparse, interned bool
	}{
		{"dense-engine/owned", false, false},
		{"dense-engine/interned", false, true},
		{"sparse-engine/owned", true, false},
		{"sparse-engine/interned", true, true},
	} {
		_, nodes := run(true, tc.sparse, tc.interned)
		if most := maxSlots(nodes); most != 2 {
			t.Errorf("%s: a lockstep node holds %d slots, want the 2 inline ones", tc.name, most)
		}
	}
}

// TestWindowSetRotation pins the one store's three behaviours directly: a
// lockstep window rotates through its two inline slots without growing or
// allocating, a keep-all window retains every iteration, and traffic
// outside a lockstep window gets a slot of its own — kept, not reset, and
// without disturbing the live iterations.
func TestWindowSetRotation(t *testing.T) {
	newNode := func(lockstep bool, in *attest.Interner) *Node {
		cfg := Config{
			N: 9, F: 2, Lambda: 3, MaxIters: 200,
			Suite:    fmine.NewIdeal([32]byte{1}, Probabilities(9, 3)),
			Lockstep: lockstep,
			Intern:   in,
		}
		return soloNode(t, cfg, 0, types.Zero)
	}

	t.Run("lockstep rotates in place", func(t *testing.T) {
		for _, in := range []*attest.Interner{nil, attest.NewInterner()} {
			nd := newNode(true, in)
			var iter uint32
			// One call is 100 iterations of lockstep traffic: commits for
			// the previous iteration arrive, then votes for the current one.
			hundred := func() {
				for range 100 {
					iter++
					if iter > 1 {
						nd.commitSet(iter - 1)[1].Add(4, nil)
					}
					votes := nd.voteSet(iter)
					votes[0].Add(5, nil)
					votes[0].Add(6, nil)
					if votes[0].Count() != 2 || votes[1].Count() != 0 {
						t.Fatalf("iteration %d: a recycled slot kept traffic (counts %d/%d)", iter, votes[0].Count(), votes[1].Count())
					}
				}
			}
			if allocs := testing.AllocsPerRun(1, hundred); allocs != 0 {
				t.Errorf("interned=%v: %v allocations over 100 lockstep iterations, want 0", in != nil, allocs)
			}
			if nd.st.votes.len() != 2 || nd.st.commits.len() != 2 {
				t.Errorf("interned=%v: window grew to %d vote / %d commit slots", in != nil, nd.st.votes.len(), nd.st.commits.len())
			}
		}
	})

	t.Run("keep-all retains every iteration", func(t *testing.T) {
		nd := newNode(false, nil)
		for iter := uint32(1); iter <= 100; iter++ {
			nd.voteSet(iter)[iter%2].Add(types.NodeID(iter%9), nil)
		}
		for iter := uint32(1); iter <= 100; iter++ {
			s := nd.st.votes.held(iter)
			if s == nil || s[iter%2].Count() != 1 || !s[iter%2].Contains(types.NodeID(iter%9)) || s[1-iter%2].Count() != 0 {
				t.Fatalf("iteration %d lost or mixed its votes: %v", iter, s)
			}
		}
		if nd.st.votes.len() != 100 {
			t.Errorf("keep-all window holds %d slots for 100 iterations", nd.st.votes.len())
		}
	})

	t.Run("out-of-window arrival is kept", func(t *testing.T) {
		nd := newNode(true, nil)
		nd.voteSet(5)[0].Add(1, nil)
		nd.voteSet(6)[1].Add(2, nil)
		// Iteration 3 is older than the window: it may not recycle 5 or 6.
		nd.voteSet(3)[0].Add(7, nil)
		if got := nd.voteSet(3); got[0].Count() != 1 || !got[0].Contains(7) {
			t.Fatalf("an out-of-window arrival was not kept: count %d", got[0].Count())
		}
		if nd.st.votes.held(5)[0].Count() != 1 || nd.st.votes.held(6)[1].Count() != 1 {
			t.Fatal("an out-of-window arrival disturbed the live iterations")
		}
		// The vote and commit windows are independent.
		nd.commitSet(6)[0].Add(8, nil)
		if nd.voteSet(6)[0].Contains(8) {
			t.Fatal("commit window leaked into vote window")
		}
	})
}
