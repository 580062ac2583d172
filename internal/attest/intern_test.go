package attest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"ccba/internal/types"
)

func proofFor(id types.NodeID) []byte {
	return []byte(fmt.Sprintf("proof-%d", id))
}

// TestInternedMatchesOwned replays the same add sequence (including
// duplicate-id rejections) through an owned and an interned set and
// requires identical observable behaviour.
func TestInternedMatchesOwned(t *testing.T) {
	in := NewInterner()
	var owned, interned Set
	interned.Bind(in)

	seq := []types.NodeID{4, 1, 9, 1, 4, 7, 2, 9, 3}
	for _, id := range seq {
		gotO := owned.Add(id, proofFor(id))
		gotI := interned.Add(id, proofFor(id))
		if gotO != gotI {
			t.Fatalf("Add(%d): owned=%v interned=%v", id, gotO, gotI)
		}
	}
	if owned.Count() != interned.Count() {
		t.Fatalf("Count: owned=%d interned=%d", owned.Count(), interned.Count())
	}
	for id := types.NodeID(0); id < 12; id++ {
		if owned.Contains(id) != interned.Contains(id) {
			t.Fatalf("Contains(%d) disagrees", id)
		}
	}
	ao, ai := owned.Attestations(), interned.Attestations()
	if len(ao) != len(ai) {
		t.Fatalf("Attestations length: owned=%d interned=%d", len(ao), len(ai))
	}
	for i := range ao {
		if ao[i].ID != ai[i].ID || string(ao[i].Proof) != string(ai[i].Proof) {
			t.Fatalf("attestation %d differs: %v vs %v", i, ao[i], ai[i])
		}
	}

	owned.Reset()
	interned.Reset()
	if interned.Count() != 0 || interned.Contains(1) {
		t.Fatalf("interned set not empty after Reset")
	}
	if !interned.Add(5, proofFor(5)) || interned.Count() != 1 {
		t.Fatalf("interned set not reusable after Reset")
	}
}

// sharers counts the sets (ref included) holding ref's state handle.
func sharers(sets []Set, ref *Set) int {
	n := 0
	for i := range sets {
		if ref.SharesStorageWith(&sets[i]) {
			n++
		}
	}
	return n
}

// TestInternSharingAndForks is the copy-on-divergence contract: sets that
// perform identical add sequences share one handle, and the first
// divergent mutation — and exactly that mutation — forks them, with clone
// telemetry and sharer counts matching.
func TestInternSharingAndForks(t *testing.T) {
	in := NewInterner()
	const nodes = 64
	sets := make([]Set, nodes)
	for i := range sets {
		sets[i].Bind(in)
	}

	// Identical phase: every node sees the same 10 attestations.
	for add := types.NodeID(0); add < 10; add++ {
		for i := range sets {
			sets[i].Add(add, proofFor(add))
		}
	}
	for i := 1; i < nodes; i++ {
		if !sets[0].SharesStorageWith(&sets[i]) {
			t.Fatalf("set %d does not share storage after identical history", i)
		}
	}
	st := in.Stats()
	if st.States != 10 {
		t.Fatalf("identical histories interned %d states, want 10", st.States)
	}
	if st.Clones != st.States {
		t.Fatalf("clones=%d != states=%d", st.Clones, st.States)
	}
	if st.Forks != 0 {
		t.Fatalf("forks=%d before any divergence", st.Forks)
	}
	wantHits := int64(nodes*10 - 10) // every add after the first per state
	if st.Hits != wantHits {
		t.Fatalf("hits=%d, want %d", st.Hits, wantHits)
	}
	if got := sharers(sets, &sets[0]); got != nodes {
		t.Fatalf("shared handle held by %d sets, want %d", got, nodes)
	}
	// Certificates cut from interned sets alias one backing array.
	if &sets[0].Attestations()[0] != &sets[1].Attestations()[0] {
		t.Fatalf("interned Attestations() did not alias shared storage")
	}

	// Divergence: node 7 alone receives an extra (adversarial unicast)
	// attestation. Its handle must fork; everyone else stays shared.
	sets[7].Add(40, proofFor(40))
	if sets[7].SharesStorageWith(&sets[0]) {
		t.Fatalf("divergent set still shares storage")
	}
	if !sets[0].SharesStorageWith(&sets[63]) {
		t.Fatalf("non-divergent sets stopped sharing")
	}
	st = in.Stats()
	if st.States != 11 {
		t.Fatalf("divergence interned %d states, want 11", st.States)
	}
	if got := sharers(sets, &sets[0]); got != nodes-1 {
		t.Fatalf("majority handle held by %d sets after fork, want %d", got, nodes-1)
	}
	if got := sharers(sets, &sets[7]); got != 1 {
		t.Fatalf("divergent handle held by %d sets, want 1", got)
	}

	// The fork counter trips when the shared predecessor gains its second
	// successor: everyone else now adds a *different* id 40-successor.
	for i := range sets {
		if i == 7 {
			continue
		}
		sets[i].Add(41, proofFor(41))
	}
	st = in.Stats()
	if st.Forks != 1 {
		t.Fatalf("forks=%d after divergent histories split, want 1", st.Forks)
	}
	if st.States != 12 {
		t.Fatalf("states=%d after majority advance, want 12", st.States)
	}

	// Convergence: node 7 performs the same adds as the majority and lands
	// back on... a different state (its history differs), proving sharing
	// is by history, not by count.
	sets[7].Add(41, proofFor(41))
	if sets[7].SharesStorageWith(&sets[0]) {
		t.Fatalf("divergent history must not re-share with majority")
	}
}

// TestInternProofDisambiguation pins the adversarial corner: the same id
// added with two different proofs from the same predecessor state must
// yield two distinct successor states, not a shared one.
func TestInternProofDisambiguation(t *testing.T) {
	in := NewInterner()
	var a, b Set
	a.Bind(in)
	b.Bind(in)
	a.Add(3, []byte("honest"))
	b.Add(3, []byte("forged"))
	if a.SharesStorageWith(&b) {
		t.Fatalf("distinct proofs for one id must fork")
	}
	if st := in.Stats(); st.States != 2 || st.Forks != 1 {
		t.Fatalf("stats=%+v, want 2 states and 1 fork", st)
	}
	if got := string(a.Attestations()[0].Proof); got != "honest" {
		t.Fatalf("set a proof corrupted: %q", got)
	}
	if got := string(b.Attestations()[0].Proof); got != "forged" {
		t.Fatalf("set b proof corrupted: %q", got)
	}
}

// TestInternBindPanics pins that interning is construction-time only.
func TestInternBindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Bind on non-empty set did not panic")
		}
	}()
	var s Set
	s.Add(1, proofFor(1))
	s.Bind(NewInterner())
}

// TestInternConcurrent hammers one table from many goroutines (the
// sharded stepping access pattern) so the race detector can vet the
// locking; every goroutine must observe the same final content.
func TestInternConcurrent(t *testing.T) {
	in := NewInterner()
	const workers = 8
	const adds = 200
	var wg sync.WaitGroup
	results := make([][]Attestation, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s Set
			s.Bind(in)
			for i := 0; i < adds; i++ {
				id := types.NodeID(i)
				s.Add(id, proofFor(id))
			}
			results[w] = s.Attestations()
		}(w)
	}
	wg.Wait()
	// The counters are schedule-independent: each state is created once,
	// every other Add is a hit, whichever worker got there first.
	if st, want := in.Stats(), (InternStats{States: adds, Clones: adds, Hits: (workers - 1) * adds}); st != want {
		t.Fatalf("stats after %d workers x %d adds = %+v, want %+v", workers, adds, st, want)
	}
	for w := 1; w < workers; w++ {
		if len(results[w]) != adds {
			t.Fatalf("worker %d has %d attestations, want %d", w, len(results[w]), adds)
		}
		for i := range results[w] {
			if results[w][i].ID != results[0][i].ID {
				t.Fatalf("worker %d attestation %d differs", w, i)
			}
		}
	}
}

// TestInternConcurrentForks races the locked record path: workers split
// into two histories at the root, so first successors, fork records and hits
// through the fork map all happen concurrently. Content and counters must
// come out as a serial execution's would.
func TestInternConcurrentForks(t *testing.T) {
	in := NewInterner()
	const workers, adds = 8, 50
	sets := make([]Set, workers)
	for i := range sets {
		sets[i].Bind(in)
	}
	var wg sync.WaitGroup
	for w := range sets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sets[w].Add(types.NodeID(1000+w%2), proofFor(types.NodeID(w%2)))
			for i := 0; i < adds; i++ {
				sets[w].Add(types.NodeID(i), proofFor(types.NodeID(i)))
			}
		}(w)
	}
	wg.Wait()
	for w := range sets {
		if got := sharers(sets, &sets[w]); got != workers/2 {
			t.Fatalf("set %d shares its handle with %d sets, want its half (%d)", w, got, workers/2)
		}
		if atts := sets[w].Attestations(); len(atts) != adds+1 || atts[0].ID != types.NodeID(1000+w%2) {
			t.Fatalf("set %d holds the wrong history", w)
		}
	}
	states := 2 * (adds + 1)
	if st, want := in.Stats(), (InternStats{States: states, Clones: states, Hits: int64(workers*(adds+1) - states), Forks: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestInternHitsSumAcrossBlocks binds more sets than one hit block holds,
// from several goroutines at once: every block but the newest must fill
// exactly, Stats must report every hit, and the handle a Set carries must
// not have grown it past two words (a state handle and a hit block; a core
// node holds ten Sets, n nodes).
func TestInternHitsSumAcrossBlocks(t *testing.T) {
	if got, want := unsafe.Sizeof(Set{}), 2*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("attest.Set is %d bytes, want two words (%d)", got, want)
	}
	in := NewInterner()
	const workers, adds = 4, 4
	sets := make([]Set, 3*bindsPerHitBlock+7)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sets); i += workers {
				sets[i].Bind(in)
				for a := types.NodeID(0); a < adds; a++ {
					sets[i].Add(a, proofFor(a))
				}
			}
		}(w)
	}
	wg.Wait()
	perBlock := map[*hitBlock]int{}
	for i := range sets {
		perBlock[sets[i].in]++
	}
	blocks := 0
	for b := in.cur.Load(); b != nil; b = b.prev {
		blocks++
		if want := bindsPerHitBlock; b != in.cur.Load() && perBlock[b] != want {
			t.Errorf("a closed hit block holds %d sets, want %d", perBlock[b], want)
		}
	}
	if blocks != 4 || len(perBlock) != 4 {
		t.Errorf("%d sets were bound to %d hit blocks (%d in use), want 4", len(sets), blocks, len(perBlock))
	}
	if st, want := in.Stats(), (InternStats{States: adds, Clones: adds, Hits: int64(len(sets)*adds - adds)}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestBindToSharesTheHitBlock is the per-node contract: sets bound to a
// node's Hits after every place is taken — the way a keep-all core node
// binds the window slots it grows from Step — count every hit on that
// place's block and take no place of their own, and a set bound to the
// zero Hits stays owned.
func TestBindToSharesTheHitBlock(t *testing.T) {
	in := NewInterner()
	const nodes, perNode, adds = 3 * bindsPerHitBlock / 2, 4, 3
	hits := make([]Hits, nodes)
	for i := range hits {
		hits[i] = in.Hits()
	}
	blocks := 0
	for b := in.cur.Load(); b != nil; b = b.prev {
		blocks++
	}
	if blocks != 2 {
		t.Fatalf("%d places opened %d hit blocks, want 2", nodes, blocks)
	}
	sets := make([][perNode]Set, nodes)
	for i := range sets {
		for k := range sets[i] {
			s := &sets[i][k]
			s.BindTo(hits[i])
			if !s.CountsOn(hits[i]) || !s.Interned() {
				t.Fatalf("node %d set %d does not count on its node's block", i, k)
			}
			for a := types.NodeID(0); a < adds; a++ {
				s.Add(a, proofFor(a))
			}
		}
	}
	if got := in.cur.Load().bound.Load(); got != nodes-bindsPerHitBlock {
		t.Errorf("newest block holds %d places after BindTo, want %d (Hits calls only)", got, nodes-bindsPerHitBlock)
	}
	if hits[0] == hits[nodes-1] {
		t.Errorf("first and last node share a block across %d places", nodes)
	}
	if st, want := in.Stats(), (InternStats{States: adds, Clones: adds, Hits: int64(nodes*perNode*adds - adds)}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	var s Set
	s.BindTo(Hits{})
	if s.Interned() || s.CountsOn(Hits{}) {
		t.Errorf("a set bound to the zero Hits is interned")
	}
}

// TestInternDuplicateFromRecordedState covers Add's recorded-transition
// path at a state that already has a successor: a duplicate id — with its
// own proof or another — must miss every recorded transition, fall through
// to the duplicate scan, and be refused without moving the set or the
// table's counters.
func TestInternDuplicateFromRecordedState(t *testing.T) {
	in := NewInterner()
	var lead, follow Set
	lead.Bind(in)
	follow.Bind(in)
	for _, id := range []types.NodeID{1, 2} {
		lead.Add(id, proofFor(id))
		follow.Add(id, proofFor(id))
	}
	lead.Add(3, proofFor(3)) // records {1,2} --(3)--> {1,2,3}
	lead.Reset()
	lead.Add(1, proofFor(1))
	lead.Add(2, proofFor(2))
	lead.Add(4, proofFor(4)) // and a fork {1,2} --(4)--> {1,2,4}
	if follow.Count() != 2 || follow.h.first.Load() == nil || follow.h.forks == nil {
		t.Fatalf("follower's state {1,2} should have a first successor and a fork")
	}

	before, state := in.Stats(), follow.h
	for _, tc := range []struct {
		id    types.NodeID
		proof []byte
	}{
		{1, []byte("forged")},
		{2, proofFor(2)},
		{1, proofFor(3)}, // the recorded successor's proof under a present id
	} {
		if follow.Add(tc.id, tc.proof) {
			t.Errorf("duplicate Add(%d, %q) accepted", tc.id, tc.proof)
		}
		if follow.h != state {
			t.Fatalf("duplicate Add(%d, %q) moved the set", tc.id, tc.proof)
		}
	}
	if st := in.Stats(); st != before {
		t.Errorf("duplicate Adds changed the stats: %+v, was %+v", st, before)
	}

	// The recorded transitions themselves are hits and land on the
	// recorded states.
	if !follow.Add(4, proofFor(4)) || !follow.SharesStorageWith(&lead) {
		t.Fatal("recorded fork not taken")
	}
	if st := in.Stats(); st.Hits != before.Hits+1 || st.States != before.States {
		t.Errorf("fork hit: stats %+v, was %+v", st, before)
	}
}

// TestInternRandomSequencesMatchOwned replays seeded random add sequences —
// small id ranges so duplicates are common, two proofs per id so the same
// id arrives with different proofs, resets in between — through sets that
// mostly follow one shared history and sometimes diverge, each beside an
// owned twin. Every Add's answer and every set's content must match the
// twin's, and the counters must satisfy the table's accounting: one clone
// per state, and every accepted Add either created a state or hit one.
func TestInternRandomSequencesMatchOwned(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := NewInterner()
		const sets = 5
		owned, interned := make([]Set, sets), make([]Set, sets)
		for i := range interned {
			interned[i].Bind(in)
		}
		var accepted int64
		for step := 0; step < 400; step++ {
			if rng.Intn(40) == 0 {
				for i := range interned {
					owned[i].Reset()
					interned[i].Reset()
				}
				continue
			}
			id := types.NodeID(rng.Intn(12))
			proof := []byte(fmt.Sprintf("p%d-%d", id, rng.Intn(2)))
			for i := range interned {
				id, proof := id, proof
				if rng.Intn(8) == 0 { // this set diverges on this step
					id = types.NodeID(rng.Intn(12))
					proof = []byte(fmt.Sprintf("p%d-%d", id, rng.Intn(2)))
				}
				gotO, gotI := owned[i].Add(id, proof), interned[i].Add(id, proof)
				if gotO != gotI {
					t.Fatalf("seed %d step %d set %d: Add(%d, %s) owned=%v interned=%v", seed, step, i, id, proof, gotO, gotI)
				}
				if gotI {
					accepted++
				}
				ao, ai := owned[i].Attestations(), interned[i].Attestations()
				if len(ao) != len(ai) {
					t.Fatalf("seed %d step %d set %d: %d owned attestations, %d interned", seed, step, i, len(ao), len(ai))
				}
				for k := range ao {
					if ao[k].ID != ai[k].ID || string(ao[k].Proof) != string(ai[k].Proof) {
						t.Fatalf("seed %d step %d set %d: attestation %d differs: %v vs %v", seed, step, i, k, ao[k], ai[k])
					}
				}
			}
		}
		st := in.Stats()
		if st.Clones != st.States || st.Hits+int64(st.States) != accepted {
			t.Errorf("seed %d: stats %+v for %d accepted Adds, want clones = states and hits + states = accepted", seed, st, accepted)
		}
	}
}
