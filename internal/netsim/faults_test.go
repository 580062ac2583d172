package netsim

import (
	"math/rand/v2"
	"strings"
	"testing"

	"ccba/internal/obs"
	"ccba/internal/types"
)

// faultyMask marks ids in an n-long mask.
func faultyMask(n int, ids ...types.NodeID) []bool {
	mask := make([]bool, n)
	for _, id := range ids {
		mask[id] = true
	}
	return mask
}

// A drop-only chaos schedule at Δ=1 must be schedule-identical to the
// omission schedule over the same key: the jitter spread degenerates to
// next-round delivery, so the live/sim cross-validation at Δ=1 compares
// omission drops only.
func TestChaosDegeneratesToOmission(t *testing.T) {
	const n = 6
	key := FoldSeed([32]byte{9, 9, 9})
	faulty := faultyMask(n, 1, 4)
	om := Faults{Delta: 1, Key: key, Faulty: faulty, Rate: 0.4}
	ch := Faults{Delta: 1, Spread: SpreadJitter, Key: key, Faulty: faulty, Rate: 0.4}
	var drops int
	for round := 0; round < 40; round++ {
		for from := types.NodeID(0); from < n; from++ {
			for to := types.NodeID(0); to < n; to++ {
				a, ak := ch.Decide(round, from, to)
				b, bk := om.Decide(round, from, to)
				if a != b || ak != bk {
					t.Fatalf("round %d %d→%d: chaos (%d, %s) vs omission (%d, %s)", round, from, to, a, ak, b, bk)
				}
				if a == Drop {
					drops++
				}
			}
		}
	}
	if drops == 0 {
		t.Fatal("no drops in 40 rounds at rate 0.4 — schedule is degenerate")
	}
}

// Crash windows drop every outbound link of the victim for exactly the
// window, as crash faults; Validate rejects an empty window and a victim
// outside the faulty set.
func TestChaosCrashWindow(t *testing.T) {
	fs := Faults{Delta: 1, Faulty: faultyMask(6, 3), Crash: 3, CrashFrom: 2, CrashUntil: 5}
	if _, err := fs.Validate(6, 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		got, kind := fs.Decide(round, 3, 0)
		want := 1
		if round >= 2 && round < 5 {
			want = Drop
			if kind != obs.FaultCrash {
				t.Fatalf("round %d: crash-window drop classified %s", round, kind)
			}
		}
		if got != want {
			t.Fatalf("round %d: decided %d, want %d", round, got, want)
		}
		if other, _ := fs.Decide(round, 0, 3); other != 1 {
			t.Fatalf("round %d: inbound link of crashed node decided %d, want 1", round, other)
		}
	}
	empty := fs
	empty.CrashFrom = 5
	if _, err := empty.Validate(6, 1); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty crash window: %v", err)
	}
	honest := fs
	honest.Faulty = nil
	if _, err := honest.Validate(6, 1); err == nil || !strings.Contains(err.Error(), "faulty set") {
		t.Fatalf("crash victim outside the faulty set: %v", err)
	}
}

// Partitions hold cross-cut links to Δ inside the window; same-side links
// keep their jitter schedule.
func TestChaosPartitionHold(t *testing.T) {
	fs := Faults{Delta: 3, Spread: SpreadJitter, Key: FoldSeed([32]byte{2}), Cut: 2, CutFrom: 1, CutUntil: 4}
	for round := 0; round < 6; round++ {
		cross, _ := fs.Decide(round, 0, 3)
		if round >= 1 && round < 4 {
			if cross != 3 {
				t.Fatalf("round %d: cross-cut link decided %d, want Δ=3", round, cross)
			}
		} else if cross < 1 || cross > 3 {
			t.Fatalf("round %d: cross-cut link outside the window decided %d", round, cross)
		}
		if same, _ := fs.Decide(round, 0, 1); same < 1 || same > 3 {
			t.Fatalf("round %d: same-side link decided %d", round, same)
		}
	}
}

// Validate shares one power boundary between the simulator and the live
// cluster: Δ, the rate, the budget, ids in range and a cut in range.
func TestFaultsValidate(t *testing.T) {
	cases := []struct {
		name string
		fs   Faults
		want string // substring of the error, "" for valid
	}{
		{"lockstep", Faults{Delta: 1}, ""},
		{"delta", Faults{}, "Δ ≥ 1"},
		{"rate", Faults{Delta: 1, Rate: 1.5}, "outside"},
		{"budget", Faults{Delta: 1, Faulty: faultyMask(4, 0, 1, 2)}, "budget"},
		{"unknown", Faults{Delta: 1, Faulty: faultyMask(8, 7)}, "node 7"},
		{"cut", Faults{Delta: 2, Cut: 5, CutUntil: 3}, "range"},
		{"cut-ok", Faults{Delta: 2, Cut: 2, CutUntil: 3}, ""},
	}
	for _, tc := range cases {
		mask, err := tc.fs.Validate(4, 2)
		if tc.want == "" {
			if err != nil || mask != nil {
				t.Errorf("%s: (%v, %v), want (nil, nil)", tc.name, mask, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// The per-link rule is on the scheduled engine's hot path: it must not
// allocate.
func TestFaultsDecideAllocatesNothing(t *testing.T) {
	m := Faults{Delta: 3, Spread: SpreadJitter, Key: 7, Faulty: faultyMask(8, 1, 5), Rate: 0.3, Cut: 4, CutUntil: 9}
	allocs := testing.AllocsPerRun(100, func() {
		for from := types.NodeID(0); from < 8; from++ {
			for to := types.NodeID(0); to < 8; to++ {
				m.Link(3, from, to)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Link allocated %v times per 64 links", allocs)
	}
}

// TestFaultsPowerBoundary draws seeded random schedules and, on every one
// Validate accepts, checks the adversary's power link by link: Decide drops
// only links from Faulty senders, answers every other link with a delay in
// [1, Δ], and agrees with Uniform wherever Uniform is ok; Link adds the
// one-round self-link. The runtimes apply these answers unchecked, so this
// is the whole power boundary of the network model.
func TestFaultsPowerBoundary(t *testing.T) {
	const trials, rounds = 300, 12
	rng := rand.New(rand.NewPCG(45, 1))
	valid, drops, holds := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(9)
		f := rng.IntN(n)
		fs := Faults{
			Delta:  1 + rng.IntN(4),
			Spread: Spread(rng.IntN(3)),
			Key:    rng.Uint64(),
			Rate:   []float64{0, 0.3, 1}[rng.IntN(3)],
		}
		if k := rng.IntN(f + 2); k > 0 {
			// Up to f + 1 faulty senders, so an overspent set is drawn too.
			fs.Faulty = make([]bool, n)
			for _, id := range rng.Perm(n)[:min(k, n)] {
				fs.Faulty[id] = true
			}
		}
		if rng.IntN(2) == 0 {
			fs.Cut, fs.CutFrom = types.NodeID(rng.IntN(n+1)), rng.IntN(rounds)
			fs.CutUntil = fs.CutFrom + rng.IntN(rounds)
		}
		if rng.IntN(2) == 0 {
			// Any victim, so one outside the faulty set is drawn too.
			fs.Crash, fs.CrashFrom = types.NodeID(rng.IntN(n)), rng.IntN(rounds)
			fs.CrashUntil = fs.CrashFrom + 1 + rng.IntN(rounds)
		}
		mask, err := fs.Validate(n, f)
		if err != nil {
			continue
		}
		valid++
		fs.Faulty = mask // what NewRuntime runs
		for r := 0; r < rounds+2; r++ {
			for from := types.NodeID(0); int(from) < n; from++ {
				uni, uniOK := fs.Uniform(r, from)
				for to := types.NodeID(0); int(to) < n; to++ {
					if d, _ := fs.Link(r, from, to); from == to && d != 1 {
						t.Fatalf("%+v: self-link %d at round %d takes %d rounds, want 1", fs, from, r, d)
					}
					if from == to {
						continue
					}
					d, _ := fs.Decide(r, from, to)
					switch {
					case d == Drop && (mask == nil || !mask[from]):
						t.Fatalf("%+v: round %d drops honest sender %d's link to %d", fs, r, from, to)
					case d == Drop:
						drops++
					case d < 1 || d > fs.Delta:
						t.Fatalf("%+v: round %d %d→%d delay %d outside [1, %d]", fs, r, from, to, d, fs.Delta)
					case d > 1:
						holds++
					}
					if uniOK && d != uni {
						t.Fatalf("%+v: Uniform(%d, %d) = %d, but Decide gives %d to %d", fs, r, from, uni, d, to)
					}
				}
			}
		}
	}
	if valid < trials/3 || drops == 0 || holds == 0 {
		t.Fatalf("%d of %d schedules valid, %d drops, %d delays past one round: the draw exercises too little", valid, trials, drops, holds)
	}
}
