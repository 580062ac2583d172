package ccba

import (
	"fmt"
	"testing"

	"ccba/internal/testenv"
)

// A Sparse run (Config.Sparse, DESIGN.md §6) must be observationally
// equivalent to the non-Sparse run of the same config. There is one round
// engine and one node state under both — core's window follows the
// delivery model, and every run interns — so Sparse is an assertion plus
// the intern statistics, and these tests pin that it changes nothing else.
// Two layers of pinning:
//
//   - the PR1 fixed-seed goldens reproduce bit-for-bit under Sparse —
//     same outputs digest, rounds, and all four metrics counters — at
//     every stepping worker count (sparse runs intern, so this also pins
//     interned ≡ owned attestation storage);
//   - a sweep across every protocol (both crypto modes where relevant)
//     compares sparse runs at GOMAXPROCS ∈ {1, 2, 4, 8} against a
//     non-Sparse run of the same config.

// sparseEquivWorkers are the GOMAXPROCS settings — hence stepping worker
// counts — the equivalence suite sweeps: serial, one shard per core of a
// small host, and splits past it. The shards share the F_mine table and the
// attestation intern table without locking their hit paths, so every count
// is a distinct interleaving.
var sparseEquivWorkers = []int{1, 2, 4, 8}

func TestSparseMatchesGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		for _, workers := range sparseEquivWorkers {
			t.Run(fmt.Sprintf("%s/sparse-w%d", tc.name, workers), func(t *testing.T) {
				testenv.SetGOMAXPROCS(t, workers)
				cfg := tc.cfg
				cfg.Seed[0] = 7
				cfg.Sparse = true
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() {
					t.Fatalf("violation: consistency=%v validity=%v termination=%v",
						rep.Consistency, rep.Validity, rep.Termination)
				}
				if got := outputsDigest(rep); got != tc.outputs {
					t.Errorf("outputs digest = %s, want %s", got, tc.outputs)
				}
				if rep.Rounds != tc.rounds {
					t.Errorf("rounds = %d, want %d", rep.Rounds, tc.rounds)
				}
				if rep.Result.Metrics != tc.metrics {
					t.Errorf("metrics = %+v, want %+v", rep.Result.Metrics, tc.metrics)
				}
				if rep.Intern == nil {
					t.Errorf("sparse run did not intern")
				}
			})
		}
	}
}

func TestSparseMatchesDenseAcrossProtocols(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"core-ideal", Config{Protocol: Core, N: 120, F: 36, Lambda: 20}},
		{"core-real", Config{Protocol: Core, N: 48, F: 14, Lambda: 12, Crypto: Real}},
		{"core-broadcast", Config{Protocol: CoreBroadcast, N: 60, F: 18, Lambda: 14, SenderInput: One}},
		{"quadratic", Config{Protocol: Quadratic, N: 31, F: 15}},
		{"phaseking-plain", Config{Protocol: PhaseKingPlain, N: 30, F: 9, Epochs: 8}},
		{"phaseking-sampled", Config{Protocol: PhaseKingSampled, N: 90, F: 18, Lambda: 24, Epochs: 10}},
		{"chenmicali", Config{Protocol: ChenMicali, N: 60, F: 20, Lambda: 24, Epochs: 6}},
		{"dolevstrong", Config{Protocol: DolevStrong, N: 24, F: 8, SenderInput: One}},
		{"committee-echo", Config{Protocol: CommitteeEcho, N: 64, F: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sparse bool, workers int) *Report {
				testenv.SetGOMAXPROCS(t, workers)
				cfg := tc.cfg
				cfg.Seed[0] = 11
				cfg.Sparse = sparse
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			d := run(false, 1)
			for _, workers := range sparseEquivWorkers {
				s := run(true, workers)
				if d.Rounds != s.Rounds || d.Result.Metrics != s.Result.Metrics {
					t.Fatalf("w%d: rounds/metrics: dense %d %+v, sparse %d %+v",
						workers, d.Rounds, d.Result.Metrics, s.Rounds, s.Result.Metrics)
				}
				for i := range d.Outputs {
					if d.Outputs[i] != s.Outputs[i] || d.Decided[i] != s.Decided[i] || d.Halted[i] != s.Halted[i] {
						t.Fatalf("w%d node %d: dense (%v,%v,%v) sparse (%v,%v,%v)", workers, i,
							d.Outputs[i], d.Decided[i], d.Halted[i],
							s.Outputs[i], s.Decided[i], s.Halted[i])
					}
				}
				// The checker verdicts must agree too.
				if (d.Consistency == nil) != (s.Consistency == nil) ||
					(d.Validity == nil) != (s.Validity == nil) ||
					(d.Termination == nil) != (s.Termination == nil) {
					t.Fatalf("w%d: checker verdicts differ: dense (%v,%v,%v) sparse (%v,%v,%v)",
						workers, d.Consistency, d.Validity, d.Termination,
						s.Consistency, s.Validity, s.Termination)
				}
			}
		})
	}
}

// TestInternStatsAcrossWorkers pins the intern table's telemetry to the
// execution, not to the schedule: hits are counted per block of sets rather
// than on the table (DESIGN.md §6), and Report.Intern must not show it. In a
// passive lockstep run all n nodes receive the same multicasts and so
// perform the same add sequence: every state is created by whichever node
// gets there first and hit by the other n−1, and the only state with two
// successors is the empty root every tag's set starts from.
func TestInternStatsAcrossWorkers(t *testing.T) {
	const n = 2000
	var serial InternStats
	for _, workers := range []int{1, 2, 3, 8} {
		testenv.SetGOMAXPROCS(t, workers)
		cfg := Config{Protocol: Core, N: n, F: 600, Lambda: 40, Sparse: true}
		cfg.Seed[0] = 7
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() || rep.Intern == nil {
			t.Fatalf("w%d: ok=%v intern=%v", workers, rep.Ok(), rep.Intern)
		}
		st := *rep.Intern
		if workers == 1 {
			serial = st
			adds := int64(n) * int64(st.States)
			if st.States == 0 || st.Clones != st.States || st.Forks != 1 || st.Hits != adds-int64(st.States) {
				t.Fatalf("serial intern stats %+v: want clones = states > 0, one fork, hits = adds (%d) - states", st, adds)
			}
		} else if st != serial {
			t.Errorf("w%d: intern stats %+v, serial run says %+v", workers, st, serial)
		}
	}
}

// Illegal sparse combinations must be rejected at the scenario layer with
// an explanatory error, before any nodes are built.
func TestSparseConfigRejections(t *testing.T) {
	base := Config{Protocol: Core, N: 40, F: 12, Lambda: 10, Sparse: true}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"worst-case-net", func(c *Config) { c.Net = NetWorstCase; c.Delta = 2 }},
		{"jitter-net", func(c *Config) { c.Net = NetJitter; c.Delta = 2 }},
		{"adversary", func(c *Config) {
			adv, err := NewAdversary("silent", *c, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.Adversary = adv
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("config %+v unexpectedly accepted", cfg)
			}
		})
	}
}
