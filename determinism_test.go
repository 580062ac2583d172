package ccba

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ccba/internal/testenv"
)

// The golden values below were captured from the pre-refactor round engine
// (the seed tree, commit 3c34f38) and pin the full observable behaviour of a
// fixed-seed execution: a hash of every node's (output, decided) pair, the
// round count, and all four communication-complexity counters. The
// zero-allocation engine must reproduce them bit-for-bit, serially and on
// the worker pool — buffer reuse that changed delivery order, metrics
// accounting, or coin derivation would show up here immediately.

type goldenCase struct {
	name    string
	cfg     Config
	outputs string // first 16 hex chars of sha256 over (outputs, decided)
	rounds  int
	metrics Metrics
}

var goldenCases = []goldenCase{
	{
		name:    "core-ideal-n80",
		cfg:     Config{Protocol: Core, N: 80, F: 24, Lambda: 16, Crypto: Ideal},
		outputs: "4d30e1f10fb6597b",
		rounds:  11,
		metrics: Metrics{
			HonestMulticasts:     101,
			HonestMulticastBytes: 34613,
			HonestMessages:       8080,
			HonestMessageBytes:   2769040,
		},
	},
	{
		name:    "core-real-n40",
		cfg:     Config{Protocol: Core, N: 40, F: 12, Lambda: 12, Crypto: Real},
		outputs: "fb8e69bdfa2ad15b",
		rounds:  7,
		metrics: Metrics{
			HonestMulticasts:     53,
			HonestMulticastBytes: 16134,
			HonestMessages:       2120,
			HonestMessageBytes:   645360,
		},
	},
	{
		name:    "quadratic-n31",
		cfg:     Config{Protocol: Quadratic, N: 31, F: 15},
		outputs: "332810fe8e8b97f1",
		rounds:  7,
		metrics: Metrics{
			HonestMulticasts:     156,
			HonestMulticastBytes: 152019,
			HonestMessages:       4836,
			HonestMessageBytes:   4712589,
		},
	},
}

func outputsDigest(rep *Report) string {
	h := sha256.New()
	for _, b := range rep.Outputs {
		h.Write([]byte{byte(b)})
	}
	for _, d := range rep.Decided {
		v := byte(0)
		if d {
			v = 1
		}
		h.Write([]byte{v})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenProcs are the GOMAXPROCS settings the goldens are rerun at — the
// round engine steps nodes on min(GOMAXPROCS, n) workers, so "serial" is
// one worker and the rest are sharded stepping.
var goldenProcs = []struct {
	name  string
	procs int
}{{"serial", 1}, {"parallel", 2}, {"parallel-3", 3}, {"parallel-7", 7}}

func TestFixedSeedGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		for _, v := range goldenProcs {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				testenv.SetGOMAXPROCS(t, v.procs)
				cfg := tc.cfg
				cfg.Seed[0] = 7
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
			})
		}
	}
}

// The pluggable network-model layer must leave the default path untouched:
// an explicitly selected delta-one model (the lockstep fast path) and the
// general scheduler's Δ=1 behavior both reproduce the pre-refactor goldens
// bit for bit.
func TestDeltaOneExplicitMatchesGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed[0] = 7
			cfg.Net = NetDeltaOne
			cfg.Delta = 1
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
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
		})
	}
}

// Two executions of the same configuration must agree exactly — at every
// GOMAXPROCS, i.e. every stepping worker count — beyond the spot-checked
// goldens: every output, decision flag, and halt flag.
func TestSerialParallelIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) *Report {
				testenv.SetGOMAXPROCS(t, procs)
				cfg := tc.cfg
				cfg.Seed[0] = 7
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			a := run(1)
			for _, procs := range testenv.Procs[1:] {
				b := run(procs)
				for i := range a.Outputs {
					if a.Outputs[i] != b.Outputs[i] || a.Decided[i] != b.Decided[i] || a.Halted[i] != b.Halted[i] {
						t.Fatalf("node %d: serial (%v,%v,%v) vs GOMAXPROCS=%d (%v,%v,%v)",
							i, a.Outputs[i], a.Decided[i], a.Halted[i],
							procs, b.Outputs[i], b.Decided[i], b.Halted[i])
					}
				}
				if a.Rounds != b.Rounds || a.Result.Metrics != b.Result.Metrics {
					t.Fatalf("GOMAXPROCS=%d: rounds/metrics differ: %d %+v vs %d %+v",
						procs, a.Rounds, a.Result.Metrics, b.Rounds, b.Result.Metrics)
				}
			}
		})
	}
}
