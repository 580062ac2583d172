package ccba

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The async-track determinism goldens (DESIGN.md §11): fixed-seed
// executions of the registered aba-n16 / acs-n16 scenarios — one per
// scheduler mode — pinned by a digest over every node's (output, decided,
// halted) triple, the delivery count, and the decide round. The event
// runtime has no worker pool of its own, but its executions flow through
// the trial harness, so the goldens are additionally asserted to be
// byte-identical between the serial and parallel trial schedules, and the
// canonical JSONL trace export is pinned by its own digest: a drift in
// delivery order, coin derivation, or event emission shows up as a one-line
// hash mismatch.

type asyncGoldenCase struct {
	name     string
	scenario string // named scenario; "" means the explicit cfg below
	cfg      Config
	digest   string // first 16 hex chars of sha256 over (outputs, decided, halted)
	rounds   int    // event-runtime deliveries
	decide   int    // slowest honest decide round
	setSize  int    // ACS output-set size; -1 for non-ACS
	trace    string // first 16 hex chars of sha256 over the canonical JSONL trace
}

var asyncGoldenCases = []asyncGoldenCase{
	{
		name:     "aba-n16-random",
		scenario: "aba-n16",
		digest:   "1c0985ef603e08de", rounds: 2990, decide: 4, setSize: -1, trace: "2c82ebb183f1f4b7",
	},
	{
		name:     "aba-n16-adv-delay",
		scenario: "aba-adv-n16",
		digest:   "1c0985ef603e08de", rounds: 3671, decide: 4, setSize: -1, trace: "4a2cba080d72f362",
	},
	{
		name:   "aba-n16-fifo",
		cfg:    Config{Protocol: ABA, N: 16, F: 5, Sched: SchedFIFO},
		digest: "b8c6c1c2ca61cffe", rounds: 2128, decide: 2, setSize: -1, trace: "66a4024f1b7540fb",
	},
	{
		// The random schedule legitimately excludes two slow slots here:
		// their ABA instances see n−f zero-votes before the matching BRB
		// delivers, so the set lands at 14 of 16 — above the n−f = 11 floor.
		name:     "acs-n16-random",
		scenario: "acs-n16",
		digest:   "b8c6c1c2ca61cffe", rounds: 31301, decide: 4, setSize: 14, trace: "d33adc3737cd29d5",
	},
	{
		name:     "acs-crash-n16-adv-delay",
		scenario: "acs-crash-n16",
		digest:   "900e056b22e58337", rounds: 18741, decide: 4, setSize: 11, trace: "b4ed51c72a99a3d8",
	},
	{
		// The async_acs_n32 benchmark workload's shape, where a multicast
		// fans out to 32 links: the event queue's width matters here and
		// not at n = 16. Each traced run takes ~0.15 s.
		name:   "acs-n32-random",
		cfg:    Config{Protocol: ACS, N: 32, F: 10, Sched: SchedRandom},
		digest: "a374910806592750", rounds: 252916, decide: 4, setSize: 25, trace: "29a2d8d6de1c88e9",
	},
	{
		name:   "acs-n32-fifo",
		cfg:    Config{Protocol: ACS, N: 32, F: 10, Sched: SchedFIFO},
		digest: "7d87fc68f80962fa", rounds: 309536, decide: 4, setSize: 32, trace: "b6e36e4a39a51d81",
	},
}

// asyncGoldenConfig resolves a case to a runnable config with the pinned
// seed.
func asyncGoldenConfig(t *testing.T, tc asyncGoldenCase) Config {
	t.Helper()
	cfg := tc.cfg
	if tc.scenario != "" {
		sc, ok := LookupScenario(tc.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", tc.scenario)
		}
		var err error
		cfg, err = sc.Resolve([32]byte{}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg.Seed = [32]byte{}
	cfg.Seed[0] = 7
	return cfg
}

func asyncStateDigest(rep *Report) string {
	h := sha256.New()
	for _, b := range rep.Outputs {
		h.Write([]byte{byte(b)})
	}
	for i := range rep.Decided {
		v := byte(0)
		if rep.Decided[i] {
			v |= 1
		}
		if rep.Halted[i] {
			v |= 2
		}
		h.Write([]byte{v})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestAsyncFixedSeedGoldens(t *testing.T) {
	for _, tc := range asyncGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := asyncGoldenConfig(t, tc)
			rec := NewTraceRecorder(0)
			cfg.Tracer = rec
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("violation: consistency=%v validity=%v termination=%v",
					rep.Consistency, rep.Validity, rep.Termination)
			}
			if got := asyncStateDigest(rep); got != tc.digest {
				t.Errorf("state digest = %q, want %q", got, tc.digest)
			}
			if rep.Rounds != tc.rounds {
				t.Errorf("deliveries = %d, want %d", rep.Rounds, tc.rounds)
			}
			if rep.Async.DecideRound != tc.decide {
				t.Errorf("decide round = %d, want %d", rep.Async.DecideRound, tc.decide)
			}
			if tc.setSize >= 0 && rep.Async.SetSize != tc.setSize {
				t.Errorf("set size = %d, want %d", rep.Async.SetSize, tc.setSize)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:])[:16]; got != tc.trace {
				t.Errorf("trace digest = %q, want %q", got, tc.trace)
			}
		})
	}
}

// Repeated executions of one async config must agree exactly — the
// event-runtime schedule is a pure function of the seed under every
// scheduler mode.
func TestAsyncRunTwiceIdentical(t *testing.T) {
	for _, tc := range asyncGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Report, string) {
				cfg := asyncGoldenConfig(t, tc)
				rec := NewTraceRecorder(0)
				cfg.Tracer = rec
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rec.WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				return rep, buf.String()
			}
			repA, traceA := run()
			repB, traceB := run()
			if a, b := asyncStateDigest(repA), asyncStateDigest(repB); a != b {
				t.Errorf("state digests differ across runs: %s vs %s", a, b)
			}
			if repA.Rounds != repB.Rounds {
				t.Errorf("deliveries differ: %d vs %d", repA.Rounds, repB.Rounds)
			}
			if traceA != traceB {
				t.Error("canonical traces differ across runs")
			}
		})
	}
}

// The trial harness must produce byte-identical per-trial reports and
// aggregates for the async track regardless of worker count: trials are
// seeded by hash derivation and reassembled in trial order, so the parallel
// schedule is unobservable.
func TestAsyncSerialParallelTrialsIdentical(t *testing.T) {
	for _, base := range []Config{
		{Protocol: ABA, N: 16, F: 5, Sched: SchedRandom},
		{Protocol: ACS, N: 16, F: 5, Sched: SchedAdvDelay, Crashes: 3},
	} {
		base := base
		t.Run(string(base.Protocol), func(t *testing.T) {
			const trials = 8
			run := func(workers int) ([]string, *TrialStats) {
				digests := make([]string, trials)
				st, err := RunTrialsOpts(base, TrialOpts{
					Trials:  trials,
					Workers: workers,
					OnReport: func(trial int, rep *Report) {
						digests[trial] = asyncStateDigest(rep)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				return digests, st
			}
			serialDigests, serialStats := run(1)
			parallelDigests, parallelStats := run(4)
			for i := range serialDigests {
				if serialDigests[i] != parallelDigests[i] {
					t.Errorf("trial %d: serial digest %s vs parallel %s",
						i, serialDigests[i], parallelDigests[i])
				}
			}
			if *serialStats != *parallelStats {
				t.Errorf("aggregates differ:\nserial   %+v\nparallel %+v", serialStats, parallelStats)
			}
			if serialStats.Violations != 0 {
				t.Errorf("%d violations across trials", serialStats.Violations)
			}
		})
	}
}
