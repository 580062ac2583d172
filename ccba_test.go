package ccba

import (
	"testing"

	"ccba/internal/netsim"
	"ccba/internal/testenv"
)

func TestRunAllProtocolsDefaults(t *testing.T) {
	cases := []Config{
		{Protocol: Core, N: 100, F: 30, Lambda: 30},
		{Protocol: Core, N: 60, F: 15, Lambda: 24, Crypto: Real},
		{Protocol: CoreBroadcast, N: 80, F: 20, Lambda: 24},
		{Protocol: Quadratic, N: 25, F: 12},
		{Protocol: PhaseKingPlain, N: 16, F: 5},
		{Protocol: PhaseKingSampled, N: 90, F: 20, Lambda: 30},
		{Protocol: ChenMicali, N: 90, F: 20, Lambda: 30, Erasure: true},
		{Protocol: DolevStrong, N: 16, F: 5},
		{Protocol: CommitteeEcho, N: 64, F: 0},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(string(cfg.Protocol)+"/"+string(cfg.Crypto), func(t *testing.T) {
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("properties violated: consistency=%v validity=%v termination=%v",
					rep.Consistency, rep.Validity, rep.Termination)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Protocol: Core, N: 80, F: 20, Lambda: 24, Seed: [32]byte{7}}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rounds != r2.Rounds || r1.Result.Metrics != r2.Result.Metrics {
		t.Fatal("identical configs produced different executions")
	}
	for i := range r1.Outputs {
		if r1.Outputs[i] != r2.Outputs[i] {
			t.Fatalf("output %d differs", i)
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	base := Config{Protocol: Core, N: 80, F: 20, Lambda: 24, Seed: [32]byte{9}}
	testenv.SetGOMAXPROCS(t, 1)
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range testenv.Procs[1:] {
		testenv.SetGOMAXPROCS(t, procs)
		got, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Rounds != got.Rounds || seq.Result.Metrics != got.Result.Metrics {
			t.Fatalf("execution at GOMAXPROCS=%d diverged from sequential", procs)
		}
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if _, err := Run(Config{Protocol: "nope", N: 4, F: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunUnknownCryptoMode(t *testing.T) {
	if _, err := Run(Config{Protocol: Core, N: 40, F: 10, Crypto: "quantum"}); err == nil {
		t.Fatal("unknown crypto mode accepted")
	}
}

func TestRunTrials(t *testing.T) {
	cfg := Config{Protocol: Core, N: 80, F: 20, Lambda: 24}
	st, err := RunTrials(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("%d violations", st.Violations)
	}
	if st.MeanRounds <= 0 || st.MeanMulticasts <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.Rounds.N != 4 || st.Rounds.Mean != st.MeanRounds {
		t.Fatalf("summary disagrees with headline mean: %+v", st)
	}
	if !(st.ViolationLo == 0 && st.ViolationHi > 0 && st.ViolationHi < 1) {
		t.Fatalf("Wilson interval [%v, %v] implausible for 0/4", st.ViolationLo, st.ViolationHi)
	}
	if _, err := RunTrials(cfg, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestRunTrialsSeedIndependence checks trials actually vary: with the old
// XOR-two-bytes derivation, base seeds differing only in byte 31 produced
// overlapping trial sequences; hash derivation must not.
func TestRunTrialsSeedIndependence(t *testing.T) {
	cfg := Config{Protocol: Core, N: 80, F: 20, Lambda: 24}
	var a, b []Metrics
	capture := func(dst *[]Metrics) func(int, *Report) {
		return func(_ int, rep *Report) { *dst = append(*dst, rep.Result.Metrics) }
	}
	if _, err := RunTrialsOpts(cfg, TrialOpts{Trials: 3, OnReport: capture(&a)}); err != nil {
		t.Fatal(err)
	}
	shifted := cfg
	shifted.Seed[31] ^= 1 // old derivation would replay trial t of cfg as trial t^1
	if _, err := RunTrialsOpts(shifted, TrialOpts{Trials: 3, OnReport: capture(&b)}); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		for j := range b {
			if a[i] == b[j] {
				same++
			}
		}
	}
	if same > 0 {
		t.Fatalf("%d trial executions shared between base seeds differing in one byte", same)
	}
}

// TestRunTrialsDeterministicAcrossWorkers is the serial-vs-parallel
// determinism contract on the public API: aggregates are bit-identical for
// any worker count.
func TestRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Protocol: Core, N: 80, F: 20, Lambda: 24, Seed: [32]byte{3}}
	serial, err := RunTrialsOpts(cfg, TrialOpts{Trials: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTrialsOpts(cfg, TrialOpts{Trials: 6, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if *serial != *parallel {
		t.Fatalf("aggregates diverge:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
}

// countingAdversary is deliberately stateful: it silences f nodes only on
// its second Setup call. Under the old RunTrials, which reused one instance
// across trials, trials ≥ 1 would run with corruptions trial 0 never saw;
// with a per-trial factory every instance must see exactly one Setup.
type countingAdversary struct {
	netsim.Passive
	setups int
}

func (a *countingAdversary) Setup(ctx *netsim.Ctx) {
	a.setups++
	if a.setups < 2 {
		return
	}
	for i := 0; i < ctx.F(); i++ {
		if _, err := ctx.Corrupt(NodeID(i)); err != nil {
			return
		}
	}
}

func TestRunTrialsAdversaryIsolation(t *testing.T) {
	cfg := Config{Protocol: Core, N: 80, F: 20, Lambda: 24}

	// The shared-instance API is the bug; it must be rejected.
	shared := cfg
	shared.Adversary = &countingAdversary{}
	if _, err := RunTrials(shared, 3); err == nil {
		t.Fatal("shared adversary instance accepted across trials")
	}

	// The factory runs on the trial workers, concurrently: one slot each.
	made := make([]*countingAdversary, 4)
	var corrupted []int
	_, err := RunTrialsOpts(cfg, TrialOpts{
		Trials: len(made),
		NewAdversary: func(trial int) Adversary {
			made[trial] = &countingAdversary{}
			return made[trial]
		},
		OnReport: func(_ int, rep *Report) { corrupted = append(corrupted, rep.NumCorrupt()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range made {
		if a == nil {
			t.Fatalf("factory was not asked for trial %d's adversary", i)
		}
		if a.setups != 1 {
			t.Fatalf("adversary %d saw %d Setup calls; state leaked across trials", i, a.setups)
		}
	}
	for i, c := range corrupted {
		if c != 0 {
			t.Fatalf("trial %d corrupted %d nodes; a reused instance reached its second Setup", i, c)
		}
	}
}

// TestRunTrialsInputIsolation checks each trial receives its own copy of the
// caller's input slice rather than aliasing it.
func TestRunTrialsInputIsolation(t *testing.T) {
	cfg := Config{Protocol: Core, N: 60, F: 15, Lambda: 24}
	cfg.Inputs = make([]Bit, cfg.N)
	for i := range cfg.Inputs {
		cfg.Inputs[i] = One
	}
	orig := append([]Bit(nil), cfg.Inputs...)
	seen := map[*Bit]bool{&cfg.Inputs[0]: true}
	_, err := RunTrialsOpts(cfg, TrialOpts{
		Trials: 3,
		OnReport: func(trial int, rep *Report) {
			if len(rep.Inputs) == 0 {
				t.Fatalf("trial %d lost its inputs", trial)
			}
			if seen[&rep.Inputs[0]] {
				t.Fatalf("trial %d aliases another trial's input slice", trial)
			}
			seen[&rep.Inputs[0]] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if cfg.Inputs[i] != orig[i] {
			t.Fatalf("caller's input slice mutated at %d", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Protocol: Core, N: 0, F: 0},
		{Protocol: Core, N: -5, F: 0},
		{Protocol: Core, N: 10, F: -1},
		{Protocol: Core, N: 10, F: 10},
		{Protocol: Core, N: 10, F: 12},
		{Protocol: Core, N: 10, F: 3, Inputs: make([]Bit, 9)},
		{Protocol: Core, N: 10, F: 3, Inputs: make([]Bit, 11)},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := RunTrials(cfg, 2); err == nil {
			t.Errorf("config %+v accepted by RunTrials", cfg)
		}
	}
	// Broadcast protocols ignore Inputs; a mismatched slice is not an error.
	if _, err := Run(Config{Protocol: DolevStrong, N: 10, F: 3, Inputs: make([]Bit, 4)}); err != nil {
		t.Errorf("broadcast protocol rejected unused inputs: %v", err)
	}
}

func TestCommitteeSizeDefaults(t *testing.T) {
	// The default-derivation details (committee size ≥ 1 at every N, capped
	// below n) are pinned in internal/scenario's own tests; here the public
	// contract: the committee excludes its sender, so a single node cannot
	// form one, and that must surface as a descriptive error, not an empty
	// committee (or the selection loop spinning forever).
	if _, err := Run(Config{Protocol: CommitteeEcho, N: 1, F: 0}); err == nil {
		t.Error("single-node committee echo accepted")
	}
	// The smallest valid instance runs.
	if _, err := Run(Config{Protocol: CommitteeEcho, N: 2, F: 0}); err != nil {
		t.Errorf("two-node committee echo failed: %v", err)
	}
}

func TestBroadcastSenderInput(t *testing.T) {
	cfg := Config{Protocol: DolevStrong, N: 10, F: 3, SenderInput: One}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rep.ForeverHonest() {
		if rep.Outputs[id] != One {
			t.Fatalf("node %d output %v, want sender input 1", id, rep.Outputs[id])
		}
	}
	// The zero value means broadcasting bit 0.
	rep, err = Run(Config{Protocol: DolevStrong, N: 10, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rep.ForeverHonest() {
		if rep.Outputs[id] != Zero {
			t.Fatalf("node %d output %v, want default sender input 0", id, rep.Outputs[id])
		}
	}
}

func TestAdversaryPlumbing(t *testing.T) {
	// A static silencer passed through the facade must actually corrupt.
	cfg := Config{Protocol: Core, N: 100, F: 30, Lambda: 30, Adversary: &facadeSilencer{}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("silencer broke safety: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
	if got := rep.NumCorrupt(); got != 30 {
		t.Fatalf("corrupted %d nodes, want 30", got)
	}
}

type facadeSilencer struct{ netsim.Passive }

func (s *facadeSilencer) Setup(ctx *netsim.Ctx) {
	for i := 0; i < ctx.F(); i++ {
		if _, err := ctx.Corrupt(NodeID(i)); err != nil {
			return
		}
	}
}

func TestProtocolBroadcastClassification(t *testing.T) {
	if Core.Broadcast() || Quadratic.Broadcast() || PhaseKingPlain.Broadcast() {
		t.Fatal("agreement protocol classified as broadcast")
	}
	if !DolevStrong.Broadcast() || !CommitteeEcho.Broadcast() || !CoreBroadcast.Broadcast() {
		t.Fatal("broadcast protocol misclassified")
	}
}
