package scenario

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ccba/internal/broadcast"
	"ccba/internal/chenmicali"
	"ccba/internal/core"
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// The protocol switch is gone: every protocol must resolve through the
// builder registry, and unknown names must fail with the registered list in
// the error.
func TestBuilderRegistryCoversAllProtocols(t *testing.T) {
	want := []Protocol{
		ChenMicali, CommitteeEcho, Core, CoreBroadcast,
		DolevStrong, PhaseKingPlain, PhaseKingSampled, Quadratic,
	}
	got := Protocols()
	if len(got) != len(want) {
		t.Fatalf("registered protocols %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered protocols %v, want %v", got, want)
		}
	}
	if _, err := Run(Config{Protocol: "no-such", N: 4, F: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("unknown protocol error = %v", err)
	}
}

// validate checks the crypto mode, so every protocol rejects an unknown one;
// the builders themselves only ask whether it is Real.
func TestUnknownCryptoModeRejected(t *testing.T) {
	protos := Protocols()
	for p := range asyncBuilders {
		protos = append(protos, p)
	}
	for _, p := range protos {
		_, err := Run(Config{Protocol: p, N: 10, F: 3, Crypto: "bogus"})
		if err == nil || !strings.Contains(err.Error(), "unknown crypto mode") {
			t.Errorf("protocol %q: error %v, want unknown crypto mode", p, err)
		}
	}
}

func TestApplyDefaultsCommitteeSize(t *testing.T) {
	// N=1 used to compute an empty committee (size loop yields 2, the >= N
	// cap then produced 0); every node count must yield at least one member.
	for _, n := range []int{1, 2, 3, 64} {
		cfg := Config{Protocol: CommitteeEcho, N: n}
		cfg.applyDefaults()
		if cfg.CommitteeSize < 1 {
			t.Errorf("N=%d: committee size %d", n, cfg.CommitteeSize)
		}
		if n > 1 && cfg.CommitteeSize >= n {
			t.Errorf("N=%d: committee size %d not below n", n, cfg.CommitteeSize)
		}
	}
}

func TestInputPatterns(t *testing.T) {
	for pattern, want := range map[string]func(i int) types.Bit{
		"":               func(i int) types.Bit { return types.BitFromBool(i%2 == 0) },
		InputsMixed:      func(i int) types.Bit { return types.BitFromBool(i%2 == 0) },
		InputsUnanimous0: func(int) types.Bit { return types.Zero },
		InputsUnanimous1: func(int) types.Bit { return types.One },
	} {
		cfg := Config{Protocol: Core, N: 6, F: 1, InputPattern: pattern}
		if err := cfg.validate(); err != nil {
			t.Fatalf("pattern %q rejected: %v", pattern, err)
		}
		cfg.applyDefaults()
		for i, b := range cfg.Inputs {
			if b != want(i) {
				t.Fatalf("pattern %q input[%d] = %v", pattern, i, b)
			}
		}
	}
	bad := Config{Protocol: Core, N: 6, F: 1, InputPattern: "zigzag"}
	if err := bad.validate(); err == nil {
		t.Fatal("unknown input pattern accepted")
	}
	both := Config{Protocol: Core, N: 2, F: 0, InputPattern: InputsMixed, Inputs: make([]types.Bit, 2)}
	if err := both.validate(); err == nil {
		t.Fatal("Inputs + InputPattern accepted together")
	}
}

// Normalized is idempotent: the config it returns is one Normalized, Build
// and Run accept again unchanged — whatever input pattern the scenario
// started from.
func TestNormalizedIdempotent(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Lookup(name)
		for _, pattern := range []string{"", InputsMixed, InputsUnanimous0, InputsUnanimous1} {
			cfg := sc.Config
			cfg.Inputs, cfg.InputPattern = nil, pattern
			once, err := cfg.Normalized()
			if err != nil {
				t.Fatalf("%s/%q: %v", name, pattern, err)
			}
			twice, err := once.Normalized()
			if err != nil {
				t.Fatalf("%s/%q: second Normalized: %v", name, pattern, err)
			}
			if !reflect.DeepEqual(once, twice) {
				t.Errorf("%s/%q: second Normalized changed the config:\n%+v\n%+v", name, pattern, once, twice)
			}
		}
	}
}

// The net-spec validation: unknown models, negative or lockstep-incompatible
// Δ, out-of-range omission parameters, delay-only models at Δ = 1.
func TestNetSpecValidation(t *testing.T) {
	base := Config{Protocol: Core, N: 10, F: 3}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Net = "carrier-pigeon" }, "unknown net model"},
		{func(c *Config) { c.Delta = -1 }, "cannot be negative"},
		{func(c *Config) { c.Delta = 3 }, "lockstep"},
		{func(c *Config) { c.Net = NetDeltaOne; c.Delta = 2 }, "lockstep"},
		{func(c *Config) { c.Net = NetOmission; c.OmissionRate = 1.5 }, "outside [0, 1]"},
		{func(c *Config) { c.Net = NetOmission; c.OmissionFaulty = 4 }, "corruption budget"},
		{func(c *Config) { c.MaxRounds = -2 }, "cannot be negative"},
		{func(c *Config) { c.OmissionRate = 0.5 }, "only apply under"},
		{func(c *Config) { c.Net = NetJitter; c.Delta = 2; c.OmissionFaulty = 2 }, "only apply under"},
		{func(c *Config) { c.Net = NetWorstCase; c.Delta = 2; c.PartitionRounds = 4 }, "only applies under"},
		// Every count knob is non-negative under every model, and each
		// belongs to the models that read it.
		{func(c *Config) { c.Net = NetChaos; c.Delta = 2; c.PartitionRounds = -2 }, "PartitionRounds=-2 cannot be negative"},
		{func(c *Config) { c.Net = NetChaos; c.CrashFrom = -5; c.CrashRounds = 3 }, "CrashFrom=-5 cannot be negative"},
		{func(c *Config) { c.Net = NetChaos; c.CrashRounds = -1 }, "CrashRounds=-1 cannot be negative"},
		{func(c *Config) { c.Net = NetPartition; c.OmissionFaulty = -1 }, "OmissionFaulty=-1 cannot be negative"},
		{func(c *Config) { c.Net = NetChaos; c.OmissionFaulty = 4 }, "corruption budget"},
		{func(c *Config) { c.Net = NetChaos; c.OmissionRate = -0.5 }, "outside [0, 1]"},
		{func(c *Config) { c.Net = NetPartition; c.OmissionRate = 0.5 }, "only apply under the \"omission\" and \"chaos\" models"},
		{func(c *Config) { c.Net = NetOmission; c.PartitionRounds = 2 }, "only applies under the \"partition\" and \"chaos\" models"},
		{func(c *Config) { c.Net = NetOmission; c.CrashFrom, c.CrashRounds = 1, 2 }, "only apply under the \"chaos\" model"},
		{func(c *Config) { c.CrashRounds = 2 }, "only apply under the \"chaos\" model"},
		{func(c *Config) { c.Net = NetChaos; c.CrashFrom = 3 }, "without CrashRounds"},
		{func(c *Config) { c.Net = NetChaos; c.F = 0; c.CrashRounds = 2 }, "a crash window (CrashRounds=2) crashes a faulty sender and needs F ≥ 1, got F=0"},
		{func(c *Config) { c.Net = NetDeltaOne; c.Delta = 2 }, "pick -net delta, jitter, omission, partition, or chaos"},
		// A model that only delays holds nothing at Δ = 1: it would run the
		// delta-one schedule under another name.
		{func(c *Config) { c.Net = NetWorstCase }, `net model "delta" only delays traffic within Δ and needs Δ ≥ 2, got Δ=1`},
		{func(c *Config) { c.Net = NetJitter; c.Delta = 1 }, `net model "jitter" only delays traffic within Δ and needs Δ ≥ 2, got Δ=1`},
		{func(c *Config) { c.Net = NetPartition }, `net model "partition" only delays traffic within Δ and needs Δ ≥ 2, got Δ=1`},
		// A model that neither delays nor drops holds nothing at all:
		// omission without a rate at any Δ, chaos at Δ = 1 with no rate,
		// crash window or partition.
		{func(c *Config) { c.Net = NetOmission }, `net model "omission" neither delays nor drops a message at Δ=1 with OmissionRate=0 and no crash window; it runs the "delta-one" schedule`},
		{func(c *Config) { c.Net = NetOmission; c.Delta = 3 }, `net model "omission" neither delays nor drops a message at Δ=3`},
		{func(c *Config) { c.Net = NetChaos }, `net model "chaos" neither delays nor drops a message at Δ=1`},
		{func(c *Config) { c.Net = NetChaos; c.OmissionFaulty = 2 }, `net model "chaos" neither delays nor drops a message at Δ=1`},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %+v: error %v, want substring %q", cfg, err, tc.want)
		}
	}
}

// The MaxRounds bugfix: the budget derives from protocol step count × Δ,
// and explicit budgets below that minimum are impossible schedules that
// must be rejected with the derivation spelled out — not accepted and later
// reported as a phantom termination failure.
func TestMaxRoundsDeltaBudget(t *testing.T) {
	cfg := Config{Protocol: Core, N: 20, F: 5, Lambda: 8, MaxIters: 4, Net: NetWorstCase, Delta: 3}
	nodes, _, steps, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 20 || steps <= 0 {
		t.Fatalf("build: %d nodes, %d steps", len(nodes), steps)
	}

	tooSmall := cfg
	tooSmall.MaxRounds = steps*3 - 1
	if _, err := Run(tooSmall); err == nil || !strings.Contains(err.Error(), "steps × Δ") {
		t.Fatalf("MaxRounds below steps×Δ accepted: %v", err)
	}
	// The same budget is ample at Δ=1 — rejection must scale with Δ, not
	// reuse the lockstep minimum.
	lockstep := cfg
	lockstep.Net, lockstep.Delta = "", 0
	lockstep.MaxRounds = steps
	if _, err := Run(lockstep); err != nil {
		t.Fatalf("lockstep budget rejected: %v", err)
	}
	exact := cfg
	exact.MaxRounds = steps * 3
	if _, err := Run(exact); err != nil {
		t.Fatalf("exact Δ-scaled budget rejected: %v", err)
	}
}

func TestScenarioRegistry(t *testing.T) {
	if err := Register(Scenario{}); err == nil {
		t.Error("empty scenario name accepted")
	}
	if err := Register(Scenario{Name: "core-n200"}); err == nil {
		t.Error("duplicate scenario name accepted")
	}
	names := Names()
	if len(names) == 0 {
		t.Fatal("no builtin scenarios registered")
	}
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names lists %q but Lookup misses it", name)
		}
		if s.Description == "" {
			t.Errorf("scenario %q has no description", name)
		}
		// Every builtin must resolve: config valid, adversary known.
		if _, err := s.Resolve([32]byte{1}, 0); err != nil {
			t.Errorf("scenario %q does not resolve: %v", name, err)
		}
	}
}

// A registered scenario runs end to end, and each trial gets a fresh
// adversary and its own input slice.
func TestScenarioRunIsolation(t *testing.T) {
	s, ok := Lookup("core-silent-n200")
	if !ok {
		t.Fatal("core-silent-n200 not registered")
	}
	s.Config.N, s.Config.F, s.Config.Lambda = 60, 15, 24 // shrink for test speed
	var seeds [2][32]byte
	seeds[1][0] = 9
	var reps [2]*Report
	for i, seed := range seeds {
		cfg, err := s.Resolve(seed, i)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Adversary == nil {
			t.Fatal("silent scenario resolved a passive adversary")
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: %v %v %v", i, rep.Consistency, rep.Validity, rep.Termination)
		}
		if got := rep.NumCorrupt(); got != 15 {
			t.Fatalf("seed %d: %d corrupt, want f=15", i, got)
		}
		reps[i] = rep
	}
	if reps[0].Rounds == 0 || reps[1].Rounds == 0 {
		t.Fatal("degenerate executions")
	}
}

func TestAdversaryRegistry(t *testing.T) {
	if adv, err := NewAdversary("", Config{}, 0); err != nil || adv != nil {
		t.Fatalf("empty adversary: %v %v", adv, err)
	}
	if adv, err := NewAdversary("none", Config{}, 0); err != nil || adv != nil {
		t.Fatalf("none adversary: %v %v", adv, err)
	}
	if _, err := NewAdversary("no-such", Config{}, 0); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := NewAdversary("flip", Config{Protocol: DolevStrong, N: 8, Epochs: 4}, 0); err == nil {
		t.Fatal("flip accepted for a protocol without a flip attack")
	}
	a1, err := NewAdversary("flip", Config{Protocol: Core, N: 8, Epochs: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAdversary("flip", Config{Protocol: Core, N: 8, Epochs: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("adversary factory reused an instance across trials")
	}
	// The factory must see defaulted parameters: a flip attack built from a
	// config with Epochs unset has to target the default final epoch, not
	// uint32(0−1).
	adv, err := NewAdversary("flip", Config{Protocol: ChenMicali, N: 8, F: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := adv.(*chenmicali.FlipAttack).TargetEpoch; got != 19 {
		t.Fatalf("flip TargetEpoch = %d with Epochs unset, want default 20−1", got)
	}
	for _, name := range []string{"flip", "none", "silent"} {
		found := false
		for _, have := range Adversaries() {
			if have == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("Adversaries() misses %q: %v", name, Adversaries())
		}
	}
}

// The omission model's faulty set is seed-deterministic and within budget,
// and faulty nodes are reported but stay in the forever-honest set.
func TestOmissionFaultySelection(t *testing.T) {
	cfg := Config{Protocol: Core, N: 40, F: 10, Lambda: 12, Net: NetOmission, OmissionRate: 1}
	cfg.Seed[0] = 3
	rep1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := range rep1.OmissionFaulty {
		if rep1.OmissionFaulty[i] != rep2.OmissionFaulty[i] {
			t.Fatal("faulty set not seed-deterministic")
		}
		if rep1.OmissionFaulty[i] {
			count++
		}
	}
	if count != cfg.F {
		t.Fatalf("%d omission-faulty nodes, want default F=%d", count, cfg.F)
	}
	if got := len(rep1.ForeverHonest()); got != cfg.N {
		t.Fatalf("forever-honest %d, want all %d (omission faults are not corruptions)", got, cfg.N)
	}
	other := cfg
	other.Seed[0] = 77
	rep3, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range rep1.OmissionFaulty {
		if rep1.OmissionFaulty[i] != rep3.OmissionFaulty[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew the identical faulty set (40 choose 10: astronomically unlikely)")
	}
}

// sampleIDs must return k distinct in-range ids, deterministically.
func TestSampleIDs(t *testing.T) {
	var seed [32]byte
	seed[5] = 42
	ids := sampleIDs(seed, 100, 30)
	if len(ids) != 30 {
		t.Fatalf("%d ids", len(ids))
	}
	seen := map[types.NodeID]bool{}
	for _, id := range ids {
		if id < 0 || int(id) >= 100 {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("id %d drawn twice", id)
		}
		seen[id] = true
	}
	if got := sampleIDs(seed, 5, 9); len(got) != 5 {
		t.Fatalf("k>n returned %d ids", len(got))
	}
	if got := sampleIDs(seed, 5, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

// Resolving a net model never mutates shared state; two configs with the
// same seed produce interchangeable models.
func TestNetModelResolution(t *testing.T) {
	for _, name := range []NetName{NetDeltaOne, NetWorstCase, NetJitter, NetOmission, NetPartition, NetChaos} {
		cfg := Config{Protocol: Core, N: 12, F: 3, Net: name, Delta: 2}
		switch name {
		case NetDeltaOne:
			cfg.Delta = 1
		case NetOmission:
			cfg.OmissionRate = 0.25 // omission never delays: without a rate it would do nothing
		}
		if err := cfg.validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.applyDefaults()
		m, err := cfg.Faults()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := m.Validate(cfg.N, cfg.F); err != nil || m.Delta != cfg.Delta {
			t.Fatalf("%s: Validate (Δ %d, %v), want Δ %d", name, m.Delta, err, cfg.Delta)
		}
		if _, err := netsim.NewRuntime(netsim.Config{N: cfg.N, F: cfg.F, Net: m}, makeIdle(cfg.N), nil); err != nil {
			t.Fatalf("%s: runtime rejected model: %v", name, err)
		}
	}
}

// idleNode halts immediately; enough to exercise runtime construction.
type idleNode struct{}

func (idleNode) Step(int, []netsim.Delivered) []netsim.Send { return nil }
func (idleNode) Output() (types.Bit, bool)                  { return types.Zero, false }
func (idleNode) Halted() bool                               { return true }

func makeIdle(n int) []netsim.Node {
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		nodes[i] = idleNode{}
	}
	return nodes
}

// Registry listings feed CLI output (-scenarios) and docs, so they must be
// deterministic: sorted, and stable across repeated calls despite map
// iteration order.
func TestRegistryListingsSorted(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no scenarios registered")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for i := 0; i < 8; i++ {
		if again := Names(); !slices.Equal(again, names) {
			t.Fatalf("Names() unstable: %v vs %v", again, names)
		}
	}
	advs := Adversaries()
	if !sort.StringsAreSorted(advs) {
		t.Fatalf("Adversaries() not sorted: %v", advs)
	}
	protos := Protocols()
	if !sort.SliceIsSorted(protos, func(i, j int) bool { return protos[i] < protos[j] }) {
		t.Fatalf("Protocols() not sorted: %v", protos)
	}
}

// Every registered protocol must have a message decoder — the live cluster
// runtime depends on it — and each decoder must reproduce a protocol
// message from its canonical bytes.
func TestDecoderRegistryCoversAllProtocols(t *testing.T) {
	for _, p := range Protocols() {
		if strings.HasPrefix(string(p), "cluster-test-") {
			continue // registered by another package's tests
		}
		if _, err := DecoderFor(p); err != nil {
			t.Errorf("protocol %q: %v", p, err)
		}
	}
	if _, err := DecoderFor("no-such-protocol"); err == nil {
		t.Error("unknown protocol resolved a decoder")
	}
}

// The core-broadcast decoder must disambiguate the wrapper's kind-1
// InputMsg from core's kind-1 StatusMsg (length does it: InputMsg is
// exactly two bytes).
func TestCoreBroadcastDecoderDisambiguates(t *testing.T) {
	d, err := DecoderFor(CoreBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	input := broadcast.InputMsg{B: types.One}
	got, err := d(wire.Marshal(input))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(broadcast.InputMsg); !ok {
		t.Fatalf("decoded %T, want broadcast.InputMsg", got)
	}
	status := core.StatusMsg{Iter: 3, B: types.One, Elig: []byte{1, 2, 3}}
	got, err = d(wire.Marshal(status))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(core.StatusMsg); !ok {
		t.Fatalf("decoded %T, want core.StatusMsg", got)
	}
}
