package scenario

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ccba/internal/harness"
	"ccba/internal/netsim"
)

// The chaos lowering must draw the same faulty set the NetOmission model
// draws for the same config — that shared derivation is what lets one seed
// cross-validate a live chaos run against the omission simulation — and
// both runtimes must get the one schedule.
func TestChaosFaultySetMatchesOmission(t *testing.T) {
	cfg := Config{Protocol: Core, N: 24, F: 7, Lambda: 8}
	cfg.Seed[0] = 11
	spec, err := ChaosConfig{DropRate: 0.3}.TransportSpec(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed := harness.SeedFrom(cfg.Seed, netSeedDomain, string(NetOmission), 0)
	want := faultyMask(cfg.N, sampleIDs(seed, cfg.N, cfg.F))
	if !slices.Equal(spec.Faults.Faulty, want) {
		t.Fatalf("chaos faulty set %v, omission derivation %v", spec.Faults.Faulty, want)
	}
	model, err := ChaosConfig{DropRate: 0.3}.NetModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(model, spec.Faults) {
		t.Fatalf("sim-side schedule %+v, transport-side %+v", model, spec.Faults)
	}
}

// The crash victim is the first seed-chosen faulty node, and a crash-only
// declaration still draws one faulty node to spend the corruption budget.
func TestChaosCrashVictimDeterministic(t *testing.T) {
	cfg := Config{Protocol: Core, N: 16, F: 4, Lambda: 8}
	cfg.Seed[0] = 5
	cc := ChaosConfig{CrashFrom: 1, CrashRounds: 3}
	spec, err := cc.TransportSpec(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := spec.Faults
	seed := harness.SeedFrom(cfg.Seed, netSeedDomain, string(NetOmission), 0)
	if want := sampleIDs(seed, cfg.N, 1); !slices.Equal(fs.Faulty, faultyMask(cfg.N, want)) || fs.Crash != want[0] {
		t.Fatalf("crash victim %d, faulty %v; want the single drawn faulty node %v", fs.Crash, fs.Faulty, want)
	}
	if fs.CrashFrom != 1 || fs.CrashUntil != 4 {
		t.Fatalf("crash window [%d, %d), want [1, 4)", fs.CrashFrom, fs.CrashUntil)
	}
}

// The transport spec carries the synchronizer's interval, which turns the
// schedule's round delays into holds (the transport tests pin the holds),
// the chaos Δ with its jitter spread, and the partition at N/2.
func TestChaosDelaysScaleWithInterval(t *testing.T) {
	cfg := Config{Protocol: Core, N: 16, F: 4, Lambda: 8}
	spec, err := ChaosConfig{Delta: 3, PartitionRounds: 2}.TransportSpec(cfg, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Interval != 10*time.Millisecond || spec.Faults.Delta != 3 || spec.Faults.Spread != netsim.SpreadJitter {
		t.Fatalf("spec (interval %v, Δ %d, spread %d), want (10ms, 3, jitter)", spec.Interval, spec.Faults.Delta, spec.Faults.Spread)
	}
	if fs := spec.Faults; int(fs.Cut) != cfg.N/2 || fs.CutFrom != 0 || fs.CutUntil != 2 {
		t.Fatalf("partition (%d, [%d, %d)), want cut 8 rounds [0, 2)", fs.Cut, fs.CutFrom, fs.CutUntil)
	}
}

// Invalid declarations are rejected with the power boundary spelled out.
func TestChaosConfigRejections(t *testing.T) {
	cfg := Config{Protocol: Core, N: 16, F: 0, Lambda: 8}
	cases := []struct {
		name string
		cc   ChaosConfig
		want string
	}{
		{"drops without budget", ChaosConfig{DropRate: 0.5}, "faulty"},
		{"reorder at delta one", ChaosConfig{Reorder: 0.5}, "Δ ≥ 2"},
		{"partition at delta one", ChaosConfig{PartitionRounds: 2}, "Δ ≥ 2"},
		{"crash without budget", ChaosConfig{CrashRounds: 2}, "faulty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cc.TransportSpec(cfg, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// SimRun executes the fault schedule through the standard simulator path:
// the report must be deterministic in the seed and judged by the same
// checkers as every other run.
func TestChaosSimRunDeterministic(t *testing.T) {
	cfg := Config{Protocol: Core, N: 16, F: 4, Lambda: 8, MaxIters: 12}
	cfg.Seed[0] = 3
	cc := ChaosConfig{Delta: 2, DropRate: 0.2}
	a, err := cc.SimRun(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.SimRun(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || !slices.Equal(a.Outputs, b.Outputs) {
		t.Fatalf("chaos sim runs diverged: rounds %d vs %d", a.Rounds, b.Rounds)
	}
	if a.Consistency != nil || a.Validity != nil {
		t.Fatalf("safety violated in simulated chaos: %v %v", a.Consistency, a.Validity)
	}
}

// The registered chaos scenario resolves and its declaration lowers to both
// runtimes.
func TestChaosScenarioRegistered(t *testing.T) {
	s, ok := Lookup("core-chaos-n32")
	if !ok {
		t.Fatal("core-chaos-n32 not registered")
	}
	if s.Chaos == nil {
		t.Fatal("core-chaos-n32 carries no chaos declaration")
	}
	cfg, err := s.Resolve([32]byte{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Chaos.TransportSpec(cfg, 5*time.Millisecond); err != nil {
		t.Fatalf("transport lowering: %v", err)
	}
	if _, err := s.Chaos.NetModel(cfg); err != nil {
		t.Fatalf("sim lowering: %v", err)
	}
}
