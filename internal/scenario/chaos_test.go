package scenario

import (
	"slices"
	"strings"
	"testing"

	"ccba/internal/harness"
	"ccba/internal/netsim"
)

// lower normalizes cfg and lowers its network model.
func lower(t *testing.T, cfg Config) netsim.Faults {
	t.Helper()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := norm.Faults()
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// The chaos lowering must draw the same faulty set and key the NetOmission
// model draws for the same config — that shared derivation is what lets one
// seed cross-validate a chaos run against the omission model.
func TestChaosFaultySetMatchesOmission(t *testing.T) {
	cfg := Config{Protocol: Core, N: 24, F: 7, Lambda: 8, Net: NetChaos, OmissionRate: 0.3}
	cfg.Seed[0] = 11
	chaos := lower(t, cfg)
	seed := harness.SeedFrom(cfg.Seed, netSeedDomain, string(NetOmission), 0)
	want := faultyMask(cfg.N, sampleIDs(seed, cfg.N, cfg.F))
	if !slices.Equal(chaos.Faulty, want) {
		t.Fatalf("chaos faulty set %v, omission derivation %v", chaos.Faulty, want)
	}
	cfg.Net = NetOmission
	omission := lower(t, cfg)
	if !slices.Equal(omission.Faulty, chaos.Faulty) || omission.Key != chaos.Key || omission.Rate != chaos.Rate {
		t.Fatalf("omission schedule %+v, chaos schedule %+v", omission, chaos)
	}
}

// The chaos faulty count defaults to F when dropping, to one node for a
// crash-only window (the crashed node spends the corruption budget), and to
// none otherwise; an explicit count wins.
func TestChaosFaultyDefaults(t *testing.T) {
	base := Config{Protocol: Core, N: 16, F: 4, Lambda: 8, Net: NetChaos, Delta: 2}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want int
	}{
		{"drops", func(c *Config) { c.OmissionRate = 0.2 }, 4},
		{"crash only", func(c *Config) { c.CrashRounds = 2 }, 1},
		{"delays only", func(c *Config) {}, 0},
		{"explicit", func(c *Config) { c.OmissionRate, c.OmissionFaulty = 0.2, 2 }, 2},
	} {
		cfg := base
		tc.set(&cfg)
		norm, err := cfg.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if norm.OmissionFaulty != tc.want {
			t.Errorf("%s: OmissionFaulty %d, want %d", tc.name, norm.OmissionFaulty, tc.want)
		}
	}
}

// The crash victim is the first seed-chosen faulty node.
func TestChaosCrashVictimDeterministic(t *testing.T) {
	cfg := Config{Protocol: Core, N: 16, F: 4, Lambda: 8, Net: NetChaos, CrashFrom: 1, CrashRounds: 3}
	cfg.Seed[0] = 5
	fs := lower(t, cfg)
	seed := harness.SeedFrom(cfg.Seed, netSeedDomain, string(NetOmission), 0)
	if want := sampleIDs(seed, cfg.N, 1); !slices.Equal(fs.Faulty, faultyMask(cfg.N, want)) || fs.Crash != want[0] {
		t.Fatalf("crash victim %d, faulty %v; want the single drawn faulty node %v", fs.Crash, fs.Faulty, want)
	}
	if fs.CrashFrom != 1 || fs.CrashUntil != 4 {
		t.Fatalf("crash window [%d, %d), want [1, 4)", fs.CrashFrom, fs.CrashUntil)
	}
}

// A declaration whose fault could not act, or that overspends the budget,
// is rejected with the reason spelled out — by Normalized, by the lowering
// or by the lowering's Validate, the three steps both runtimes take.
func TestChaosConfigRejections(t *testing.T) {
	base := Config{Protocol: Core, N: 16, F: 0, Lambda: 8, Net: NetChaos}
	cases := []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"drops without budget", func(c *Config) { c.OmissionRate = 0.5 }, "faulty"},
		{"partition at delta one", func(c *Config) { c.PartitionRounds = 2 }, "Δ ≥ 2"},
		{"crash without budget", func(c *Config) { c.CrashRounds = 2 }, "faulty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			norm, err := cfg.Normalized()
			var fs netsim.Faults
			if err == nil {
				fs, err = norm.Faults()
			}
			if err == nil {
				_, _, err = fs.Validate(norm.N, norm.F)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// A chaos run is deterministic in the seed and judged by the same checkers
// as every other run.
func TestChaosRunDeterministic(t *testing.T) {
	cfg := Config{Protocol: Core, N: 16, F: 4, Lambda: 8, MaxIters: 12, Net: NetChaos, Delta: 2, OmissionRate: 0.2}
	cfg.Seed[0] = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
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

// The registered chaos scenario declares the chaos model and lowers.
func TestChaosScenarioRegistered(t *testing.T) {
	s, ok := Lookup("core-chaos-n32")
	if !ok {
		t.Fatal("core-chaos-n32 not registered")
	}
	if s.Config.Net != NetChaos {
		t.Fatalf("core-chaos-n32 declares net %q", s.Config.Net)
	}
	cfg, err := s.Resolve([32]byte{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs := lower(t, cfg); fs.Delta != 2 || fs.Rate != 0.2 {
		t.Fatalf("core-chaos-n32 lowers to %+v", fs)
	}
}
