package ccba

import (
	"testing"

	"ccba/internal/testenv"
)

// Sparse (Config.Sparse, DESIGN.md §6) selects no node state and no
// engine of its own: it asserts the delta-one, passive regime and turns on
// the intern statistics. TestEquivalenceMatrix's sparse columns pin that it
// changes nothing else; these tests pin the statistics and the assertion.

// TestInternStatsSerialFormula pins the intern table's telemetry to the
// execution: in a passive lockstep run all n nodes receive the same
// multicasts and so perform the same add sequence, so every state is
// created by whichever node gets there first and hit by the other n−1, and
// the only state with two successors is the empty root every tag's set
// starts from. Hits are counted per block of sets rather than on the table
// (DESIGN.md §6), so the statistics do not depend on the worker count;
// TestEquivalenceMatrix's Sparse columns pin that on every lockstep row.
func TestInternStatsSerialFormula(t *testing.T) {
	const n = 2000
	testenv.SetGOMAXPROCS(t, 1)
	cfg := Config{Protocol: Core, N: n, F: 600, Lambda: 40, Sparse: true}
	cfg.Seed[0] = 7
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Intern == nil {
		t.Fatalf("ok=%v intern=%v", rep.Ok(), rep.Intern)
	}
	st := *rep.Intern
	adds := int64(n) * int64(st.States)
	if st.States == 0 || st.Clones != st.States || st.Forks != 1 || st.Hits != adds-int64(st.States) {
		t.Fatalf("intern stats %+v: want clones = states > 0, one fork, hits = adds (%d) - states", st, adds)
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
