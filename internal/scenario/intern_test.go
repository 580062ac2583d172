package scenario

import (
	"testing"

	"ccba/internal/attest"
	"ccba/internal/netsim"
	"ccba/internal/testenv"
)

// TestMapBackedInternStatsAcrossWorkers pins the telemetry of the lazily
// bound path: a keep-all core run — Build's nodes, which grow their window
// from Step, on whichever shard steps the node — must count in its intern
// table what a Sparse run of the same seed counts, where every set is bound
// at construction, identically at every GOMAXPROCS. In a passive lockstep
// run all n nodes perform the same add sequence, so every state is created
// once and hit by the other n−1 nodes: hits = adds − states.
func TestMapBackedInternStatsAcrossWorkers(t *testing.T) {
	const n = 2000
	base := Config{Protocol: Core, N: n, F: 600, Lambda: 40}
	base.Seed[0] = 7

	sparse := base
	sparse.Sparse = true
	rep, err := Run(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Intern == nil {
		t.Fatalf("sparse run: ok=%v intern=%v", rep.Ok(), rep.Intern)
	}
	want := *rep.Intern
	if adds := int64(n) * int64(want.States); want.States == 0 || want.Hits != adds-int64(want.States) {
		t.Fatalf("sparse intern stats %+v: want states > 0 and hits = adds (%d) - states", want, adds)
	}

	for _, workers := range testenv.Procs {
		testenv.SetGOMAXPROCS(t, workers)
		cfg := base
		cfg.applyDefaults()
		cfg.run.interner = attest.NewInterner()
		nodes, seize, steps, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: cfg.F, MaxRounds: steps, Seize: seize}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep := Evaluate(cfg, rt.Run()); !rep.Ok() {
			t.Fatalf("w%d: violation: %v %v %v", workers, rep.Consistency, rep.Validity, rep.Termination)
		}
		if got := cfg.run.interner.Stats(); got != want {
			t.Errorf("w%d: keep-all intern stats %+v, the Sparse run's %+v", workers, got, want)
		}
	}
}

// TestEveryInterningBuildInterns pins the builders' side: core,
// core-broadcast and both phase kings bind their nodes to the run's table
// with or without Sparse, while Report.Intern stays a Sparse-only field.
func TestEveryInterningBuildInterns(t *testing.T) {
	for _, cfg := range []Config{
		{Protocol: Core, N: 40, F: 12, Lambda: 10},
		{Protocol: CoreBroadcast, N: 40, F: 12, Lambda: 10},
		{Protocol: PhaseKingPlain, N: 30, F: 9, Epochs: 4},
		{Protocol: PhaseKingSampled, N: 60, F: 12, Lambda: 20, Epochs: 4},
	} {
		t.Run(string(cfg.Protocol), func(t *testing.T) {
			cfg.run.interner = attest.NewInterner()
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := cfg.run.interner.Stats(); st.Hits == 0 {
				t.Errorf("no Add hit the run's table (%+v): the build did not intern", st)
			}
			cfg.run.interner = nil
			if rep, err = Run(cfg); err != nil {
				t.Fatal(err)
			}
			if rep.Intern != nil {
				t.Errorf("Report.Intern set on a run without Sparse: %+v", *rep.Intern)
			}
		})
	}
}
