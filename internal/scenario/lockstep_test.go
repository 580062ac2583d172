package scenario

import (
	"context"
	"testing"

	"ccba/internal/netsim"
	"ccba/internal/types"
)

// TestLockstepDerivation pins where core's window retention comes from:
// RunCtx, and through it ChaosConfig.SimRun, hands the builders the
// lockstep fact exactly when the resolved model delivers in one round (Δ =
// 1, drops allowed) and no adversary is set. Every Δ = 2 model, every
// non-nil adversary, and the exported Build keep every iteration. The core
// builder is wrapped to record what it was handed.
func TestLockstepDerivation(t *testing.T) {
	orig := builders[Core]
	t.Cleanup(func() { builders[Core] = orig })
	var handed []bool
	builders[Core] = func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		handed = append(handed, cfg.run.lockstep)
		return orig(cfg)
	}

	base := Config{Protocol: Core, N: 40, F: 12, Lambda: 10}
	delta2 := func(net NetName) Config {
		cfg := base
		cfg.Net, cfg.Delta = net, 2
		return cfg
	}
	omission := func(delta int) Config {
		cfg := base
		cfg.Net, cfg.Delta, cfg.OmissionRate = NetOmission, delta, 0.25
		return cfg
	}
	sparse := base
	sparse.Sparse = true

	type row struct {
		name string
		run  func() error
		want bool
	}
	runCfg := func(cfg Config) func() error {
		return func() error { _, err := Run(cfg); return err }
	}
	simRun := func(cc ChaosConfig) func() error {
		return func() error { _, err := cc.SimRun(context.Background(), base); return err }
	}
	rows := []row{
		{"delta-one passive", runCfg(base), true},
		{"delta-one passive Sparse", runCfg(sparse), true},
		{"omission delta-one", runCfg(omission(1)), true},
		{"chaos SimRun delta-one drops", simRun(ChaosConfig{DropRate: 0.25}), true},
		{"worst-case delta-two", runCfg(delta2(NetWorstCase)), false},
		{"jitter delta-two", runCfg(delta2(NetJitter)), false},
		{"omission delta-two", runCfg(omission(2)), false},
		{"partition delta-two", runCfg(delta2(NetPartition)), false},
		{"chaos SimRun delta-two", simRun(ChaosConfig{Delta: 2, DropRate: 0.25}), false},
		{"Build", func() error { _, _, _, err := Build(base); return err }, false},
	}
	for _, name := range Adversaries() {
		adv, err := NewAdversary(name, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Adversary = adv
		// "none" resolves to the passive (nil) adversary.
		rows = append(rows, row{"adversary " + name, runCfg(cfg), adv == nil})
	}
	for _, r := range rows {
		handed = nil
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(handed) != 1 || handed[0] != r.want {
			t.Errorf("%s: core builder handed lockstep %v, want [%v]", r.name, handed, r.want)
		}
	}
}
