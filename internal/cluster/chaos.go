package cluster

import (
	"context"
	"fmt"

	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
)

// resolveChaos normalizes cfg, lowers the chaos declaration to a transport
// spec against the normalized parameters, and fills in the synchronizer
// options the spec implies: Options.Delta defaults to the chaos Δ, and
// reordering demands a soft round deadline so frames held past their sync
// marker cannot stall the all-ack barrier forever. (Schedule delays need no
// check: they are held (d−1)·RoundInterval, nothing without an interval.)
func resolveChaos(cfg scenario.Config, chaos scenario.ChaosConfig, opts Options) (scenario.Config, transport.ChaosSpec, Options, error) {
	normalized, err := cfg.Normalized()
	if err != nil {
		return scenario.Config{}, transport.ChaosSpec{}, opts, err
	}
	spec, err := chaos.TransportSpec(normalized, opts.RoundInterval)
	if err != nil {
		return scenario.Config{}, transport.ChaosSpec{}, opts, err
	}
	if opts.Delta == 0 {
		opts.Delta = chaos.EffectiveDelta()
	}
	if opts.Delta < chaos.EffectiveDelta() {
		return scenario.Config{}, transport.ChaosSpec{}, opts, fmt.Errorf(
			"cluster: chaos schedule assumes Δ=%d but the synchronizer is budgeted for Δ=%d",
			chaos.EffectiveDelta(), opts.Delta)
	}
	if spec.ReorderRate > 0 && opts.RoundInterval <= 0 {
		return scenario.Config{}, transport.ChaosSpec{}, opts, fmt.Errorf(
			"cluster: chaos reordering holds data frames past their sync markers, which stalls the pure all-ack barrier; set Options.RoundInterval to arm the soft round deadline")
	}
	return normalized, spec, opts, nil
}

// RunChaos executes cfg live over net with the declared fault schedule
// injected below the protocol surface: every endpoint is wrapped in the
// chaos layer before the nodes ever see it, so the protocol code runs
// unmodified against a misbehaving network. The spec is validated against
// the normalized config's (N, F) — the live injector gets exactly the power
// the simulator's adversary model grants and no more (DESIGN.md §7).
func RunChaos(ctx context.Context, cfg scenario.Config, net transport.Network, chaos scenario.ChaosConfig, opts Options) (*Report, error) {
	normalized, spec, opts, err := resolveChaos(cfg, chaos, opts)
	if err != nil {
		return nil, err
	}
	// The injection layer reports its accepted drops through the same
	// observability channels as the runners, so chaos traces carry the
	// fault events the simulator emits for the same schedule.
	spec.Obs = obs.NewSink(opts.Tracer)
	spec.Telemetry = opts.Telemetry
	return Run(ctx, normalized, transport.NewChaosNetwork(net, spec), opts)
}

// RunNodeChaos is RunChaos for one node of a multi-process cluster: the
// process's own endpoint is wrapped in the chaos layer. Every process must
// pass the same cfg and chaos declaration — the spec is seed-deterministic,
// so each process derives the identical schedule for its own links.
func RunNodeChaos(ctx context.Context, cfg scenario.Config, tr transport.Transport, chaos scenario.ChaosConfig, opts Options) (*Report, error) {
	normalized, spec, opts, err := resolveChaos(cfg, chaos, opts)
	if err != nil {
		return nil, err
	}
	spec.Obs = obs.NewSink(opts.Tracer)
	spec.Telemetry = opts.Telemetry
	chaosTr, err := transport.WrapChaos(tr, spec)
	if err != nil {
		return nil, err
	}
	return RunNode(ctx, normalized, chaosTr, opts)
}
