package cluster

import (
	"fmt"

	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
)

// resolveChaos lowers opts.Chaos to a transport spec against the normalized
// config and fills in the synchronizer options the spec implies:
// opts.Delta defaults to the chaos Δ, and reordering demands a soft round
// deadline so frames held past their sync marker cannot stall the all-ack
// barrier forever. (Schedule delays need no check: they are held
// (d−1)·RoundInterval, nothing without an interval.) The injection layer
// reports its accepted drops through the same observability channels as
// the runners, so chaos traces carry the fault events the simulator emits
// for the same schedule.
func resolveChaos(normalized scenario.Config, opts *Options) (*transport.ChaosSpec, error) {
	chaos := *opts.Chaos
	spec, err := chaos.TransportSpec(normalized, opts.RoundInterval)
	if err != nil {
		return nil, err
	}
	if opts.Delta == 0 {
		opts.Delta = chaos.EffectiveDelta()
	}
	if opts.Delta < chaos.EffectiveDelta() {
		return nil, fmt.Errorf("cluster: chaos schedule assumes Δ=%d but the synchronizer is budgeted for Δ=%d",
			chaos.EffectiveDelta(), opts.Delta)
	}
	if spec.ReorderRate > 0 && opts.RoundInterval <= 0 {
		return nil, fmt.Errorf("cluster: chaos reordering holds data frames past their sync markers, which stalls the pure all-ack barrier; set Options.RoundInterval to arm the soft round deadline")
	}
	spec.Obs = obs.NewSink(opts.Tracer)
	spec.Telemetry = opts.Telemetry
	return &spec, nil
}
