package experiments

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"ccba/internal/cluster"
	"ccba/internal/harness"
	"ccba/internal/scenario"
	"ccba/internal/table"
	"ccba/internal/transport"
)

// E14Row is one (transport, Δ, drop rate) setting of the live/sim
// cross-validation sweep.
type E14Row struct {
	Transport       string
	Delta           int
	DropRate        float64
	Trials          int
	SafetyViol      int     // live consistency or validity breaks
	ExactMatch      float64 // fraction of trials bit-identical to the simulator
	TerminationRate float64 // fraction of live trials where every honest node decided
	MeanRoundsLive  float64
	MeanRoundsSim   float64
	MeanWallMs      float64 // live wall-clock per trial
}

// E14Result is the chaos cross-validation experiment: the same declarative
// fault schedule executed by the lockstep simulator and by a live cluster
// whose nodes apply it in their round loops. Both runtimes draw every drop
// and every per-link delay from the one netsim.Faults schedule, and a live
// recipient delivers a frame in the round the simulator does, so at every
// Δ, on chan and on TCP, each live run must be bit-identical to the
// simulated one — the strongest claim a distributed runtime can make
// against its model. The safety column makes a claim at Δ=1 only: the
// paper proves safety in the synchronous lockstep model, and a Δ=3
// partition can break core's consistency with nobody corrupted (seed 1131,
// TestE12PartitionBreaksConsistency), on both runtimes alike.
type E14Result struct {
	N, F, Lambda int
	Rows         []E14Row
	Artifacts
}

// e14Setting is one sweep point.
type e14Setting struct {
	transport string
	delta     int
	drop      float64
}

// E14CrossValidation runs the sweep: chan-mesh clusters over Δ ∈ {1, 2, 3}
// × drop ∈ {0, 0.25, 0.5}, plus one TCP-mesh point over real sockets.
// Trials run serially — a live cluster is already n goroutines, and the
// wall-clock column must not measure scheduler contention between trials.
func E14CrossValidation(o Opts) (*E14Result, error) {
	const n, f, lambda, maxIters = 32, 9, 10, 12
	res := &E14Result{N: n, F: f, Lambda: lambda}
	res.Table = table.New(
		fmt.Sprintf("E14 (extension) — live chaos cluster vs simulator, same seeds and fault schedules (core, n=%d, f=%d, λ=%d)", n, f, lambda),
		"transport", "Δ", "drop", "trials", "safety viol.", "exact ≡ sim", "termination", "rounds live", "rounds sim", "wall ms",
	)
	res.Table.Note = "Both runtimes call one fault schedule (netsim.Faults.Decide) for every drop and per-link delay, and a live node delivers each frame in the round the simulator does, so every live run must match the simulator bit for bit, at every Δ and on both transports. Safety is proved for Δ=1 alone."
	res.Sweep = harness.NewSweep("e14")

	var settings []e14Setting
	for _, delta := range []int{1, 2, 3} {
		for _, drop := range []float64{0, 0.25, 0.5} {
			settings = append(settings, e14Setting{"chan", delta, drop})
		}
	}
	settings = append(settings, e14Setting{"tcp", 2, 0.25})

	for _, st := range settings {
		cfg := scenario.Config{Protocol: scenario.Core, N: n, F: f, Lambda: lambda, MaxIters: maxIters,
			Net: scenario.NetChaos, Delta: st.delta, OmissionRate: st.drop}
		if st.transport == "tcp" {
			// Real sockets: a 32-node full mesh is 992 connections per
			// trial; 8 nodes keep the point honest and the sweep quick.
			cfg.N, cfg.F, cfg.Lambda = 8, 2, 4
		}
		copts := cluster.Options{RoundTimeout: 60 * time.Second}

		hopts := o.options("e14", fmt.Sprintf("%s/delta=%d/drop=%.2f", st.transport, st.delta, st.drop))
		hopts.Workers = 1
		agg, err := harness.Collect(hopts, func(tr harness.Trial) (*harness.Obs, error) {
			cfg := cfg
			cfg.Seed = tr.Seed
			return e14Trial(cfg, copts, st.transport)
		})
		if err != nil {
			return nil, err
		}
		res.Sweep.Add(agg)
		row := E14Row{
			Transport: st.transport, Delta: st.delta, DropRate: st.drop,
			Trials:          o.Trials,
			SafetyViol:      agg.Count("safety_violation"),
			ExactMatch:      agg.Rate("exact_match"),
			TerminationRate: agg.Rate("terminated"),
			MeanRoundsLive:  agg.Mean("rounds_live"),
			MeanRoundsSim:   agg.Mean("rounds_sim"),
			MeanWallMs:      agg.Mean("wall_ms"),
		}
		res.Rows = append(res.Rows, row)
		res.Table.Add(row.Transport, row.Delta, fmt.Sprintf("%.2f", row.DropRate), row.Trials,
			row.SafetyViol, pct(row.ExactMatch), pct(row.TerminationRate),
			fmt.Sprintf("%.1f", row.MeanRoundsLive), fmt.Sprintf("%.1f", row.MeanRoundsSim),
			fmt.Sprintf("%.1f", row.MeanWallMs))
	}
	res.Plots = []Plot{E14Plot(res)}
	return res, nil
}

// e14Trial executes one config on both runtimes and scores the comparison.
func e14Trial(cfg scenario.Config, copts cluster.Options, trName string) (*harness.Obs, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sim, err := scenario.RunCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}

	var netw transport.Network
	if trName == "tcp" {
		netw, err = transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	} else {
		netw, err = transport.NewChanNetwork(cfg.N)
	}
	if err != nil {
		return nil, err
	}
	defer netw.Close()

	start := time.Now()
	live, err := cluster.Run(ctx, cfg, netw, copts)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	v := checkReport(live.Report)
	match := reflect.DeepEqual(live.Result, sim.Result)
	if !match {
		return nil, fmt.Errorf("e14: Δ=%d live run diverged from the simulator (rounds %d vs %d)", cfg.Delta, live.Rounds, sim.Rounds)
	}
	return harness.NewObs().
		Event("safety_violation", v.consistency || v.validity).
		Event("terminated", !v.termination).
		Event("exact_match", match).
		Value("rounds_live", float64(live.Rounds)).
		Value("rounds_sim", float64(sim.Rounds)).
		Value("wall_ms", float64(wall)/float64(time.Millisecond)), nil
}
