package experiments

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"ccba/internal/harness"
	"ccba/internal/scenario"
	"ccba/internal/table"
)

// E12Row is one network-model setting of the timing/fault experiment.
type E12Row struct {
	Setting         string
	Net             scenario.NetName
	Delta           int
	OmissionRate    float64
	Trials          int
	SafetyViol      int     // consistency or validity breaks
	TerminationRate float64 // fraction of trials where every honest node decided
	MeanRounds      float64
	MeanMulticasts  float64
	// BrokenSeeds lists the cmd/ba seeds whose trial broke safety, for the
	// row that runs cmd/ba's seeds rather than derived ones.
	BrokenSeeds []int
}

// E12Result is the network-model experiment the pluggable scheduling layer
// opens up: the same core-protocol instance under adversarial Δ-delay,
// seeded jitter, temporary partition, and omission faults.
//
// The headline shape: lockstep protocols are correct exactly at their
// design assumption Δ=1 — worst-case Δ≥2 scheduling stalls the commit
// quorums and liveness collapses, jitter (which still delivers a fraction
// of links in one round) degrades more gently, and omission faults on ≤ f
// senders thin the committees in proportion to the drop rate. Safety is
// the paper's claim only in lockstep synchrony, where a round-r message
// arrives at round r+1: the control and omission rows, where a dropped
// vote can stall a quorum but never forge one. A Δ≥2 schedule is outside
// that model, and the rows measure what happens there rather than promise
// safety: core loses consistency under a Δ=3 partition at n=10, f=3, λ=6
// with nobody corrupted. The n=10 partition row counts that: it runs
// cmd/ba's seeds 0…smallPartitionSeeds−1, so every violation it reports
// replays as `cmd/ba -n 10 -f 3 -lambda 6 -net partition -delta 3 -seed S`
// (seed 1131 is TestE12PartitionBreaksConsistency's).
type E12Result struct {
	N, F, Lambda int
	Rows         []E12Row
	Artifacts
}

// smallPartitionSeeds is how many cmd/ba seeds the n=10 partition row
// runs. Core breaks consistency there on about one seed in a thousand
// (seeds 1131, 2597, 2723 and 3494 of the first 4000), so a row of a few
// trials would read zero.
const smallPartitionSeeds = 4000

// E12NetworkModels sweeps agreement and communication against Δ and
// omission rate.
func E12NetworkModels(o Opts) (*E12Result, error) {
	const n, f, lambda, maxIters = 100, 30, 30, 12
	res := &E12Result{N: n, F: f, Lambda: lambda}
	res.Table = table.New(
		fmt.Sprintf("E12 (extension) — agreement & communication vs Δ-scheduling and omission rate (core, n=%d, f=%d, λ=%d unless the row says otherwise)", n, f, lambda),
		"network model", "Δ", "omit rate", "trials", "safety viol.", "termination", "mean rounds", "mean multicasts",
	)
	res.Table.Note = "Safety is proven for lockstep synchrony (Δ=1: the control and omission rows); Δ≥2 rows are outside that model and report violations rather than rule them out. Liveness is the lockstep assumption made measurable — worst-case Δ≥2 stalls quorums, jitter and omission degrade gradually."
	res.Sweep = harness.NewSweep("e12")

	type setting struct {
		label string
		net   scenario.NetName
		delta int
		rate  float64
		small bool // n=10, f=3, λ=6 over cmd/ba's seeds 0…smallPartitionSeeds−1
	}
	settings := []setting{
		{"lockstep (control)", scenario.NetDeltaOne, 1, 0, false},
		{"worst-case Δ-delay", scenario.NetWorstCase, 2, 0, false},
		{"worst-case Δ-delay", scenario.NetWorstCase, 3, 0, false},
		{"seeded jitter", scenario.NetJitter, 2, 0, false},
		{"seeded jitter", scenario.NetJitter, 3, 0, false},
		{"partition (heals at 2Δ)", scenario.NetPartition, 3, 0, false},
		{"partition (heals at 2Δ), n=10 f=3 λ=6", scenario.NetPartition, 3, 0, true},
		{"omission (f faulty senders)", scenario.NetOmission, 1, 0.1, false},
		{"omission (f faulty senders)", scenario.NetOmission, 1, 0.25, false},
		{"omission (f faulty senders)", scenario.NetOmission, 1, 0.5, false},
		{"omission (f faulty senders)", scenario.NetOmission, 1, 1, false},
	}

	for _, st := range settings {
		sc := scenario.Scenario{Config: scenario.Config{
			Protocol: scenario.Core, N: n, F: f, Lambda: lambda, MaxIters: maxIters,
			Net: st.net, Delta: st.delta, OmissionRate: st.rate,
		}}
		opts := o.options("e12", fmt.Sprintf("%s/delta=%d/rate=%.2f", st.net, st.delta, st.rate))
		if st.small {
			// MaxIters 0 is cmd/ba's default, so each trial is that command's run.
			sc.Config.N, sc.Config.F, sc.Config.Lambda, sc.Config.MaxIters = 10, 3, 6, 0
			opts.Scenario += "/n=10"
			opts.Trials = smallPartitionSeeds
		}
		var (
			mu     sync.Mutex
			broken []int
		)
		agg, err := harness.Collect(opts, func(tr harness.Trial) (*harness.Obs, error) {
			seed := tr.Seed
			if st.small {
				// cmd/ba -seed S: S little-endian in the first eight bytes.
				seed = [32]byte{}
				binary.LittleEndian.PutUint64(seed[:8], uint64(tr.Index))
			}
			// sc.Run, not o.run: this experiment sweeps the network model
			// itself, so the global -net override does not apply.
			rep, err := sc.Run(seed, tr.Index)
			if err != nil {
				return nil, err
			}
			v := checkReport(rep)
			if st.small && (v.consistency || v.validity) {
				mu.Lock()
				broken = append(broken, tr.Index)
				mu.Unlock()
			}
			obs := harness.NewObs().
				Event("safety_violation", v.consistency || v.validity).
				Event("terminated", !v.termination).
				Value("rounds", float64(rep.Rounds)).
				Value("multicasts", float64(rep.Metrics.HonestMulticasts))
			return obs, nil
		})
		if err != nil {
			return nil, err
		}
		res.Sweep.Add(agg)
		slices.Sort(broken)
		row := E12Row{
			Setting: st.label, Net: st.net, Delta: st.delta, OmissionRate: st.rate,
			Trials:          opts.Trials,
			BrokenSeeds:     broken,
			SafetyViol:      agg.Count("safety_violation"),
			TerminationRate: agg.Rate("terminated"),
			MeanRounds:      agg.Mean("rounds"),
			MeanMulticasts:  agg.Mean("multicasts"),
		}
		res.Rows = append(res.Rows, row)
		res.Table.Add(row.Setting, row.Delta, fmt.Sprintf("%.2f", row.OmissionRate), row.Trials,
			row.SafetyViol, pct(row.TerminationRate), row.MeanRounds, row.MeanMulticasts)
		if st.small {
			res.Table.Note += fmt.Sprintf(" The n=10 partition row runs cmd/ba's seeds 0–%d (`cmd/ba -n 10 -f 3 -lambda 6 -net partition -delta 3 -seed S`); safety broke, with nobody corrupted, at seeds %v.",
				smallPartitionSeeds-1, broken)
		}
	}
	return res, nil
}
