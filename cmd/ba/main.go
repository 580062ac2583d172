// Command ba runs one Byzantine Agreement (or Broadcast) instance of any of
// the implemented protocols and prints the outcome and communication
// metrics. With -trials it fans independent runs out across harness workers
// and prints (or emits as JSON) the aggregate.
//
// Protocols, adversaries, and network models all resolve through the ccba
// scenario registries: -adversary names a registered strategy, -net/-delta
// select the message-scheduling model, and -scenario loads a whole
// registered setting (individual flags still override its fields).
//
// Examples:
//
//	ba -protocol core -n 500 -f 150 -lambda 40
//	ba -protocol core -crypto real -n 200 -f 60
//	ba -protocol dolevstrong -n 32 -f 10 -sender-input 1
//	ba -protocol chenmicali -n 150 -erasure=false -adversary flip
//	ba -protocol core -n 200 -f 60 -trials 100 -workers 8 -json
//	ba -net delta -delta 3 -trials 8 -workers 4 -json
//	ba -net omission -omission-rate 0.25 -n 100 -f 30
//	ba -sparse -n 100000 -f 30000 -lambda 40       # plus intern statistics
//	ba -scenario core-sparse-n100k
//	ba -scenario core-delta3-n200
//	ba -scenario core-chaos-n32    # exits 1: Δ=2 stalls node 0 (E12's liveness collapse)
//	ba -net chaos -n 24 -f 7 -lambda 8 -omission-rate 0.25 -crash-from 2 -crash-rounds 4
//	ba -protocol aba -n 16 -f 5 -sched adversarial-delay   # async track
//	ba -protocol acs -n 16 -f 5 -crashes 5 -sched random
//	ba -scenario acs-n16 -trials 50 -workers 4 -json
//	ba -scenarios
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"ccba"
	"ccba/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ba:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	var trials, workers int
	r, err := cli.Parse("ba", args, out, func(fs *flag.FlagSet, sc *ccba.Scenario) {
		c := &sc.Config
		if sc.Adversary == "" {
			sc.Adversary = "none"
		}
		fs.StringVar(&sc.Adversary, "adversary", sc.Adversary, "adversary from the registry (see ccba.Adversaries): none, silent, flip, …")
		fs.StringVar((*string)(&c.Sched), "sched", string(c.Sched), "async scheduler for brb/aba/acs: fifo (default), random, adversarial-delay")
		fs.IntVar(&c.AdvDelay, "adv-delay", c.AdvDelay, "adversarial-delay holdback penalty (0 = 4·n; adversarial-delay scheduler only)")
		fs.IntVar(&c.Crashes, "crashes", c.Crashes, "crash-faulty node count drawn seed-deterministically (async protocols, ≤ f)")
		fs.BoolVar(&c.Sparse, "sparse", c.Sparse, "assert the delta-one, passive-adversary regime and report the attestation intern statistics (node state is the same without it)")
		fs.IntVar(&trials, "trials", 1, "number of runs (aggregated when > 1)")
		fs.IntVar(&workers, "workers", 0, "trial worker-pool size (0 = GOMAXPROCS); aggregates are identical for every value")
	})
	if r == nil {
		return err
	}
	cfg, advName := r.Config, r.Adversary

	// Adversaries are stateful, so the registry builds one fresh instance
	// per trial; resolve once up front so an unknown name or unsupported
	// protocol fails before any trial runs. Factories may still fail for a
	// later trial (the trial index is part of their contract), so the first
	// such error is captured and fails the command rather than letting
	// those trials silently run passive.
	if _, err := ccba.NewAdversary(advName, cfg, 0); err != nil {
		return err
	}
	var advErr atomic.Pointer[error]
	newAdversary := func(trial int) ccba.Adversary {
		adv, err := ccba.NewAdversary(advName, cfg, trial)
		if err != nil {
			advErr.CompareAndSwap(nil, &err)
			return nil
		}
		return adv
	}

	if trials > 1 {
		if r.Trace != "" {
			return fmt.Errorf("-trace records one execution; drop -trials or run them one seed at a time")
		}
		st, err := ccba.RunTrialsOpts(cfg, ccba.TrialOpts{
			Trials:       trials,
			Workers:      workers,
			NewAdversary: newAdversary,
		})
		if e := advErr.Load(); e != nil {
			return fmt.Errorf("adversary %q: %w", advName, *e)
		}
		if err != nil {
			return err
		}
		if r.JSON {
			if err := cli.WriteJSON(out, st); err != nil {
				return err
			}
		} else {
			norm, err := cfg.Normalized()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s net=%s delta=%d trials=%d workers=%d\n",
				norm.Protocol, norm.N, norm.F, norm.Crypto, cli.NetLabel(norm), max(norm.Delta, 1), trials, workers)
			fmt.Fprintf(out, "  violations:      %d (rate %.3f, 95%% CI [%.3f, %.3f])\n",
				st.Violations, st.ViolationRate, st.ViolationLo, st.ViolationHi)
			fmt.Fprintf(out, "  rounds:          %v\n", st.Rounds)
			fmt.Fprintf(out, "  multicasts:      %v (%.1f KB mean)\n", st.Multicasts, st.MeanMcastBytes/1024)
			fmt.Fprintf(out, "  classical msgs:  %v\n", st.Messages)
		}
		// Same exit-code contract as a single run: violations fail the command.
		if st.Violations > 0 {
			return fmt.Errorf("security properties violated in %d/%d trials", st.Violations, trials)
		}
		return nil
	}

	cfg.Adversary = newAdversary(0)
	var rec *ccba.TraceRecorder
	if r.Trace != "" {
		rec = ccba.NewTraceRecorder(0)
		cfg.Tracer = rec
	}
	rep, err := ccba.Run(cfg)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := cli.WriteTrace(r.Trace, rec); err != nil {
			return err
		}
	}
	return r.Report(out, rep, "")
}
