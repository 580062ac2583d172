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
// -transport picks the runtime that executes the config:
//
//	-transport sim     the lockstep simulator (the event-driven one for
//	                   brb, aba and acs); the default
//	-transport chan    a live cluster: n nodes in this process, one
//	                   goroutine each, over in-process channels
//	-transport tcp     a live cluster over a localhost (or cross-host) TCP
//	                   mesh with length-prefixed framing; all n nodes in
//	                   this process by default, or a single node joining a
//	                   mesh with -node and -peers
//
// A live cluster drives the same node state machines as concurrent node
// processes exchanging wire-encoded envelopes, and every node applies the
// config's network model in its own round loop: a frame the model delays
// d rounds is delivered d rounds after it was sent, drops and crash windows
// hit only seed-chosen faulty senders (DESIGN.md §7). A node enters a round
// only once every node has finished the last, so a live run prints the
// simulator's bytes under every model and Δ, -trace included; the E14
// experiment cross-validates the runtimes. Live runs execute honest
// synchronous protocols one at a time: an adversary, an async protocol,
// -sparse and -trials > 1 need the simulator, and -node, -peers, -obs-addr
// and -obs-linger need a live transport. A refused config is refused
// before any transport is built. The multi-process form (-node) runs the
// Appendix D compiler's real crypto for the committee-sampled protocols:
// the hybrid world's F_mine trusted party cannot be split across
// processes.
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
//	ba -transport chan -n 200 -f 60 -lambda 40
//	ba -transport chan -scenario core-omission-n200 -json
//	ba -transport chan -n 16 -f 4 -net chaos -delta 2 -omission-rate 0.2 -partition-rounds 4
//	ba -transport tcp -n 4 -f 1
//	ba -transport tcp -crypto real -node 0 -peers 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703,127.0.0.1:7704
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"ccba"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ba:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	inv, err := parse(args, out)
	if inv == nil {
		return err
	}
	if inv.transport != "sim" {
		return runLive(ctx, inv, out)
	}
	cfg, advName := inv.Config, inv.Adversary

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

	if inv.trials > 1 {
		if inv.trace != "" {
			return fmt.Errorf("-trace records one execution; drop -trials or run them one seed at a time")
		}
		st, err := ccba.RunTrialsOpts(cfg, ccba.TrialOpts{
			Trials:       inv.trials,
			Workers:      inv.workers,
			NewAdversary: newAdversary,
		})
		if e := advErr.Load(); e != nil {
			return fmt.Errorf("adversary %q: %w", advName, *e)
		}
		if err != nil {
			return err
		}
		if inv.json {
			if err := writeJSON(out, st); err != nil {
				return err
			}
		} else {
			norm, err := cfg.Normalized()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s net=%s delta=%d trials=%d workers=%d\n",
				norm.Protocol, norm.N, norm.F, norm.Crypto, netLabel(norm), max(norm.Delta, 1), inv.trials, inv.workers)
			fmt.Fprintf(out, "  violations:      %d (rate %.3f, 95%% CI [%.3f, %.3f])\n",
				st.Violations, st.ViolationRate, st.ViolationLo, st.ViolationHi)
			fmt.Fprintf(out, "  rounds:          %v\n", st.Rounds)
			fmt.Fprintf(out, "  multicasts:      %v (%.1f KB mean)\n", st.Multicasts, st.MeanMcastBytes/1024)
			fmt.Fprintf(out, "  classical msgs:  %v\n", st.Messages)
		}
		// Same exit-code contract as a single run: violations fail the command.
		if st.Violations > 0 {
			return fmt.Errorf("security properties violated in %d/%d trials", st.Violations, inv.trials)
		}
		return nil
	}

	cfg.Adversary = newAdversary(0)
	var rec *ccba.TraceRecorder
	if inv.trace != "" {
		rec = ccba.NewTraceRecorder(0)
		cfg.Tracer = rec
	}
	rep, err := ccba.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(inv.trace, rec); err != nil {
			return err
		}
	}
	return inv.report(out, rep)
}
