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
//	ba -sparse -n 100000 -f 30000 -lambda 40       # large-N node representation
//	ba -scenario core-sparse-n100k
//	ba -scenario core-delta3-n200
//	ba -protocol aba -n 16 -f 5 -sched adversarial-delay   # async track
//	ba -protocol acs -n 16 -f 5 -crashes 5 -sched random
//	ba -scenario acs-n16 -trials 50 -workers 4 -json
//	ba -scenarios
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"ccba"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ba:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ba", flag.ContinueOnError)
	var (
		protocol      = fs.String("protocol", "core", "protocol: core, core-broadcast, quadratic, phaseking, phaseking-sampled, chenmicali, dolevstrong, committee, brb, aba, acs")
		n             = fs.Int("n", 200, "number of nodes")
		f             = fs.Int("f", 60, "corruption budget")
		lambda        = fs.Int("lambda", 40, "expected committee size")
		epochs        = fs.Int("epochs", 20, "epochs (phase-king protocols)")
		crypto        = fs.String("crypto", "ideal", "crypto mode: ideal (F_mine hybrid) or real (Ed25519 VRF)")
		seed          = fs.Int64("seed", 1, "execution seed")
		adversary     = fs.String("adversary", "none", "adversary from the registry (see ccba.Adversaries): none, silent, flip, …")
		erasure       = fs.Bool("erasure", false, "memory-erasure model (chenmicali)")
		senderInput   = fs.Int("sender-input", 0, "sender input bit (broadcast protocols)")
		unanimous     = fs.Int("unanimous", -1, "if 0 or 1, give every node that input bit (agreement protocols)")
		net           = fs.String("net", "", "network model: delta-one (default), delta (worst-case Δ-delay), jitter, omission, partition")
		delta         = fs.Int("delta", 0, "delivery bound Δ for the delay-capable network models")
		sched         = fs.String("sched", "", "async scheduler for brb/aba/acs: fifo (default), random, adversarial-delay")
		advDelay      = fs.Int("adv-delay", 0, "adversarial-delay holdback penalty (0 = 4·n; adversarial-delay scheduler only)")
		crashes       = fs.Int("crashes", 0, "crash-faulty node count drawn seed-deterministically (async protocols, ≤ f)")
		omissionRate  = fs.Float64("omission-rate", 0, "per-link drop probability of the omission model")
		faulty        = fs.Int("faulty", 0, "omission-faulty sender count (0 = the corruption budget f)")
		scenarioName  = fs.String("scenario", "", "run a registered scenario by name; other flags override its fields")
		listScenarios = fs.Bool("scenarios", false, "list the registered scenarios and exit")
		trials        = fs.Int("trials", 1, "number of runs (aggregated when > 1)")
		workers       = fs.Int("workers", 0, "trial worker-pool size (0 = GOMAXPROCS); aggregates are identical for every value")
		sparse        = fs.Bool("sparse", false, "memory-lean large-N node representation (delta-one, passive adversary); use for n ≥ ~10⁵")
		asJSON        = fs.Bool("json", false, "emit the outcome as JSON")
		traceFile     = fs.String("trace", "", "write the canonical round-event trace (JSONL, DESIGN.md §10) to this file; single runs only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listScenarios {
		for _, name := range ccba.ScenarioNames() {
			sc, _ := ccba.LookupScenario(name)
			fmt.Fprintf(out, "%-24s %s\n", name, sc.Description)
		}
		return nil
	}

	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })

	cfg := ccba.Config{
		Protocol: ccba.Protocol(*protocol),
		N:        *n, F: *f, Lambda: *lambda, Epochs: *epochs,
		Crypto:       ccba.CryptoMode(*crypto),
		Erasure:      *erasure,
		Sparse:       *sparse,
		Net:          ccba.NetName(*net),
		Delta:        *delta,
		OmissionRate: *omissionRate,
		Sched:        ccba.SchedName(*sched),
		AdvDelay:     *advDelay,
		Crashes:      *crashes,
	}
	advName := *adversary
	if *scenarioName != "" {
		sc, ok := ccba.LookupScenario(*scenarioName)
		if !ok {
			return fmt.Errorf("unknown scenario %q (registered: %v)", *scenarioName, ccba.ScenarioNames())
		}
		cfg = sc.Config
		if !set["adversary"] {
			advName = sc.Adversary
			if advName == "" {
				advName = "none"
			}
		}
		// Explicitly passed flags override the scenario's fields.
		override := map[string]func(){
			"protocol":      func() { cfg.Protocol = ccba.Protocol(*protocol) },
			"n":             func() { cfg.N = *n },
			"f":             func() { cfg.F = *f },
			"lambda":        func() { cfg.Lambda = *lambda },
			"epochs":        func() { cfg.Epochs = *epochs },
			"crypto":        func() { cfg.Crypto = ccba.CryptoMode(*crypto) },
			"erasure":       func() { cfg.Erasure = *erasure },
			"net":           func() { cfg.Net = ccba.NetName(*net) },
			"delta":         func() { cfg.Delta = *delta },
			"omission-rate": func() { cfg.OmissionRate = *omissionRate },
			"sched":         func() { cfg.Sched = ccba.SchedName(*sched) },
			"adv-delay":     func() { cfg.AdvDelay = *advDelay },
			"crashes":       func() { cfg.Crashes = *crashes },
			"sparse":        func() { cfg.Sparse = *sparse },
		}
		for name, apply := range override {
			if set[name] {
				apply()
			}
		}
	}
	if *faulty > 0 {
		cfg.OmissionFaulty = *faulty
	}
	var err error
	if cfg.Seed, err = ccba.SeedFromInt(*seed); err != nil {
		return err
	}
	if set["sender-input"] || *scenarioName == "" {
		// An explicitly passed -sender-input overrides a scenario's value in
		// either direction, 1 or 0 (the non-scenario default is 0 anyway).
		cfg.SenderInput = ccba.Zero
		if *senderInput == 1 {
			cfg.SenderInput = ccba.One
		}
	}
	switch *unanimous {
	case 0:
		cfg.Inputs, cfg.InputPattern = nil, "unanimous-0"
	case 1:
		cfg.Inputs, cfg.InputPattern = nil, "unanimous-1"
	}

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

	if *trials > 1 {
		if *traceFile != "" {
			return fmt.Errorf("-trace records one execution; drop -trials or run them one seed at a time")
		}
		st, err := ccba.RunTrialsOpts(cfg, ccba.TrialOpts{
			Trials:       *trials,
			Workers:      *workers,
			NewAdversary: newAdversary,
		})
		if e := advErr.Load(); e != nil {
			return fmt.Errorf("adversary %q: %w", advName, *e)
		}
		if err != nil {
			return err
		}
		if *asJSON {
			if err := writeJSON(out, st); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s net=%s delta=%d trials=%d workers=%d\n",
				cfg.Protocol, cfg.N, cfg.F, cfg.Crypto, netLabel(cfg), cfg.Delta, *trials, *workers)
			fmt.Fprintf(out, "  violations:      %d (rate %.3f, 95%% CI [%.3f, %.3f])\n",
				st.Violations, st.ViolationRate, st.ViolationLo, st.ViolationHi)
			fmt.Fprintf(out, "  rounds:          %v\n", st.Rounds)
			fmt.Fprintf(out, "  multicasts:      %v (%.1f KB mean)\n", st.Multicasts, st.MeanMcastBytes/1024)
			fmt.Fprintf(out, "  classical msgs:  %v\n", st.Messages)
		}
		// Same exit-code contract as a single run: violations fail the command.
		if st.Violations > 0 {
			return fmt.Errorf("security properties violated in %d/%d trials", st.Violations, *trials)
		}
		return nil
	}

	cfg.Adversary = newAdversary(0)
	var rec *ccba.TraceRecorder
	if *traceFile != "" {
		rec = ccba.NewTraceRecorder(0)
		cfg.Tracer = rec
	}
	rep, err := ccba.Run(cfg)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(*traceFile, rec); err != nil {
			return err
		}
	}
	outputs := map[ccba.Bit]int{}
	for _, id := range rep.ForeverHonest() {
		if rep.Decided[id] {
			outputs[rep.Outputs[id]]++
		}
	}
	if *asJSON {
		doc := singleRunJSON{
			Protocol:   string(cfg.Protocol),
			N:          cfg.N,
			F:          cfg.F,
			Crypto:     string(cfg.Crypto),
			Net:        netLabel(cfg),
			Delta:      max(cfg.Delta, 1),
			Seed:       *seed,
			Rounds:     rep.Rounds,
			Corrupted:  rep.NumCorrupt(),
			Metrics:    rep.Result.Metrics,
			Intern:     rep.Intern,
			Async:      rep.Async,
			Ok:         rep.Ok(),
			Violations: map[string]string{},
		}
		for name, err := range map[string]error{
			"consistency": rep.Consistency, "validity": rep.Validity, "termination": rep.Termination,
		} {
			if err != nil {
				doc.Violations[name] = err.Error()
			}
		}
		if err := writeJSON(out, doc); err != nil {
			return err
		}
		if !rep.Ok() {
			return fmt.Errorf("security properties violated")
		}
		return nil
	}
	fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s net=%s delta=%d seed=%d\n",
		cfg.Protocol, cfg.N, cfg.F, cfg.Crypto, netLabel(cfg), max(cfg.Delta, 1), *seed)
	fmt.Fprintf(out, "  rounds:            %d\n", rep.Rounds)
	fmt.Fprintf(out, "  corrupted:         %d\n", rep.NumCorrupt())
	fmt.Fprintf(out, "  multicasts:        %d (%d bytes)\n",
		rep.Result.Metrics.HonestMulticasts, rep.Result.Metrics.HonestMulticastBytes)
	fmt.Fprintf(out, "  classical msgs:    %d (%d bytes)\n",
		rep.Result.Metrics.HonestMessages, rep.Result.Metrics.HonestMessageBytes)
	fmt.Fprintf(out, "  honest outputs:    %v\n", outputs)
	if rep.Async != nil {
		fmt.Fprintf(out, "  decide round:      %d\n", rep.Async.DecideRound)
		if rep.Async.SetSize >= 0 {
			fmt.Fprintf(out, "  acs set size:      %d\n", rep.Async.SetSize)
		}
	}
	fmt.Fprintf(out, "  consistency:       %v\n", errString(rep.Consistency))
	fmt.Fprintf(out, "  validity:          %v\n", errString(rep.Validity))
	fmt.Fprintf(out, "  termination:       %v\n", errString(rep.Termination))
	if !rep.Ok() {
		return fmt.Errorf("security properties violated")
	}
	return nil
}

// netLabel names the effective message-scheduling model of a config: the
// network model on the synchronous track, the scheduler on the async one.
func netLabel(cfg ccba.Config) string {
	if cfg.Protocol.Async() {
		if cfg.Sched == "" {
			return "sched:" + string(ccba.SchedFIFO)
		}
		return "sched:" + string(cfg.Sched)
	}
	if cfg.Net == "" {
		return string(ccba.NetDeltaOne)
	}
	return string(cfg.Net)
}

// singleRunJSON is the -json document for a single execution. The intern
// field appears only on interning runs (Sparse defaults it on); its counters
// are deterministic per (config, seed), so sparse documents stay
// byte-diffable across GOMAXPROCS values.
type singleRunJSON struct {
	Protocol   string            `json:"protocol"`
	N          int               `json:"n"`
	F          int               `json:"f"`
	Crypto     string            `json:"crypto"`
	Net        string            `json:"net"`
	Delta      int               `json:"delta"`
	Seed       int64             `json:"seed"`
	Rounds     int               `json:"rounds"`
	Corrupted  int               `json:"corrupted"`
	Metrics    ccba.Metrics      `json:"metrics"`
	Intern     *ccba.InternStats `json:"intern,omitempty"`
	Async      *ccba.AsyncInfo   `json:"async,omitempty"`
	Ok         bool              `json:"ok"`
	Violations map[string]string `json:"violations"`
}

// writeTrace exports a recorder's canonical JSONL to path.
func writeTrace(path string, rec *ccba.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return "VIOLATED: " + err.Error()
}
