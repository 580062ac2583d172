package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"ccba"
)

// invocation is one parsed command line: the scenario to execute — the
// registered one -scenario names, else the one the flags build — with every
// passed flag applied, plus the flags that are not part of a Config.
type invocation struct {
	ccba.Scenario
	// seed is the -seed value; parse has already widened it into
	// Config.Seed.
	seed            int64
	json            bool
	trace           string
	trials, workers int
	// transport picks the runtime: sim, chan or tcp. The fields after it
	// are read by the live runtimes only.
	transport      string
	node           int
	peers, obsAddr string
	obsLinger      time.Duration
}

// parse declares the command's one flag set and parses args. Every flag is
// bound onto the field it sets, with the field's current value as its
// default. Under -scenario the args are parsed a second time onto the
// scenario, so exactly the flags passed override it. With -scenarios parse
// lists the registry to out and returns a nil invocation.
func parse(args []string, out io.Writer) (*invocation, error) {
	inv := &invocation{Scenario: ccba.Scenario{Config: ccba.Config{
		Protocol: ccba.Core, N: 200, F: 60, Lambda: 40, Epochs: 20, Crypto: ccba.Ideal,
	}}}
	var list bool
	fs := inv.flagSet(&list)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if list {
		for _, name := range ccba.ScenarioNames() {
			sc, _ := ccba.LookupScenario(name)
			fmt.Fprintf(out, "%-24s %s\n", name, sc.Description)
		}
		return nil, nil
	}
	if inv.Name != "" {
		sc, ok := ccba.LookupScenario(inv.Name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (registered: %v)", inv.Name, ccba.ScenarioNames())
		}
		inv.Scenario = sc
		fs = inv.flagSet(&list)
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
	}
	if err := inv.checkRuntimeFlags(fs); err != nil {
		return nil, err
	}
	var err error
	if inv.Config.Seed, err = ccba.SeedFromInt(inv.seed); err != nil {
		return nil, err
	}
	// A count no run can honour fails here, before any transport exists:
	// -trials 0 would otherwise run one execution and exit 0.
	if inv.trials < 1 {
		return nil, fmt.Errorf("-trials must be at least 1, got %d", inv.trials)
	}
	if inv.workers < 0 {
		return nil, fmt.Errorf("-workers cannot be negative (0 = GOMAXPROCS), got %d", inv.workers)
	}
	return inv, nil
}

func (inv *invocation) flagSet(list *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("ba", flag.ContinueOnError)
	c := &inv.Config
	fs.StringVar((*string)(&c.Protocol), "protocol", string(c.Protocol), "protocol: core, core-broadcast, quadratic, phaseking, phaseking-sampled, chenmicali, dolevstrong, committee, brb, aba, acs")
	fs.IntVar(&c.N, "n", c.N, "number of nodes")
	fs.IntVar(&c.F, "f", c.F, "corruption budget")
	fs.IntVar(&c.Lambda, "lambda", c.Lambda, "expected committee size")
	fs.IntVar(&c.Epochs, "epochs", c.Epochs, "epochs (phase-king protocols)")
	fs.StringVar((*string)(&c.Crypto), "crypto", string(c.Crypto), "crypto mode: ideal (F_mine hybrid) or real (Ed25519 VRF)")
	fs.BoolVar(&c.Erasure, "erasure", c.Erasure, "memory-erasure model (chenmicali)")
	fs.Var(bitFlag{def: c.SenderInput.String(), set: func(b ccba.Bit) { c.SenderInput = b }},
		"sender-input", "sender input `bit`, 0 or 1 (broadcast protocols)")
	fs.Var(bitFlag{def: "-1", unset: true, set: func(b ccba.Bit) { c.Inputs, c.InputPattern = nil, "unanimous-"+b.String() }},
		"unanimous", "if 0 or 1, give every node that input `bit` (agreement protocols); -1 leaves the inputs alone")
	fs.StringVar((*string)(&c.Net), "net", string(c.Net), "network model: delta-one (default), delta (worst-case Δ-delay), jitter, omission, partition, chaos (all of them plus a crash window)")
	fs.IntVar(&c.Delta, "delta", c.Delta, "delivery bound Δ for the delay-capable network models")
	fs.Float64Var(&c.OmissionRate, "omission-rate", c.OmissionRate, "per-link drop probability on the faulty senders' links (omission, chaos)")
	fs.IntVar(&c.OmissionFaulty, "faulty", c.OmissionFaulty, "omission-faulty sender count (0 = f under omission; under chaos f when dropping, 1 for a crash window alone)")
	fs.IntVar(&c.PartitionRounds, "partition-rounds", c.PartitionRounds, "rounds the half/half partition lasts (partition: 0 = 2·Δ; chaos: 0 = none)")
	fs.IntVar(&c.CrashFrom, "crash-from", c.CrashFrom, "first round of the chaos crash window (with -crash-rounds)")
	fs.IntVar(&c.CrashRounds, "crash-rounds", c.CrashRounds, "crash the first faulty sender for this many rounds, then let it restart (chaos)")
	fs.Int64Var(&inv.seed, "seed", 1, "execution seed")
	fs.BoolVar(&inv.json, "json", false, "emit the outcome as JSON (one document for every transport)")
	fs.StringVar(&inv.trace, "trace", "", "write the canonical round-event trace (JSONL, DESIGN.md §10) to this file; single runs only")
	fs.StringVar(&inv.Name, "scenario", inv.Name, "run a registered scenario by name; other flags override its fields")
	fs.BoolVar(list, "scenarios", false, "list the registered scenarios and exit")

	if inv.Adversary == "" {
		inv.Adversary = "none"
	}
	fs.StringVar(&inv.Adversary, "adversary", inv.Adversary, "adversary from the registry (see ccba.Adversaries): none, silent, flip, …")
	fs.StringVar((*string)(&c.Sched), "sched", string(c.Sched), "async scheduler for brb/aba/acs: fifo (default), random, adversarial-delay")
	fs.IntVar(&c.AdvDelay, "adv-delay", c.AdvDelay, "adversarial-delay holdback penalty (0 = 4·n; adversarial-delay scheduler only)")
	fs.IntVar(&c.Crashes, "crashes", c.Crashes, "crash-faulty node count drawn seed-deterministically (async protocols, ≤ f)")
	fs.BoolVar(&c.Sparse, "sparse", c.Sparse, "assert the delta-one, passive-adversary regime and report the attestation intern statistics (node state is the same without it)")
	fs.IntVar(&inv.trials, "trials", 1, "number of runs (aggregated when > 1)")
	fs.IntVar(&inv.workers, "workers", 0, "trial worker-pool size (0 = GOMAXPROCS); aggregates are identical for every value")

	fs.StringVar(&inv.transport, "transport", "sim", "runtime: sim (the lockstep or event-driven simulator), chan (a live cluster over in-process channels) or tcp (a live cluster over a TCP mesh with length-prefixed framing)")
	fs.IntVar(&inv.node, "node", -1, "run only this node index over TCP, joining the -peers mesh (-1 = all nodes in this process)")
	fs.StringVar(&inv.peers, "peers", "", "comma-separated list of all node addresses in node order (tcp)")
	fs.StringVar(&inv.obsAddr, "obs-addr", "", "serve live telemetry on this host:port — /debug/vars (expvar, the \"ccba\" var) and /debug/pprof; port 0 picks a free one")
	fs.DurationVar(&inv.obsLinger, "obs-linger", 0, "keep the -obs-addr endpoint alive this long after the run, so scrapers (CI smoke jobs) can read final counters")
	return fs
}

// checkRuntimeFlags rejects an unknown -transport, every passed flag the
// chosen runtime would not read, and a passed -lambda or -epochs below 1,
// which the protocols would otherwise replace with their defaults.
func (inv *invocation) checkRuntimeFlags(fs *flag.FlagSet) error {
	switch inv.transport {
	case "sim", "chan", "tcp":
	default:
		return fmt.Errorf("unknown transport %q (want sim, chan or tcp)", inv.transport)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case (f.Name == "node" || f.Name == "peers") && inv.transport != "tcp":
			err = fmt.Errorf("-%s needs -transport tcp; sim and chan always host the whole cluster", f.Name)
		case (f.Name == "obs-addr" || f.Name == "obs-linger") && inv.transport == "sim":
			err = fmt.Errorf("-%s needs -transport chan or tcp; the simulator runs no live nodes", f.Name)
		case f.Name == "lambda" && inv.Config.Lambda < 1, f.Name == "epochs" && inv.Config.Epochs < 1:
			err = fmt.Errorf("-%s must be at least 1, got %s", f.Name, f.Value)
		}
	})
	return err
}

// bitFlag is an input-bit flag. It accepts 0 and 1 — and, when unset is
// true, -1 for "leave alone" — and fails the parse on anything else, so the
// error names the flag.
type bitFlag struct {
	def   string
	unset bool
	set   func(ccba.Bit)
}

func (b bitFlag) String() string { return b.def }

func (b bitFlag) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, 64)
	switch {
	case err != nil:
		return errors.New("parse error")
	case v == 0 || v == 1:
		b.set(ccba.Bit(v))
	case v == -1 && b.unset:
	case b.unset:
		return errors.New("want 0 or 1, or -1 for unset")
	default:
		return errors.New("want 0 or 1")
	}
	return nil
}

// document is the single-run -json document, field for field the same on
// every transport, so the runtimes' outputs diff clean for the same seed
// and configuration. The intern field appears only on interning runs
// (Sparse defaults it on); its counters are deterministic per (config,
// seed), so sparse documents stay byte-diffable across GOMAXPROCS values.
type document struct {
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

// report prints rep as the -json document or the text report and fails
// the command when a security property is violated. It describes the
// config the run executed, with every default applied; the text header
// names a live run's transport after the message schedule.
func (inv *invocation) report(out io.Writer, rep *ccba.Report) error {
	cfg, err := inv.Config.Normalized()
	if err != nil {
		return err
	}
	net, delta := netLabel(cfg), max(cfg.Delta, 1)
	props := []struct {
		name string
		err  error
	}{{"consistency", rep.Consistency}, {"validity", rep.Validity}, {"termination", rep.Termination}}
	if inv.json {
		doc := document{
			Protocol: string(cfg.Protocol), N: cfg.N, F: cfg.F, Crypto: string(cfg.Crypto),
			Net: net, Delta: delta, Seed: inv.seed,
			Rounds: rep.Rounds, Corrupted: rep.NumCorrupt(), Metrics: rep.Result.Metrics,
			Intern: rep.Intern, Async: rep.Async, Ok: rep.Ok(),
			Violations: map[string]string{},
		}
		for _, p := range props {
			if p.err != nil {
				doc.Violations[p.name] = p.err.Error()
			}
		}
		if err := writeJSON(out, doc); err != nil {
			return err
		}
	} else {
		where := fmt.Sprintf("net=%s delta=%d", net, delta)
		if inv.transport != "sim" {
			where += " transport=" + inv.transport
		}
		outputs := map[ccba.Bit]int{}
		for _, id := range rep.ForeverHonest() {
			if rep.Decided[id] {
				outputs[rep.Outputs[id]]++
			}
		}
		fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s %s seed=%d\n",
			cfg.Protocol, cfg.N, cfg.F, cfg.Crypto, where, inv.seed)
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
		for _, p := range props {
			verdict := "ok"
			if p.err != nil {
				verdict = "VIOLATED: " + p.err.Error()
			}
			fmt.Fprintf(out, "  %-19s%s\n", p.name+":", verdict)
		}
	}
	if !rep.Ok() {
		return fmt.Errorf("security properties violated")
	}
	return nil
}

// netLabel names the message schedule a normalized config executes: the
// network model on the synchronous track, the scheduler on the async one.
func netLabel(cfg ccba.Config) string {
	if cfg.Protocol.Async() {
		return "sched:" + string(cfg.Sched)
	}
	return string(cfg.Net)
}

// writeJSON writes v as indented JSON and a newline.
func writeJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// writeTrace exports a recorder's canonical JSONL to path. A recorder past
// its ceiling holds only the run's first events, so it refuses before the
// file is created instead of leaving one that looks like the whole trace.
func writeTrace(path string, rec *ccba.TraceRecorder) error {
	if err := rec.Err(); err != nil {
		return fmt.Errorf("-trace %s: %w", path, err)
	}
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
