package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"ccba"
)

// Run is one parsed command line: the scenario to execute — the registered
// one -scenario names, else the one the flags build — with every passed
// flag applied, plus the shared flags that are not part of a Config.
type Run struct {
	ccba.Scenario
	// Seed is the -seed value; Parse has already widened it into
	// Config.Seed.
	Seed  int64
	JSON  bool
	Trace string
}

// Parse declares the shared run flags and the command's own, which bind
// registers on fs, and parses args. Every flag is bound onto the field it
// sets, with the field's current value as its default. Under -scenario the
// args are parsed a second time onto the scenario, so exactly the flags
// passed override it; bind gets the scenario, so a command flag can take
// its default from it too. With -scenarios Parse lists the registry to out
// and returns a nil Run.
func Parse(name string, args []string, out io.Writer, bind func(fs *flag.FlagSet, sc *ccba.Scenario)) (*Run, error) {
	r := &Run{Scenario: ccba.Scenario{Config: ccba.Config{
		Protocol: ccba.Core, N: 200, F: 60, Lambda: 40, Epochs: 20, Crypto: ccba.Ideal,
	}}}
	var list bool
	fs := r.flagSet(name, &list, bind)
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
	if r.Name != "" {
		sc, ok := ccba.LookupScenario(r.Name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (registered: %v)", r.Name, ccba.ScenarioNames())
		}
		r.Scenario = sc
		fs = r.flagSet(name, &list, bind)
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
	}
	var err error
	if r.Config.Seed, err = ccba.SeedFromInt(r.Seed); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Run) flagSet(name string, list *bool, bind func(*flag.FlagSet, *ccba.Scenario)) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	c := &r.Config
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
	fs.Int64Var(&r.Seed, "seed", 1, "execution seed")
	fs.BoolVar(&r.JSON, "json", false, "emit the outcome as JSON (one document for cmd/ba and cmd/cluster)")
	fs.StringVar(&r.Trace, "trace", "", "write the canonical round-event trace (JSONL, DESIGN.md §10) to this file; single runs only")
	fs.StringVar(&r.Name, "scenario", r.Name, "run a registered scenario by name; other flags override its fields")
	fs.BoolVar(list, "scenarios", false, "list the registered scenarios and exit")
	bind(fs, &r.Scenario)
	return fs
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

// document is the single-run -json document both commands print, field
// for field, so their outputs diff clean for the same seed and
// configuration. The intern field appears only on interning runs (Sparse
// defaults it on); its counters are deterministic per (config, seed), so
// sparse documents stay byte-diffable across GOMAXPROCS values.
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

// Report prints rep as the -json document or the text report and fails
// the command when a security property is violated. It describes the
// config the run executed, with every default applied; the text header
// names transport after the message schedule when it is not empty.
func (r *Run) Report(out io.Writer, rep *ccba.Report, transport string) error {
	cfg, err := r.Config.Normalized()
	if err != nil {
		return err
	}
	net, delta := NetLabel(cfg), max(cfg.Delta, 1)
	props := []struct {
		name string
		err  error
	}{{"consistency", rep.Consistency}, {"validity", rep.Validity}, {"termination", rep.Termination}}
	if r.JSON {
		doc := document{
			Protocol: string(cfg.Protocol), N: cfg.N, F: cfg.F, Crypto: string(cfg.Crypto),
			Net: net, Delta: delta, Seed: r.Seed,
			Rounds: rep.Rounds, Corrupted: rep.NumCorrupt(), Metrics: rep.Result.Metrics,
			Intern: rep.Intern, Async: rep.Async, Ok: rep.Ok(),
			Violations: map[string]string{},
		}
		for _, p := range props {
			if p.err != nil {
				doc.Violations[p.name] = p.err.Error()
			}
		}
		if err := WriteJSON(out, doc); err != nil {
			return err
		}
	} else {
		where := fmt.Sprintf("net=%s delta=%d", net, delta)
		if transport != "" {
			where += " transport=" + transport
		}
		outputs := map[ccba.Bit]int{}
		for _, id := range rep.ForeverHonest() {
			if rep.Decided[id] {
				outputs[rep.Outputs[id]]++
			}
		}
		fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s %s seed=%d\n",
			cfg.Protocol, cfg.N, cfg.F, cfg.Crypto, where, r.Seed)
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

// NetLabel names the message schedule a normalized config executes: the
// network model on the synchronous track, the scheduler on the async one.
func NetLabel(cfg ccba.Config) string {
	if cfg.Protocol.Async() {
		return "sched:" + string(cfg.Sched)
	}
	return string(cfg.Net)
}

// WriteJSON writes v as indented JSON and a newline.
func WriteJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteTrace exports a recorder's canonical JSONL to path.
func WriteTrace(path string, rec *ccba.TraceRecorder) error {
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
