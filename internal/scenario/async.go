package scenario

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"ccba/internal/aba"
	"ccba/internal/acs"
	"ccba/internal/brb"
	"ccba/internal/harness"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
)

// asyncSeedDomain separates async-track seed derivation (crash-set
// sampling) from every other seed use.
const asyncSeedDomain = "scenario/async"

// validateAsync checks the event-runtime knobs: on async protocols they
// must be coherent and the synchronous-engine surface must stay zero; on
// synchronous protocols they must be absent. It runs on the raw Config,
// before defaults.
func (c *Config) validateAsync() error {
	if !c.Protocol.Async() {
		if c.Sched != "" || c.AdvDelay != 0 || c.MaxDeliveries != 0 || c.Crashes != 0 {
			return fmt.Errorf("scenario: Sched/AdvDelay/MaxDeliveries/Crashes are event-runtime knobs; protocol %q runs on the synchronous engine", c.Protocol)
		}
		return nil
	}
	if c.N <= 3*c.F {
		return fmt.Errorf("scenario: async protocol %q needs N > 3F, got N=%d F=%d", c.Protocol, c.N, c.F)
	}
	switch c.Sched {
	case "", SchedFIFO, SchedRandom, SchedAdvDelay:
	default:
		return fmt.Errorf("scenario: unknown scheduler %q (want %q, %q, or %q)",
			c.Sched, SchedFIFO, SchedRandom, SchedAdvDelay)
	}
	if c.AdvDelay < 0 {
		return fmt.Errorf("scenario: AdvDelay=%d cannot be negative", c.AdvDelay)
	}
	if c.AdvDelay != 0 && c.Sched != SchedAdvDelay {
		return fmt.Errorf("scenario: AdvDelay=%d only applies under the %q scheduler, got %q", c.AdvDelay, SchedAdvDelay, c.Sched)
	}
	if c.MaxDeliveries < 0 {
		return fmt.Errorf("scenario: MaxDeliveries=%d cannot be negative", c.MaxDeliveries)
	}
	if c.Crashes < 0 || c.Crashes > c.F {
		return fmt.Errorf("scenario: Crashes=%d outside [0, F=%d]; crash faults spend the corruption budget", c.Crashes, c.F)
	}
	if c.Net != "" || c.Delta != 0 || c.OmissionRate != 0 || c.OmissionFaulty != 0 || c.PartitionRounds != 0 ||
		c.CrashFrom != 0 || c.CrashRounds != 0 || c.MaxRounds != 0 {
		return fmt.Errorf("scenario: protocol %q runs on the event-driven runtime; the Net/Delta/MaxRounds family does not apply (use Sched/AdvDelay/MaxDeliveries)", c.Protocol)
	}
	if c.Sparse {
		return fmt.Errorf("scenario: Sparse asserts the lockstep simulator's regime, not the event runtime's; drop Sparse for protocol %q", c.Protocol)
	}
	if c.Adversary != nil {
		return fmt.Errorf("scenario: async protocol %q takes faults via Crashes and Sched, not a synchronous adversary", c.Protocol)
	}
	if c.Erasure {
		return fmt.Errorf("scenario: Erasure is a ChenMicali knob; protocol %q does not apply", c.Protocol)
	}
	return nil
}

// schedMode lowers the declarative scheduler name to the runtime constant.
// It runs after applyDefaults, so the empty name is gone.
func schedMode(s SchedName) (netsim.SchedMode, error) {
	switch s {
	case SchedFIFO:
		return netsim.SchedFIFO, nil
	case SchedRandom:
		return netsim.SchedRandom, nil
	case SchedAdvDelay:
		return netsim.SchedAdvDelay, nil
	default:
		return 0, fmt.Errorf("scenario: unknown scheduler %q", s)
	}
}

// AsyncInfo is the async-track slice of a Report: the observables E15
// plots that the synchronous Result has no slot for.
type AsyncInfo struct {
	// DecideRound is the maximum ABA decision round across honest nodes
	// (and, for ACS, across slots) — the run's termination latency in coin
	// flips. Zero for BRB.
	DecideRound int `json:"decide_round"`
	// SetSize is the agreed ACS output-set size (−1 for BRB/ABA).
	SetSize int `json:"set_size"`
	// Crashed lists the crash-faulted nodes, sorted.
	Crashed []types.NodeID `json:"crashed,omitempty"`
}

// asyncBuild is one constructed async protocol instance: the node set plus
// the protocol-specific hooks the generic Report cannot carry.
type asyncBuild struct {
	nodes []netsim.AsyncNode
	// check runs the protocol-specific validity property over the finished
	// result (nil error = held). May be nil when the generic checkers
	// suffice.
	check func(res *netsim.Result) error
	// info extracts the async observables from the finished result.
	info func(res *netsim.Result) AsyncInfo
}

// crashedSet draws the Crashes crash-faulty nodes seed-deterministically.
func crashedSet(cfg Config) []bool {
	if cfg.Crashes == 0 {
		return nil
	}
	crashed := make([]bool, cfg.N)
	for _, id := range sampleIDs(harness.SeedFrom(cfg.Seed, asyncSeedDomain, "crash", 0), cfg.N, cfg.Crashes) {
		crashed[id] = true
	}
	return crashed
}

// acsPayload is the byte payload an ACS node contributes for its input bit.
func acsPayload(b types.Bit) []byte { return []byte{byte(b)} }

// runAsync executes an async-protocol config on the event-driven runtime
// and evaluates the security properties. It is RunCtx's dispatch target;
// cfg arrives validated and defaulted.
func runAsync(ctx context.Context, cfg Config) (*Report, error) {
	ab, err := buildAsync(cfg)
	if err != nil {
		return nil, err
	}
	mode, err := schedMode(cfg.Sched)
	if err != nil {
		return nil, err
	}
	rt, err := netsim.NewEventRuntime(netsim.EventConfig{
		N: cfg.N, F: cfg.F, Seed: cfg.Seed,
		Sched: mode, AdvDelay: cfg.AdvDelay, MaxDeliveries: cfg.MaxDeliveries,
		Crashed: crashedSet(cfg),
		Tracer:  cfg.Tracer,
	}, ab.nodes)
	if err != nil {
		return nil, err
	}
	res, err := rt.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	rep := &Report{Result: res, Inputs: cfg.Inputs}
	rep.Consistency = netsim.CheckConsistency(res)
	if err := netsim.CheckTermination(res); err != nil {
		rep.Termination = fmt.Errorf("%w: %s", err, rt.Stop())
	}
	switch {
	case ab.check != nil:
		rep.Validity = ab.check(res)
	case cfg.Protocol.Broadcast():
		rep.Validity = netsim.CheckBroadcastValidity(res, cfg.Sender, cfg.SenderInput)
	default:
		rep.Validity = netsim.CheckAgreementValidity(res, cfg.Inputs)
	}
	info := ab.info(res)
	rep.Async = &info
	return rep, nil
}

// buildAsync constructs the async protocol instance of an already-defaulted
// config.
func buildAsync(cfg Config) (asyncBuild, error) {
	switch cfg.Protocol {
	case BRB:
		return buildBRB(cfg), nil
	case ABA:
		return buildABA(cfg), nil
	case ACS:
		return buildACS(cfg), nil
	default:
		return asyncBuild{}, fmt.Errorf("scenario: async protocol %q has no builder", cfg.Protocol)
	}
}

// asyncCrashedInfo lists the crash-faulted nodes of a result, sorted.
func asyncCrashedInfo(res *netsim.Result) []types.NodeID {
	var out []types.NodeID
	for i, c := range res.Corrupt {
		if c {
			out = append(out, types.NodeID(i))
		}
	}
	return out
}

func buildBRB(cfg Config) asyncBuild {
	nodes := make([]netsim.AsyncNode, cfg.N)
	for i := range nodes {
		nodes[i] = brb.NewNode(cfg.N, cfg.F, cfg.Sender, types.NodeID(i), cfg.SenderInput)
	}
	return asyncBuild{
		nodes: nodes,
		info: func(res *netsim.Result) AsyncInfo {
			return AsyncInfo{SetSize: -1, Crashed: asyncCrashedInfo(res)}
		},
	}
}

func buildABA(cfg Config) asyncBuild {
	// Every coin share mines (aba.CoinProb): the threshold structure
	// lives in the f+1 reveal quorum, and the coin VALUE comes from the
	// seed-keyed CoinSource in both crypto modes (DESIGN.md §11).
	suite := newSuite(cfg, aba.CoinProb, nil, nil)
	src := aba.NewCoinSource(cfg.Seed)
	typed := make([]*aba.Node, cfg.N)
	nodes := make([]netsim.AsyncNode, cfg.N)
	for i := range nodes {
		typed[i] = aba.NewNode(aba.Config{
			N: cfg.N, F: cfg.F, Me: types.NodeID(i),
			Domain: "aba/0", Suite: suite, Source: src,
			Sink: obs.NewSink(cfg.Tracer),
		}, cfg.Inputs[i])
		nodes[i] = typed[i]
	}
	return asyncBuild{
		nodes: nodes,
		info: func(res *netsim.Result) AsyncInfo {
			inf := AsyncInfo{SetSize: -1, Crashed: asyncCrashedInfo(res)}
			for i, nd := range typed {
				if !res.Corrupt[i] && nd.DecidedRound() > inf.DecideRound {
					inf.DecideRound = nd.DecidedRound()
				}
			}
			return inf
		},
	}
}

func buildACS(cfg Config) asyncBuild {
	suite := newSuite(cfg, aba.CoinProb, nil, nil)
	src := aba.NewCoinSource(cfg.Seed)
	typed := make([]*acs.Node, cfg.N)
	nodes := make([]netsim.AsyncNode, cfg.N)
	for i := range nodes {
		typed[i] = acs.NewNode(acs.Config{
			N: cfg.N, F: cfg.F, Me: types.NodeID(i),
			Input: acsPayload(cfg.Inputs[i]),
			Suite: suite, Source: src,
			Sink: obs.NewSink(cfg.Tracer),
		})
		nodes[i] = typed[i]
	}
	return asyncBuild{
		nodes: nodes,
		check: func(res *netsim.Result) error { return checkACSResult(cfg, res, typed) },
		info: func(res *netsim.Result) AsyncInfo {
			inf := AsyncInfo{SetSize: -1, Crashed: asyncCrashedInfo(res)}
			for i, nd := range typed {
				if res.Corrupt[i] {
					continue
				}
				if set, ok := nd.OutputSet(); ok {
					inf.SetSize = len(set)
				}
				if nd.DecidedRound() > inf.DecideRound {
					inf.DecideRound = nd.DecidedRound()
				}
			}
			return inf
		},
	}
}

// checkACSResult is the ACS validity property: every honest node fixed the
// same slot set, of size at least n−f, and each included slot owned by an
// honest node carries that node's real input payload. (Set agreement also
// follows from CheckConsistency over the output digests; the explicit
// comparison pins the property directly.)
func checkACSResult(cfg Config, res *netsim.Result, typed []*acs.Node) error {
	var ref []types.NodeID
	refNode := types.NodeID(-1)
	for _, id := range res.ForeverHonest() {
		nd := typed[id]
		set, ok := nd.OutputSet()
		if !ok {
			return fmt.Errorf("acs: honest node %d fixed no output set", id)
		}
		if len(set) < cfg.N-cfg.F {
			return fmt.Errorf("acs: node %d output set has %d slots, below n-f=%d", id, len(set), cfg.N-cfg.F)
		}
		if !sort.SliceIsSorted(set, func(i, j int) bool { return set[i] < set[j] }) {
			return fmt.Errorf("acs: node %d output set is not in slot order", id)
		}
		if ref == nil {
			ref, refNode = set, id
		} else if len(ref) != len(set) {
			return fmt.Errorf("acs: nodes %d and %d disagree on the set size (%d vs %d)", refNode, id, len(ref), len(set))
		} else {
			for k := range ref {
				if ref[k] != set[k] {
					return fmt.Errorf("acs: nodes %d and %d disagree at set position %d (%d vs %d)", refNode, id, k, ref[k], set[k])
				}
			}
		}
		for _, j := range set {
			if res.Corrupt[j] {
				continue // a crashed owner never broadcast; any payload claim is moot
			}
			if want := acsPayload(cfg.Inputs[j]); !bytes.Equal(nd.Payload(j), want) {
				return fmt.Errorf("acs: node %d holds payload %x for honest slot %d, want %x", id, nd.Payload(j), j, want)
			}
		}
	}
	if ref == nil {
		return fmt.Errorf("acs: no forever-honest node to check")
	}
	return nil
}
