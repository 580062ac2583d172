// Package ccba is a Go reproduction of "Communication Complexity of
// Byzantine Agreement, Revisited" (Abraham, Chan, Dolev, Nayak, Pass, Ren,
// Shi — PODC 2019).
//
// It provides:
//
//   - the paper's primary contribution — a synchronous Byzantine Agreement
//     protocol with polylogarithmic multicast complexity, resilience
//     f < (1/2−ε)n against a weakly adaptive adversary, and expected O(1)
//     rounds (Protocol Core), in both the F_mine-hybrid world and a
//     real-crypto world (Ed25519-based VRF over a trusted PKI);
//   - every baseline the paper reasons about: the plain and sub-sampled
//     phase-king warm-ups (§3.1–3.2), the quadratic protocol of Appendix
//     C.1, Dolev–Strong, a static CRS committee protocol, and a
//     Chen–Micali-style non-bit-specific variant with optional memory
//     erasure;
//   - the execution model of Appendix A.1 (synchronous rounds, rushing
//     adaptive adversaries, enforced after-the-fact-removal boundary) with
//     a pluggable network-model layer — worst-case Δ-delay scheduling,
//     seeded jitter, per-link omission faults, temporary partitions and
//     their chaos composite, which the live cluster injects too — and a
//     library of attack strategies, including the Theorem 1 and Theorem 3
//     lower-bound adversaries.
//
// The top-level API runs one protocol instance under one adversary:
//
//	cfg := ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40}
//	report, err := ccba.Run(cfg)
//
// Report carries the execution result, communication metrics, and the
// outcome of the consistency/validity/termination checkers. Everything is
// deterministic given Config.Seed.
//
// Protocols, adversaries, and network models all resolve through the
// registries of internal/scenario, re-exported here: a Scenario is one
// declarative record of protocol × N/F/λ × adversary × network model ×
// inputs, and named scenarios (ScenarioNames, LookupScenario) are shared by
// the library, the experiment generators, and the cmd binaries.
package ccba

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"ccba/internal/attest"
	"ccba/internal/harness"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/stats"
	"ccba/internal/types"
)

// Re-exported primitive types, so callers outside the module never need the
// internal packages.
type (
	// Bit is a binary consensus value.
	Bit = types.Bit
	// NodeID identifies a participant.
	NodeID = types.NodeID
	// Result is a completed execution.
	Result = netsim.Result
	// Metrics is the communication-complexity accounting of Definitions 6–7.
	Metrics = netsim.Metrics
	// Adversary is a pluggable corruption strategy.
	Adversary = netsim.Adversary
	// Node is the sans-I/O protocol state machine interface.
	Node = netsim.Node
	// NetModel is the pluggable message-scheduling layer (delivery round
	// assignment within the synchronous bound Δ).
	NetModel = netsim.NetModel
)

// Re-exported bit values.
const (
	Zero  = types.Zero
	One   = types.One
	NoBit = types.NoBit
)

// Re-exported configuration layer: the Config, Protocol, CryptoMode, and
// network-model names live in internal/scenario alongside the registries
// that resolve them.
type (
	// Config parameterises one execution.
	Config = scenario.Config
	// Protocol selects which of the implemented protocols to run.
	Protocol = scenario.Protocol
	// CryptoMode selects the hybrid or real-crypto instantiation.
	CryptoMode = scenario.CryptoMode
	// NetName selects a network model by name.
	NetName = scenario.NetName
	// Report is the outcome of Run.
	Report = scenario.Report
	// Scenario is a declarative, optionally registered experiment setting.
	Scenario = scenario.Scenario
	// AdversaryFactory builds one fresh adversary per trial of a config.
	AdversaryFactory = scenario.AdversaryFactory
	// Builder constructs a protocol's node set from a resolved Config.
	Builder = scenario.Builder
)

// The implemented protocols.
const (
	// Core is the paper's primary contribution (Appendix C.2).
	Core = scenario.Core
	// CoreBroadcast wraps Core in the §1.1 BB-from-BA reduction.
	CoreBroadcast = scenario.CoreBroadcast
	// Quadratic is the Appendix C.1 baseline.
	Quadratic = scenario.Quadratic
	// PhaseKingPlain is the §3.1 warm-up.
	PhaseKingPlain = scenario.PhaseKingPlain
	// PhaseKingSampled is the §3.2 sub-sampled warm-up.
	PhaseKingSampled = scenario.PhaseKingSampled
	// ChenMicali is the non-bit-specific ablation (§3.2 strawman).
	ChenMicali = scenario.ChenMicali
	// DolevStrong is the classic broadcast baseline.
	DolevStrong = scenario.DolevStrong
	// CommitteeEcho is the static CRS committee broadcast baseline.
	CommitteeEcho = scenario.CommitteeEcho
	// BRB is Bracha reliable broadcast on the asynchronous track (§11).
	BRB = scenario.BRB
	// ABA is common-coin asynchronous binary agreement (§11).
	ABA = scenario.ABA
	// ACS is the BKR agreement-on-common-subset composition (§11).
	ACS = scenario.ACS
)

// The asynchronous-track schedulers (DESIGN.md §11).
const (
	// SchedFIFO delivers messages in send order.
	SchedFIFO = scenario.SchedFIFO
	// SchedRandom delivers in a seeded random order.
	SchedRandom = scenario.SchedRandom
	// SchedAdvDelay holds a seeded subset of messages back by a bounded
	// priority penalty.
	SchedAdvDelay = scenario.SchedAdvDelay
)

// SchedName selects the event runtime's message scheduler by name.
type SchedName = scenario.SchedName

// AsyncInfo carries the async-track observables on Report.Async.
type AsyncInfo = scenario.AsyncInfo

// The crypto modes.
const (
	// Ideal runs in the F_mine-hybrid world of Figure 1.
	Ideal = scenario.Ideal
	// Real runs the Appendix D compiler (Ed25519 VRF over a trusted PKI).
	Real = scenario.Real
)

// The network models.
const (
	// NetDeltaOne is the default lockstep model (Δ = 1).
	NetDeltaOne = scenario.NetDeltaOne
	// NetWorstCase holds every link to the delivery bound Δ.
	NetWorstCase = scenario.NetWorstCase
	// NetJitter delays each link by a seeded uniform amount in [1, Δ].
	NetJitter = scenario.NetJitter
	// NetOmission drops links from omission-faulty senders with probability
	// OmissionRate.
	NetOmission = scenario.NetOmission
	// NetPartition temporarily holds cross-partition links to Δ.
	NetPartition = scenario.NetPartition
	// NetChaos composes jitter, omission drops, a partition and a crash
	// window; the live cluster injects the same schedule at its transport.
	NetChaos = scenario.NetChaos
)

// Re-exported observability layer (DESIGN.md §10): deterministic
// round-lifecycle tracing with canonical JSONL export, plus the attestation
// intern table's sharing statistics surfaced on Report.Intern.
type (
	// Tracer receives the round-lifecycle event stream. Set Config.Tracer
	// to trace an execution; the content is a pure function of (config,
	// seed), identical for every worker count and — at Δ=1 — identical to a
	// live chan-cluster trace of the same config.
	Tracer = obs.Tracer
	// TraceEvent is one round-lifecycle event.
	TraceEvent = obs.Event
	// TraceRecorder is the ring-buffered in-memory Tracer; its WriteJSONL
	// emits the canonical export cmd/tracediff aligns on.
	TraceRecorder = obs.Recorder
	// InternStats is the attestation intern table's sharing telemetry.
	InternStats = attest.InternStats
)

// NewTraceRecorder builds a ring-buffered trace recorder; capacity ≤ 0
// selects the default (2²⁰ events).
var NewTraceRecorder = obs.NewRecorder

// Registry entry points, re-exported from internal/scenario.
var (
	// Run executes one instance and evaluates the security properties.
	// Protocols resolve through the builder registry; message delivery
	// through the network model named by the config.
	Run = scenario.Run
	// RunCtx is Run with cancellation: the runtime checks the context
	// between rounds, so long executions stop promptly when the caller
	// gives up.
	RunCtx = scenario.RunCtx
	// BuildNodes constructs a protocol's node set through the builder
	// registry without executing it — for callers that drive their own
	// runtime (the lower-bound engines, instrumented executions).
	BuildNodes = scenario.Build
	// RegisterProtocol adds a protocol builder to the registry.
	RegisterProtocol = scenario.RegisterProtocol
	// VictimFactory adapts a broadcast config into the node-set factory the
	// Theorem 1 strongly adaptive engine drives.
	VictimFactory = scenario.VictimFactory
	// SplitWorlds builds both node sets of the Theorem 3 Q—1—Q′ experiment.
	SplitWorlds = scenario.SplitWorlds
	// Protocols lists the registered protocol names.
	Protocols = scenario.Protocols
	// RegisterScenario adds a named scenario to the registry.
	RegisterScenario = scenario.Register
	// LookupScenario resolves a named scenario.
	LookupScenario = scenario.Lookup
	// ScenarioNames lists the registered scenarios.
	ScenarioNames = scenario.Names
	// RegisterAdversary adds a named adversary factory.
	RegisterAdversary = scenario.RegisterAdversary
	// NewAdversary builds a fresh instance of a named adversary for one
	// trial ("" and "none" mean passive).
	NewAdversary = scenario.NewAdversary
	// Adversaries lists the registered adversary names.
	Adversaries = scenario.Adversaries
)

// ErrNegativeSeed is SeedFromInt's rejection of a seed below zero.
var ErrNegativeSeed = errors.New("ccba: -seed cannot be negative")

// SeedFromInt widens the commands' integer -seed flag into a Config.Seed:
// all eight bytes, little-endian, into Seed[0:8], so distinct flag values
// are distinct executions. A negative seed is an error rather than a
// wrap-around onto some large positive one.
func SeedFromInt(seed int64) ([32]byte, error) {
	var out [32]byte
	if seed < 0 {
		return out, fmt.Errorf("%w: got %d", ErrNegativeSeed, seed)
	}
	binary.LittleEndian.PutUint64(out[:8], uint64(seed))
	return out, nil
}

// TrialStats aggregates repeated runs of one configuration with derived
// seeds: per-metric summaries across trials plus the violation rate with its
// 95% Wilson score interval.
type TrialStats struct {
	Trials     int `json:"trials"`
	Violations int `json:"violations"`
	// ViolationRate is Violations/Trials; [ViolationLo, ViolationHi] is its
	// 95% Wilson score interval.
	ViolationRate float64 `json:"violation_rate"`
	ViolationLo   float64 `json:"violation_wilson95_lo"`
	ViolationHi   float64 `json:"violation_wilson95_hi"`
	// Cross-trial summaries of the execution metrics.
	Rounds     stats.Summary `json:"rounds"`
	Multicasts stats.Summary `json:"multicasts"`
	Messages   stats.Summary `json:"messages"`
	McastBytes stats.Summary `json:"mcast_bytes"`
	// Headline means, equal to the corresponding Summary.Mean fields; kept
	// off the JSON schema, which already carries them inside each summary.
	MeanRounds     float64 `json:"-"`
	MeanMulticasts float64 `json:"-"`
	MeanMessages   float64 `json:"-"`
	MeanMcastBytes float64 `json:"-"`
}

// TrialOpts configures RunTrialsOpts.
type TrialOpts struct {
	// Ctx cancels the sweep: the worker pool stops picking up trials, any
	// in-flight executions stop at their next round, and RunTrialsOpts
	// returns the context's error. Nil means context.Background().
	Ctx context.Context
	// Trials is the number of independent runs (must be positive).
	Trials int
	// Workers sizes the trial worker pool; 0 or less means GOMAXPROCS.
	// Aggregates are identical for every worker count.
	Workers int
	// Name keys the seed derivation (default "ccba.RunTrials"); distinct
	// names yield statistically independent sweeps over the same Config.
	Name string
	// NewAdversary builds a fresh adversary for each trial. Adversaries are
	// frequently stateful (corruption counters, attack phases), so one
	// instance must never be shared across trials; Config.Adversary is
	// rejected by the trial runners for exactly that reason.
	NewAdversary func(trial int) Adversary
	// OnReport, when non-nil, receives every trial's report in trial order
	// once all trials have finished.
	OnReport func(trial int, rep *Report)
}

// RunTrials runs cfg opts.Trials times with hash-derived seeds and
// aggregates. Trials are fully isolated: each gets a seed derived by hashing
// (cfg.Seed, name, protocol, trial) — no XOR tweaks that collide across base
// seeds — its own deep copy of cfg.Inputs, and a fresh adversary from
// opts.NewAdversary.
func RunTrials(cfg Config, trials int) (*TrialStats, error) {
	return RunTrialsOpts(cfg, TrialOpts{Trials: trials})
}

// RunTrialsOpts is RunTrials with explicit worker, adversary-factory, and
// observer options.
func RunTrialsOpts(cfg Config, opts TrialOpts) (*TrialStats, error) {
	if cfg.Adversary != nil {
		return nil, fmt.Errorf("ccba: Config.Adversary would be shared (and carry state) across trials; set TrialOpts.NewAdversary instead")
	}
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("ccba: trials=%d", opts.Trials)
	}
	name := opts.Name
	if name == "" {
		name = "ccba.RunTrials"
	}
	reports, err := harness.Run(harness.Options{
		Name:     name,
		Scenario: string(cfg.Protocol),
		Trials:   opts.Trials,
		Workers:  opts.Workers,
		Base:     cfg.Seed,
		Ctx:      opts.Ctx,
	}, func(tr harness.Trial) (*Report, error) {
		c := cfg
		c.Seed = tr.Seed
		if cfg.Inputs != nil {
			c.Inputs = append([]Bit(nil), cfg.Inputs...)
		}
		if opts.NewAdversary != nil {
			c.Adversary = opts.NewAdversary(tr.Index)
		}
		return RunCtx(tr.Ctx, c)
	})
	if err != nil {
		return nil, err
	}

	out := &TrialStats{Trials: opts.Trials}
	rounds := make([]float64, 0, opts.Trials)
	mcasts := make([]float64, 0, opts.Trials)
	msgs := make([]float64, 0, opts.Trials)
	mbytes := make([]float64, 0, opts.Trials)
	for t, rep := range reports {
		if opts.OnReport != nil {
			opts.OnReport(t, rep)
		}
		if !rep.Ok() {
			out.Violations++
		}
		rounds = append(rounds, float64(rep.Rounds))
		mcasts = append(mcasts, float64(rep.Result.Metrics.HonestMulticasts))
		msgs = append(msgs, float64(rep.Result.Metrics.HonestMessages))
		mbytes = append(mbytes, float64(rep.Result.Metrics.HonestMulticastBytes))
	}
	out.Rounds = stats.Summarize(rounds)
	out.Multicasts = stats.Summarize(mcasts)
	out.Messages = stats.Summarize(msgs)
	out.McastBytes = stats.Summarize(mbytes)
	out.MeanRounds = out.Rounds.Mean
	out.MeanMulticasts = out.Multicasts.Mean
	out.MeanMessages = out.Messages.Mean
	out.MeanMcastBytes = out.McastBytes.Mean
	out.ViolationRate = stats.Rate(out.Violations, opts.Trials)
	out.ViolationLo, out.ViolationHi = stats.WilsonInterval(out.Violations, opts.Trials, 1.96)
	return out, nil
}
