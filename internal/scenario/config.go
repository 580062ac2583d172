package scenario

import (
	"cmp"
	"fmt"

	"ccba/internal/attest"
	"ccba/internal/harness"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
)

// Protocol selects which of the implemented protocols to run.
type Protocol string

// The implemented protocols.
const (
	// Core is the paper's primary contribution (Appendix C.2).
	Core Protocol = "core"
	// CoreBroadcast wraps Core in the §1.1 BB-from-BA reduction.
	CoreBroadcast Protocol = "core-broadcast"
	// Quadratic is the Appendix C.1 baseline.
	Quadratic Protocol = "quadratic"
	// PhaseKingPlain is the §3.1 warm-up.
	PhaseKingPlain Protocol = "phaseking"
	// PhaseKingSampled is the §3.2 sub-sampled warm-up.
	PhaseKingSampled Protocol = "phaseking-sampled"
	// ChenMicali is the non-bit-specific ablation (§3.2 strawman).
	ChenMicali Protocol = "chenmicali"
	// DolevStrong is the classic broadcast baseline.
	DolevStrong Protocol = "dolevstrong"
	// CommitteeEcho is the static CRS committee broadcast baseline.
	CommitteeEcho Protocol = "committee"
	// BRB is Bracha reliable broadcast on the asynchronous track (§11).
	BRB Protocol = "brb"
	// ABA is common-coin asynchronous binary agreement (§11).
	ABA Protocol = "aba"
	// ACS is the BKR agreement-on-common-subset composition (§11).
	ACS Protocol = "acs"
)

// Broadcast reports whether the protocol solves the broadcast version
// (designated sender) rather than the agreement version.
func (p Protocol) Broadcast() bool {
	switch p {
	case DolevStrong, CommitteeEcho, CoreBroadcast, BRB:
		return true
	default:
		return false
	}
}

// Async reports whether the protocol runs on the event-driven runtime
// (seeded message scheduler, no lockstep rounds) rather than the
// synchronous engine.
func (p Protocol) Async() bool {
	switch p {
	case BRB, ABA, ACS:
		return true
	default:
		return false
	}
}

// CryptoMode selects the hybrid or real-crypto instantiation.
type CryptoMode string

// The crypto modes.
const (
	// Ideal runs in the F_mine-hybrid world of Figure 1 (and idealized
	// leader election where applicable).
	Ideal CryptoMode = "ideal"
	// Real runs the Appendix D compiler: Ed25519 VRF eligibility and real
	// signatures over a trusted PKI.
	Real CryptoMode = "real"
)

// NetName selects a network model by name. Models are resolved per
// execution with seeds derived from Config.Seed, so seeded models (jitter,
// omission) stay deterministic per trial.
type NetName string

// The registered network models.
const (
	// NetDeltaOne is the default lockstep model: ∆ = 1, bit-identical to
	// the pre-model engine.
	NetDeltaOne NetName = "delta-one"
	// NetWorstCase holds every link to the delivery bound ∆ — the
	// adversary's classic worst-case synchronous schedule.
	NetWorstCase NetName = "delta"
	// NetJitter delays each link by a seeded uniform amount in [1, ∆].
	NetJitter NetName = "jitter"
	// NetOmission drops each link from a seeded set of omission-faulty
	// senders with probability OmissionRate.
	NetOmission NetName = "omission"
	// NetPartition splits the network into two halves for PartitionRounds
	// rounds, holding cross-partition links to ∆.
	NetPartition NetName = "partition"
	// NetChaos is the composite of the others: seeded jitter in [1, ∆],
	// OmissionRate drops on OmissionFaulty senders, a half/half partition
	// for PartitionRounds rounds and a crash window on the first faulty
	// sender (CrashFrom, CrashRounds). It is the schedule the live cluster
	// is cross-validated on (DESIGN.md §7).
	NetChaos NetName = "chaos"
)

// SchedName selects the event runtime's message scheduler by name
// (asynchronous protocols only). All three are pure functions of the run
// seed; they differ in which pending message a delivery step picks.
type SchedName string

// The registered schedulers.
const (
	// SchedFIFO delivers messages in send order (the default).
	SchedFIFO SchedName = "fifo"
	// SchedRandom delivers in a seeded random order.
	SchedRandom SchedName = "random"
	// SchedAdvDelay holds a seeded 3-in-4 subset of messages back by a
	// bounded priority penalty — the strongest reordering the power-boundary
	// rules allow (every message still delivers).
	SchedAdvDelay SchedName = "adversarial-delay"
)

// InputPattern names for Config.InputPattern.
const (
	// InputsMixed alternates 1, 0, 1, 0, … across nodes (the default).
	InputsMixed = "mixed"
	// InputsUnanimous0 gives every node input 0.
	InputsUnanimous0 = "unanimous-0"
	// InputsUnanimous1 gives every node input 1.
	InputsUnanimous1 = "unanimous-1"
)

// Config parameterises one execution.
type Config struct {
	// Protocol to run.
	Protocol Protocol
	// N is the node count; F the corruption budget.
	N, F int
	// Lambda is the expected committee size (committee-sampled protocols).
	Lambda int
	// Epochs is the epoch count for phase-king-style protocols (default 20).
	Epochs int
	// MaxIters bounds certificate-protocol iterations (default 60).
	MaxIters int
	// Crypto selects hybrid or real instantiation (default Ideal).
	Crypto CryptoMode
	// Seed makes the execution reproducible.
	Seed [32]byte
	// Inputs are the per-node input bits (agreement protocols). Defaults to
	// the InputPattern (alternating bits when neither is set).
	Inputs []types.Bit
	// InputPattern declaratively selects the inputs when Inputs is nil:
	// "mixed" (default), "unanimous-0", or "unanimous-1".
	InputPattern string
	// Sender and SenderInput configure broadcast protocols. The zero values
	// mean sender 0 broadcasting bit 0.
	Sender      types.NodeID
	SenderInput types.Bit
	// CommitteeSize configures the CommitteeEcho baseline (default 2·log₂n).
	CommitteeSize int
	// Erasure enables the memory-erasure model (ChenMicali only).
	Erasure bool
	// Adversary is the corruption strategy (nil = passive).
	Adversary netsim.Adversary
	// Sparse selects no node state (DESIGN.md §6): core's iteration
	// window follows the delivery model whether it is set or not, and every
	// core and phase-king run interns. It asserts the delta-one lockstep
	// model with a passive adversary (validate rejects anything else, and
	// it sets netsim.Config.Sparse's assertion) and adds the intern table's
	// statistics to the Report (Report.Intern).
	Sparse bool
	// Tracer receives the round-lifecycle event stream (DESIGN.md §10),
	// threaded straight through to netsim.Config.Tracer. Trace content is a
	// pure function of the rest of the config plus Seed; nil disables
	// tracing at zero cost.
	Tracer obs.Tracer

	// Net selects the network model (default NetDeltaOne).
	Net NetName
	// Delta is the delivery bound ∆ for the delay-capable models (default
	// 1; must stay 1 under NetDeltaOne).
	Delta int
	// OmissionRate is the per-link drop probability of NetOmission and
	// NetChaos, in [0, 1].
	OmissionRate float64
	// OmissionFaulty is the number of omission-faulty senders NetOmission
	// and NetChaos draw (seed-deterministically, the same set under both)
	// from the node set. It spends the same budget as corruptions, so the
	// maximum is F. The default is F under NetOmission; under NetChaos it
	// is F when OmissionRate drops, 1 when only a crash window is declared,
	// and 0 otherwise.
	OmissionFaulty int
	// PartitionRounds is how long the NetPartition split lasts (default
	// 2·∆); under NetChaos, a split at N/2 for rounds [0, PartitionRounds)
	// (default none).
	PartitionRounds int
	// CrashFrom and CrashRounds, when CrashRounds > 0, crash the first
	// faulty sender for rounds [CrashFrom, CrashFrom+CrashRounds) under
	// NetChaos: every link it sends on drops, then it resumes — a
	// crash/restart realized as a total omission window.
	CrashFrom, CrashRounds int
	// MaxRounds overrides the derived round budget. The default (0) derives
	// it from the protocol's step count × ∆ — a ∆ > 1 schedule can hold
	// every message to the bound, so a lockstep budget would cut the
	// execution off mid-flight. Explicit values below the derived minimum
	// are rejected.
	MaxRounds int

	// Sched selects the event runtime's message scheduler (async protocols
	// only; default SchedFIFO).
	Sched SchedName
	// AdvDelay is the SchedAdvDelay holdback penalty in scheduler priority
	// units (default 4·N). Larger values stretch reordering windows; the
	// power boundary keeps every message deliverable regardless.
	AdvDelay int
	// MaxDeliveries bounds the event runtime's total delivery count — the
	// asynchronous stand-in for a round budget (default
	// netsim.DefaultMaxDeliveries). A run that hits it fails termination.
	MaxDeliveries int
	// Crashes is the number of crash-faulty nodes the async run draws
	// seed-deterministically from the node set (≤ F; they never start).
	Crashes int

	// run is what RunCtx derives for one execution before building it.
	// External Build callers get the zero value: a fresh intern table per
	// call and nodes that keep every iteration.
	run execution
}

// execution is the per-execution state RunCtx hands the builders.
type execution struct {
	// interner, when non-nil, is the attestation intern table RunCtx
	// created so it can read the sharing statistics back after the run
	// (Report.Intern). The builders reuse it instead of allocating their
	// own.
	interner *attest.Interner
	// lockstep is core.Config.Lockstep, derived by lockstepRun.
	lockstep bool
	// screen is where a builder leaves the protocol's netsim.Config.Screen
	// (offerScreen) for RunCtx to hand the engine; nil outside RunCtx.
	screen *netsim.Screen
}

// offerScreen hands RunCtx the protocol's screen for netsim.Config.Screen.
// A Build outside RunCtx has no engine to hand it to; its nodes check every
// ticket themselves.
func (c *Config) offerScreen(s netsim.Screen) {
	if c.run.screen != nil {
		*c.run.screen = s
	}
}

// validate rejects configurations the simulator cannot execute
// meaningfully. It runs on the raw Config, before defaults are applied.
func (c *Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("scenario: config N=%d; need at least one node", c.N)
	}
	if c.F < 0 {
		return fmt.Errorf("scenario: config F=%d; the corruption budget cannot be negative", c.F)
	}
	if c.F >= c.N {
		return fmt.Errorf("scenario: config F=%d with N=%d; need F < N so at least one node stays honest", c.F, c.N)
	}
	if c.Inputs != nil && !c.Protocol.Broadcast() && len(c.Inputs) != c.N {
		return fmt.Errorf("scenario: config has %d inputs for N=%d nodes", len(c.Inputs), c.N)
	}
	if c.Protocol == CommitteeEcho && c.N < 2 {
		return fmt.Errorf("scenario: committee echo needs N ≥ 2 (a sender plus at least one echoer), got N=%d", c.N)
	}
	switch c.Crypto {
	case "", Ideal, Real:
	default:
		return fmt.Errorf("scenario: unknown crypto mode %q (want %q or %q)", c.Crypto, Ideal, Real)
	}
	switch c.InputPattern {
	case "", InputsMixed, InputsUnanimous0, InputsUnanimous1:
	default:
		return fmt.Errorf("scenario: unknown input pattern %q (want %q, %q, or %q)",
			c.InputPattern, InputsMixed, InputsUnanimous0, InputsUnanimous1)
	}
	if c.InputPattern != "" && c.Inputs != nil {
		return fmt.Errorf("scenario: both Inputs and InputPattern %q set; pick one", c.InputPattern)
	}
	if c.Sparse {
		if c.Net != "" && c.Net != NetDeltaOne {
			return fmt.Errorf("scenario: Sparse asserts the %q lockstep model, got net %q", NetDeltaOne, c.Net)
		}
		if c.Adversary != nil {
			return fmt.Errorf("scenario: Sparse asserts a passive adversary")
		}
	}
	if err := c.validateAsync(); err != nil {
		return err
	}
	return c.validateNet()
}

// validateNet checks the network-model spec and the round budget's shape.
// The derived-minimum check on MaxRounds happens in Run, where the
// protocol's step count is known.
func (c *Config) validateNet() error {
	switch c.Net {
	case "", NetDeltaOne, NetWorstCase, NetJitter, NetOmission, NetPartition, NetChaos:
	default:
		return fmt.Errorf("scenario: unknown net model %q (want %q, %q, %q, %q, %q, or %q)",
			c.Net, NetDeltaOne, NetWorstCase, NetJitter, NetOmission, NetPartition, NetChaos)
	}
	for _, k := range []struct {
		name string
		v    int
	}{{"Delta", c.Delta}, {"OmissionFaulty", c.OmissionFaulty}, {"PartitionRounds", c.PartitionRounds},
		{"CrashFrom", c.CrashFrom}, {"CrashRounds", c.CrashRounds}, {"MaxRounds", c.MaxRounds}} {
		if k.v < 0 {
			return fmt.Errorf("scenario: %s=%d cannot be negative", k.name, k.v)
		}
	}
	net := cmp.Or(c.Net, NetDeltaOne)
	if c.Delta > 1 && net == NetDeltaOne {
		return fmt.Errorf("scenario: Delta=%d under the lockstep %q model, which delivers in exactly one round; pick -net %s, %s, %s, %s, or %s",
			c.Delta, NetDeltaOne, NetWorstCase, NetJitter, NetOmission, NetPartition, NetChaos)
	}
	// A knob of another model would otherwise be silently ignored.
	if net != NetOmission && net != NetChaos && (c.OmissionRate != 0 || c.OmissionFaulty != 0) {
		return fmt.Errorf("scenario: OmissionRate=%v and OmissionFaulty=%d only apply under the %q and %q models, got net %q",
			c.OmissionRate, c.OmissionFaulty, NetOmission, NetChaos, net)
	}
	if net != NetPartition && net != NetChaos && c.PartitionRounds != 0 {
		return fmt.Errorf("scenario: PartitionRounds=%d only applies under the %q and %q models, got net %q",
			c.PartitionRounds, NetPartition, NetChaos, net)
	}
	if net != NetChaos && (c.CrashFrom != 0 || c.CrashRounds != 0) {
		return fmt.Errorf("scenario: CrashFrom=%d and CrashRounds=%d only apply under the %q model, got net %q",
			c.CrashFrom, c.CrashRounds, NetChaos, net)
	}
	if c.CrashFrom != 0 && c.CrashRounds == 0 {
		return fmt.Errorf("scenario: CrashFrom=%d without CrashRounds declares no crash window", c.CrashFrom)
	}
	if c.CrashRounds > 0 && c.F == 0 {
		return fmt.Errorf("scenario: a crash window (CrashRounds=%d) crashes a faulty sender and needs F ≥ 1, got F=0", c.CrashRounds)
	}
	if c.OmissionRate < 0 || c.OmissionRate > 1 {
		return fmt.Errorf("scenario: OmissionRate=%v outside [0, 1]", c.OmissionRate)
	}
	if c.OmissionFaulty > c.F {
		return fmt.Errorf("scenario: OmissionFaulty=%d exceeds F=%d; omission faults spend the corruption budget", c.OmissionFaulty, c.F)
	}
	// A declared fault that cannot act would be silently ignored too: a
	// drop rate over an empty faulty set (its size defaults to F), a chaos
	// partition whose hold is a Δ of one round, and a model that only
	// delays, where every delay within Δ = 1 is the lockstep round.
	if c.OmissionRate > 0 && c.OmissionFaulty == 0 && c.F == 0 {
		return fmt.Errorf("scenario: OmissionRate=%v with an empty faulty set drops nothing — name the ≤F faulty senders", c.OmissionRate)
	}
	if net == NetChaos && c.PartitionRounds > 0 && c.Delta <= 1 {
		return fmt.Errorf("scenario: a partition holds cross links to Δ and needs Δ ≥ 2, got Δ=%d", max(c.Delta, 1))
	}
	if (net == NetWorstCase || net == NetJitter || net == NetPartition) && c.Delta <= 1 {
		return fmt.Errorf("scenario: net model %q only delays traffic within Δ and needs Δ ≥ 2, got Δ=%d; at Δ=1 it runs the %q schedule",
			net, max(c.Delta, 1), NetDeltaOne)
	}
	// Omission never delays, and no model delays within Δ = 1; only a drop
	// rate or a crash window drops.
	delays := net != NetOmission && c.Delta > 1
	drops := c.OmissionRate > 0 || c.CrashRounds > 0
	if net != NetDeltaOne && !delays && !drops {
		return fmt.Errorf("scenario: net model %q neither delays nor drops a message at Δ=%d with OmissionRate=%v and no crash window; it runs the %q schedule",
			net, max(c.Delta, 1), c.OmissionRate, NetDeltaOne)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.Crypto == "" {
		c.Crypto = Ideal
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.MaxIters == 0 {
		c.MaxIters = 60
	}
	if c.Lambda == 0 {
		c.Lambda = 40
	}
	if c.CommitteeSize == 0 {
		n, size := c.N, 2
		for n > 1 {
			n >>= 1
			size += 2
		}
		if size >= c.N {
			// 2·log₂n exceeds n at small n; cap below n but never below one
			// member (N=1 used to compute an empty committee here before
			// validate started rejecting single-node committee echo).
			size = c.N - 1
			if size < 1 {
				size = 1
			}
		}
		c.CommitteeSize = size
	}
	if !c.Protocol.Broadcast() && c.Inputs == nil {
		c.Inputs = make([]types.Bit, c.N)
		for i := range c.Inputs {
			switch c.InputPattern {
			case InputsUnanimous0:
				c.Inputs[i] = types.Zero
			case InputsUnanimous1:
				c.Inputs[i] = types.One
			default: // "" or InputsMixed
				c.Inputs[i] = types.BitFromBool(i%2 == 0)
			}
		}
		// The pattern is spent; keeping it would make a second Normalized
		// reject the config for setting both.
		c.InputPattern = ""
	}
	if c.Protocol.Broadcast() && !c.SenderInput.Valid() {
		c.SenderInput = types.Zero
	}
	if c.Protocol.Async() {
		// The async track has no lockstep network model; its knobs default
		// here and the Net/Delta family stays zero (validate rejects it).
		if c.Sched == "" {
			c.Sched = SchedFIFO
		}
		if c.MaxDeliveries == 0 {
			c.MaxDeliveries = netsim.DefaultMaxDeliveries
		}
		if c.AdvDelay == 0 && c.Sched == SchedAdvDelay {
			c.AdvDelay = 4 * c.N
		}
	} else {
		if c.Net == "" {
			c.Net = NetDeltaOne
		}
		if c.Delta == 0 {
			c.Delta = 1
		}
	}
	if c.OmissionFaulty == 0 {
		switch {
		case c.Net == NetOmission, c.Net == NetChaos && c.OmissionRate > 0:
			c.OmissionFaulty = c.F
		case c.Net == NetChaos && c.CrashRounds > 0:
			c.OmissionFaulty = 1
		}
	}
	if c.Net == NetPartition && c.PartitionRounds == 0 {
		c.PartitionRounds = 2 * c.Delta
	}
}

// Normalized validates the config and returns a copy with every default
// applied — the exact config Run would execute. Alternative runtimes (the
// live cluster) normalize once up front so their checkers, input slices,
// and derived parameters match the simulator's bit for bit.
func (c Config) Normalized() (Config, error) {
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	c.applyDefaults()
	return c, nil
}

// RoundBudget derives the execution's round budget from a protocol's step
// count: steps × ∆ by default — a ∆ > 1 schedule can hold every message to
// the bound, stretching each protocol step across up to ∆ network rounds —
// overridable upward by Config.MaxRounds. An explicit MaxRounds below the
// derived minimum is a configuration that cannot complete: it is rejected
// rather than reported as a phantom termination failure.
func (c *Config) RoundBudget(steps int) (int, error) {
	maxRounds := steps * c.Delta
	if c.MaxRounds == 0 {
		return maxRounds, nil
	}
	if c.MaxRounds < maxRounds {
		return 0, fmt.Errorf(
			"scenario: MaxRounds=%d cannot schedule protocol %q under Δ=%d: %d steps × Δ need at least %d rounds",
			c.MaxRounds, c.Protocol, c.Delta, steps, maxRounds)
	}
	return c.MaxRounds, nil
}

// netSeedDomain separates network-model seed derivation from every other
// seed use.
const netSeedDomain = "scenario/net"

// Faults lowers the config's network model to the one fault schedule
// both runtimes execute: the simulator runs it as its netsim.Config.Net and
// the live cluster files every frame by its Link rule. It runs on a
// normalized config; each runtime checks the result with Faults.Validate.
func (c *Config) Faults() (netsim.Faults, error) {
	switch c.Net {
	case NetDeltaOne:
		return netsim.Faults{Delta: 1}, nil
	case NetWorstCase:
		return netsim.Faults{Delta: c.Delta, Spread: netsim.SpreadHold}, nil
	case NetJitter:
		seed := harness.SeedFrom(c.Seed, netSeedDomain, string(NetJitter), 0)
		return netsim.Faults{Delta: c.Delta, Spread: netsim.SpreadJitter, Key: netsim.FoldSeed(seed)}, nil
	case NetOmission:
		seed := harness.SeedFrom(c.Seed, netSeedDomain, string(NetOmission), 0)
		return netsim.Faults{
			Delta:  c.Delta,
			Key:    netsim.FoldSeed(seed),
			Faulty: faultyMask(c.N, sampleIDs(seed, c.N, c.OmissionFaulty)),
			Rate:   c.OmissionRate,
		}, nil
	case NetPartition:
		return netsim.Faults{Delta: c.Delta, Cut: types.NodeID(c.N / 2), CutUntil: c.PartitionRounds}, nil
	case NetChaos:
		// The faulty set and key are the NetOmission derivation, so a chaos
		// run and an omission run of the same seed corrupt the same nodes,
		// and the crash victim is the first drawn faulty node.
		seed := harness.SeedFrom(c.Seed, netSeedDomain, string(NetOmission), 0)
		faulty := sampleIDs(seed, c.N, c.OmissionFaulty)
		fs := netsim.Faults{
			Delta:  c.Delta,
			Spread: netsim.SpreadJitter,
			Key:    netsim.FoldSeed(seed),
			Faulty: faultyMask(c.N, faulty),
			Rate:   c.OmissionRate,
		}
		if c.PartitionRounds > 0 {
			fs.Cut, fs.CutUntil = types.NodeID(c.N/2), c.PartitionRounds
		}
		if c.CrashRounds > 0 {
			if len(faulty) == 0 {
				return netsim.Faults{}, fmt.Errorf("scenario: chaos crash window needs a faulty node to crash, but the faulty set is empty (F=%d)", c.F)
			}
			fs.Crash, fs.CrashFrom, fs.CrashUntil = faulty[0], c.CrashFrom, c.CrashFrom+c.CrashRounds
		}
		return fs, nil
	default:
		return netsim.Faults{}, fmt.Errorf("scenario: unknown net model %q", c.Net)
	}
}

// sampleIDs draws k distinct node ids from [0, n) with a seed-deterministic
// partial Fisher–Yates shuffle, driven by netsim's splitmix64 helpers.
func sampleIDs(seed [32]byte, n, k int) []types.NodeID {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	key := netsim.FoldSeed(seed)
	var ctr uint64
	next := func() uint64 {
		ctr++
		return netsim.Mix64(key ^ ctr)
	}
	perm := make([]types.NodeID, n)
	for i := range perm {
		perm[i] = types.NodeID(i)
	}
	for i := 0; i < k; i++ {
		j := i + int(next()%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// faultyMask marks ids in an n-long mask, nil when there are none.
func faultyMask(n int, ids []types.NodeID) []bool {
	if len(ids) == 0 {
		return nil
	}
	mask := make([]bool, n)
	for _, id := range ids {
		mask[id] = true
	}
	return mask
}
