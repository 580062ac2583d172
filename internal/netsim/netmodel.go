package netsim

import (
	"encoding/binary"
	"fmt"

	"ccba/internal/obs"
	"ccba/internal/types"
)

// NetModel is the pluggable message-scheduling layer of the simulator.
//
// The paper's execution model (Appendix A.1) is synchronous with delivery
// bound ∆: the adversary controls the network and may delay any message, but
// a message sent by a so-far-honest node in round r must be delivered by
// round r+∆. The Runtime asks its NetModel for a delivery delay on every
// (sender, recipient) link — once per multicast when the model declares
// the sender's links Uniform — and enforces the model's answers against
// that bound and against the adversary's declared Power:
//
//   - Honest-sender links are never dropped. A model that returns Drop for
//     one is overridden to the maximal legal delay ∆ — holding a message to
//     the bound is the strongest thing a synchronous adversary can do to an
//     honest link. The only exceptions are the adversary's own after-the-fact
//     removal (a Ctx.Remove by a strongly adaptive adversary, which happens
//     before scheduling) and the model's declared omission faults below.
//   - Delays are clamped into [1, ∆]. Nothing arrives in the round it was
//     sent (the adversary is rushing, the honest nodes are not), and nothing
//     arrives after the bound.
//   - A model may declare a set of omission-faulty senders. Links from those
//     nodes may be dropped — the classic omission/crash fault class, distinct
//     from Byzantine corruption: faulty nodes keep executing the protocol
//     honestly, but the network loses (some of) their outbound messages.
//     Omission faults spend the same budget as corruptions: Validate rejects
//     fault sets that exceed F, and Ctx.Corrupt charges adaptive corruptions
//     against the remainder, so faulty-plus-corrupt senders never exceed F
//     in total.
//   - Links from corrupt senders (injected traffic, or sends erasable under
//     strongly adaptive power) may be dropped freely — the adversary already
//     controls that traffic.
//   - A node's message to itself never touches the network: self-links are
//     delivered next round and cannot be dropped or delayed further.
//
// Models must be deterministic given their construction parameters: every
// decision is a function of (round, from, to), so executions remain
// reproducible and independent of scheduling order.
type NetModel interface {
	// Validate checks the model against an execution of n nodes with
	// corruption budget f and returns what the Runtime enforces it by: the
	// delivery bound ∆ ≥ 1 and the omission-faulty senders as an n-long
	// mask (nil when the model declares none).
	Validate(n, f int) (delta int, faulty []bool, err error)
	// Decide returns the delivery delay in rounds for the link
	// (round, from, to), in [1, ∆], or Drop to omit delivery on it, with
	// kind classifying the drop for the trace. The Runtime clamps and
	// power-checks the answer as described above.
	Decide(round int, from, to types.NodeID) (delay int, kind obs.FaultKind)
	// Uniform reports ok when Decide(round, from, to) returns the same
	// delay, never Drop, for every to ≠ from, and returns that delay. The
	// Runtime then delivers a multicast from from as one entry instead of
	// deciding its n links. Answering false is always safe; answering ok
	// when some link would differ is a contract violation.
	Uniform(round int, from types.NodeID) (delay int, ok bool)
}

// Drop is the Decide return value requesting that a link's message be
// omitted entirely. The Runtime honors it only on links the adversary's
// power permits (faulty or corrupt senders); on honest links it degrades to
// the maximal delay ∆.
const Drop = -1

// DeltaOne returns the lockstep model, the default: every message is
// delivered exactly one round after it is sent. It is the fault-free
// Faults{Delta: 1}, whose every sender is Uniform at delay 1.
func DeltaOne() NetModel { return Faults{Delta: 1} }

// ---------------------------------------------------------------------------
// Faults — the one seeded fault schedule.

// Spread is how Faults delays a link it neither drops nor holds across a
// partition cut.
type Spread uint8

// The base spreads.
const (
	// SpreadNext delivers every link next round.
	SpreadNext Spread = iota
	// SpreadJitter delays each link by the seeded LinkDelay draw, uniform
	// in [1, ∆].
	SpreadJitter
	// SpreadHold holds every link to the bound ∆ — the adversary's classic
	// worst-case synchronous schedule.
	SpreadHold
)

// Faults is the network adversary's whole power in one value: drop traffic
// from its ≤ F faulty senders, delay any other link by up to ∆. The
// simulator runs it as a NetModel and the live chaos transport calls the
// same Decide for every frame, so both runtimes draw one schedule.
//
// Each classic model is one literal: worst-case ∆-delay is SpreadHold,
// seeded jitter is SpreadJitter, omission is SpreadNext plus Faulty and
// Rate, a partition is SpreadNext plus the cut, and the chaos composite is
// SpreadJitter plus all of them.
type Faults struct {
	// Delta is the delivery bound ∆ ≥ 1.
	Delta int
	// Spread is the delay of a link no fault below applies to.
	Spread Spread
	// Key is the FoldSeed of the schedule's seed; every seeded decision
	// (the rate drop, the jitter draw) mixes from it.
	Key uint64
	// Faulty marks the omission-faulty senders, indexed by node id (nil for
	// none). Their links drop with probability Rate, and they spend the
	// corruption budget.
	Faulty []bool
	// Rate is the per-(round, from, to) drop probability on links from
	// Faulty senders, drawn by LinkDrop.
	Rate float64
	// Cut, CutFrom and CutUntil hold links crossing the [0, Cut) / [Cut, n)
	// split to ∆ for rounds CutFrom..CutUntil−1. A synchronous adversary
	// partitions by ∆-delay, never by disconnection.
	Cut               types.NodeID
	CutFrom, CutUntil int
	// Crash, CrashFrom and CrashUntil drop every outbound link of node
	// Crash for rounds CrashFrom..CrashUntil−1 — a crash/restart realized as
	// an omission window, so Crash must be Faulty.
	Crash                 types.NodeID
	CrashFrom, CrashUntil int
}

// Validate checks the schedule against an execution of n nodes with
// corruption budget f: ∆ ≥ 1, Rate in [0, 1], the faulty set within the
// budget, a declared crash window non-empty with a Faulty victim, and an
// open cut in [0, n]. It returns ∆ and the n-long faulty mask.
func (fs Faults) Validate(n, f int) (int, []bool, error) {
	if fs.Delta < 1 {
		return 0, nil, fmt.Errorf("netsim: net model delta=%d, need Δ ≥ 1", fs.Delta)
	}
	if fs.Rate < 0 || fs.Rate > 1 {
		return 0, nil, fmt.Errorf("netsim: drop rate %v outside [0, 1]", fs.Rate)
	}
	mask, err := checkFaultBudget(fs.Faulty, n, f)
	if err != nil {
		return 0, nil, err
	}
	if fs.CrashFrom != 0 || fs.CrashUntil != 0 {
		if fs.CrashUntil <= fs.CrashFrom {
			return 0, nil, fmt.Errorf("netsim: crash window [%d, %d) is empty", fs.CrashFrom, fs.CrashUntil)
		}
		if int(fs.Crash) < 0 || int(fs.Crash) >= len(mask) || !mask[fs.Crash] {
			return 0, nil, fmt.Errorf("netsim: crash node %d must be in the faulty set (a crash is an omission fault and spends the budget)", fs.Crash)
		}
	}
	if fs.CutUntil > fs.CutFrom && (int(fs.Cut) < 0 || int(fs.Cut) > n) {
		return 0, nil, fmt.Errorf("netsim: partition cut %d out of range for %d nodes", fs.Cut, n)
	}
	return fs.Delta, mask, nil
}

// Decide applies the faults in a fixed precedence — the crash window, then
// the rate drop, then the partition hold, then the base spread.
func (fs Faults) Decide(round int, from, to types.NodeID) (int, obs.FaultKind) {
	if from == fs.Crash && round >= fs.CrashFrom && round < fs.CrashUntil {
		return Drop, obs.FaultCrash
	}
	if int(from) < len(fs.Faulty) && fs.Faulty[from] && LinkDrop(fs.Key, round, from, to, fs.Rate) {
		return Drop, obs.FaultDrop
	}
	if round >= fs.CutFrom && round < fs.CutUntil && (from < fs.Cut) != (to < fs.Cut) {
		return fs.Delta, obs.FaultDrop
	}
	switch fs.Spread {
	case SpreadJitter:
		return LinkDelay(fs.Key, round, from, to, fs.Delta), obs.FaultDrop
	case SpreadHold:
		return fs.Delta, obs.FaultDrop
	}
	return 1, obs.FaultDrop
}

// Uniform is ok unless from is Faulty (a crash victim is), a partition is
// open, or the spread is jitter at ∆ > 1: the base spread decides the rest.
func (fs Faults) Uniform(round int, from types.NodeID) (int, bool) {
	if int(from) < len(fs.Faulty) && fs.Faulty[from] || round >= fs.CutFrom && round < fs.CutUntil ||
		fs.Spread == SpreadJitter && fs.Delta > 1 {
		return 0, false
	}
	if fs.Spread == SpreadHold {
		return fs.Delta, true
	}
	return 1, true
}

// ---------------------------------------------------------------------------
// Seeded link hashing behind the Faults coins.

// FoldSeed collapses a 32-byte seed into the 64-bit key a Faults schedule
// (and the scenario layer's fault sampling) mixes per-decision hashes from.
func FoldSeed(seed [32]byte) uint64 {
	k := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 32; i += 8 {
		k = Mix64(k ^ binary.LittleEndian.Uint64(seed[i:]))
	}
	return k
}

// linkHash derives a deterministic 64-bit value for one (round, from, to)
// link under a folded seed key, so per-link decisions are independent of
// the order in which links are scheduled.
func linkHash(key uint64, round int, from, to types.NodeID) uint64 {
	h := key
	h = Mix64(h ^ uint64(round))
	h = Mix64(h ^ uint64(uint32(from)))
	h = Mix64(h ^ uint64(uint32(to)))
	return h
}

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// LinkDrop is the shared omission decision: whether the message on link
// (round, from, to) is lost under drop probability rate and folded seed key.
// One decision covers the whole link-round — every message a sender puts on
// that link in that round shares the same fate. Faults.Decide is its one
// caller, for the simulator and the live chaos transport alike.
func LinkDrop(key uint64, round int, from, to types.NodeID, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := linkHash(key, round, from, to)
	return float64(h>>11)/(1<<53) < rate
}

// LinkDelay is the shared jitter decision: a seed-deterministic delivery
// delay for link (round, from, to), uniform in [1, delta] — the
// SpreadJitter draw.
func LinkDelay(key uint64, round int, from, to types.NodeID, delta int) int {
	if delta <= 1 {
		return 1
	}
	return 1 + int(linkHash(key, round, from, to)%uint64(delta))
}

// checkFaultBudget validates an omission-faulty sender mask against the
// execution parameters: marked ids in [0, n), at most f of them. It returns
// an n-long copy (nil for an empty set).
func checkFaultBudget(faulty []bool, n, f int) ([]bool, error) {
	count := 0
	for id, on := range faulty {
		if !on {
			continue
		}
		if id >= n {
			return nil, fmt.Errorf("%w: omission-faulty node %d (n=%d)", ErrUnknownNode, id, n)
		}
		count++
	}
	if count == 0 {
		return nil, nil
	}
	if count > f {
		return nil, fmt.Errorf("%w: %d omission-faulty senders exceed the corruption budget f=%d (omission faults spend the same budget)",
			ErrBudget, count, f)
	}
	mask := make([]bool, n)
	copy(mask, faulty)
	return mask, nil
}
