package netsim

import (
	"encoding/binary"
	"fmt"

	"ccba/internal/obs"
	"ccba/internal/types"
)

// Drop is the delay Decide and Link return for a link whose message is
// lost.
const Drop = -1

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

// Faults is the network model: the network adversary's whole power in one
// value (Appendix A.1). It may drop traffic from its ≤ F faulty senders and
// delay any other link by up to ∆. The simulator runs it (Config.Net) and
// a live cluster's recipients file every frame by the same Link rule, so
// both runtimes draw one schedule. Every decision is a function of
// (round, from, to) and the seeded Key, so executions are reproducible and
// independent of scheduling order.
//
// The power boundary holds by construction, not by a check at delivery:
// Validate keeps the faulty set within the budget F and the crash victim
// inside it, and Decide drops only links from Faulty senders and answers
// every other link with a delay in [1, ∆]. Honest-to-honest messages
// therefore arrive by ∆, and nothing arrives in the round it was sent (the
// adversary is rushing, the honest nodes are not). Omission faults spend
// the corruption budget: Ctx.Corrupt charges adaptive corruptions against
// what the faulty set leaves. Faulty senders keep executing the protocol
// honestly; the network loses (some of) their outbound messages.
//
// Each classic model is one literal: worst-case ∆-delay is SpreadHold,
// seeded jitter is SpreadJitter, omission is SpreadNext plus Faulty and
// Rate, a partition is SpreadNext plus the cut, and the chaos composite is
// SpreadJitter plus all of them. The zero value, with ∆ read as 1, is the
// lockstep model: every message arrives exactly one round after it is sent.
type Faults struct {
	// Delta is the delivery bound ∆ ≥ 1 (Config.Net reads 0 as 1).
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
// open cut in [0, n]. It returns the faulty set as an n-long mask (nil for
// none).
func (fs *Faults) Validate(n, f int) ([]bool, error) {
	if fs.Delta < 1 {
		return nil, fmt.Errorf("netsim: net model delta=%d, need Δ ≥ 1", fs.Delta)
	}
	if fs.Rate < 0 || fs.Rate > 1 {
		return nil, fmt.Errorf("netsim: drop rate %v outside [0, 1]", fs.Rate)
	}
	mask, err := checkFaultBudget(fs.Faulty, n, f)
	if err != nil {
		return nil, err
	}
	if fs.CrashFrom != 0 || fs.CrashUntil != 0 {
		if fs.CrashUntil <= fs.CrashFrom {
			return nil, fmt.Errorf("netsim: crash window [%d, %d) is empty", fs.CrashFrom, fs.CrashUntil)
		}
		if int(fs.Crash) < 0 || int(fs.Crash) >= len(mask) || !mask[fs.Crash] {
			return nil, fmt.Errorf("netsim: crash node %d must be in the faulty set (a crash is an omission fault and spends the budget)", fs.Crash)
		}
	}
	if fs.CutUntil > fs.CutFrom && (int(fs.Cut) < 0 || int(fs.Cut) > n) {
		return nil, fmt.Errorf("netsim: partition cut %d out of range for %d nodes", fs.Cut, n)
	}
	return mask, nil
}

// Link is the per-link rule both runtimes apply to a round-r message from
// from to to: the self-link takes one round (a node's message to itself
// never touches the network), a Drop loses the link, with kind classifying
// the drop for the trace, and any other link takes Decide's delay.
func (fs *Faults) Link(round int, from, to types.NodeID) (delay int, kind obs.FaultKind) {
	if from == to {
		return 1, obs.FaultDrop
	}
	return fs.Decide(round, from, to)
}

// Decide applies the faults to a network link in a fixed precedence — the
// crash window, then the rate drop, then the partition hold, then the base
// spread. It returns Drop, with the drop's kind, only on a Faulty sender's
// link, and otherwise a delay in [1, ∆].
func (fs *Faults) Decide(round int, from, to types.NodeID) (int, obs.FaultKind) {
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

// Uniform reports ok when Decide(round, from, to) returns the same delay,
// never Drop, for every to ≠ from, and returns that delay; the Runtime then
// delivers a multicast from from as one entry instead of deciding its n
// links. It is ok unless from is Faulty (a crash victim is), a partition is
// open, or the spread is jitter at ∆ > 1: the base spread decides the rest.
func (fs *Faults) Uniform(round int, from types.NodeID) (int, bool) {
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
// caller, for the simulator and the live cluster alike.
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
