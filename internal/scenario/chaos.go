package scenario

import (
	"context"
	"fmt"
	"time"

	"ccba/internal/harness"
	"ccba/internal/netsim"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// ChaosConfig declares a fault schedule for a live cluster run in the same
// seed-deterministic vocabulary the simulated network models use. It is the
// bridge between the two runtimes: it lowers once, to a netsim.Faults
// schedule, which NetModel hands the simulator and TransportSpec hands the
// live injection wrapper — same derived seed, same faulty set, same
// windows, same per-link Decide — so one ChaosConfig can be executed on
// both sides and cross-validated (DESIGN.md §7).
//
// The zero value is "no chaos at Δ=1". All fields respect the simulator's
// power boundary: drops and crash windows only on the ≤F seed-chosen faulty
// senders, delay-class faults (jitter, reorder, partition) only at Δ ≥ 2,
// and sync/result traffic is never dropped.
type ChaosConfig struct {
	// Delta is the delivery bound Δ the injected faults respect, and the
	// value live runs should hand the synchronizer (cluster.Options.Delta).
	// Zero means 1. Reorder and PartitionRounds require Δ ≥ 2.
	Delta int
	// DropRate is the per-(round, from, to) drop probability on links whose
	// sender is faulty, sharing netsim.LinkDrop with the simulator.
	DropRate float64
	// Faulty is how many omission-faulty senders to draw. Zero defaults to
	// the config's F when DropRate > 0, or to 1 when only a crash window is
	// active (the crashed node must spend the corruption budget). The set
	// itself is seed-chosen with the NetOmission derivation, so a chaos run
	// and a Net: NetOmission simulation over the same Config.Seed corrupt
	// the same nodes.
	Faulty int
	// Reorder is the per-frame probability a data frame is held back past
	// the sender's next sync marker, arriving roughly one round late. The
	// synchronizer's Δ-deep buffer absorbs it; the protocol never observes
	// it (delivery is (round, from, seq)-sorted), which is exactly the
	// Δ-synchronous claim being tested.
	Reorder float64
	// PartitionRounds, when positive, splits the cluster at N/2 for rounds
	// [0, PartitionRounds): frames crossing the cut are held to the Δ bound,
	// matching the simulator's NetPartition shape.
	PartitionRounds int
	// CrashFrom and CrashRounds, when CrashRounds > 0, crash one faulty
	// node for rounds [CrashFrom, CrashFrom+CrashRounds): its outbound data
	// frames all drop, then it resumes — a crash/restart realized as a
	// total omission window. The victim is the first seed-chosen faulty
	// node, so it is deterministic in the seed like everything else.
	CrashFrom   int
	CrashRounds int
}

// EffectiveDelta is the delivery bound after defaulting (0 → 1) — the value
// live runs hand the synchronizer.
func (cc ChaosConfig) EffectiveDelta() int {
	if cc.Delta <= 0 {
		return 1
	}
	return cc.Delta
}

// withDefaults resolves the zero-value conveniences against the run config.
func (cc ChaosConfig) withDefaults(cfg Config) ChaosConfig {
	cc.Delta = cc.EffectiveDelta()
	if cc.Faulty == 0 {
		if cc.DropRate > 0 {
			cc.Faulty = cfg.F
		} else if cc.CrashRounds > 0 {
			cc.Faulty = 1
		}
	}
	return cc
}

// faults lowers the declaration to the one fault schedule both runtimes
// call, validated against cfg's (N, F). The seed is the NetOmission
// derivation over cfg.Seed, so the faulty set matches a Net: NetOmission
// simulation of the same config, and the crash victim is the first drawn
// faulty node.
func (cc ChaosConfig) faults(cfg Config) (netsim.Faults, error) {
	c := cc.withDefaults(cfg)
	seed := harness.SeedFrom(cfg.Seed, netSeedDomain, string(NetOmission), 0)
	faulty := sampleIDs(seed, cfg.N, c.Faulty)
	fs := netsim.Faults{
		Delta:  c.Delta,
		Spread: netsim.SpreadJitter,
		Key:    netsim.FoldSeed(seed),
		Faulty: faultyMask(cfg.N, faulty),
		Rate:   c.DropRate,
	}
	if c.PartitionRounds > 0 {
		fs.Cut, fs.CutUntil = types.NodeID(cfg.N/2), c.PartitionRounds
	}
	if c.CrashRounds > 0 {
		if len(faulty) == 0 {
			return netsim.Faults{}, fmt.Errorf("scenario: chaos crash window needs a faulty node to crash, but the faulty set is empty (F=%d)", cfg.F)
		}
		fs.Crash, fs.CrashFrom, fs.CrashUntil = faulty[0], c.CrashFrom, c.CrashFrom+c.CrashRounds
	}
	if _, _, err := fs.Validate(cfg.N, cfg.F); err != nil {
		return netsim.Faults{}, err
	}
	return fs, nil
}

// TransportSpec lowers the declaration to the live injection wrapper's
// spec, validated against cfg's (N, F). interval is the synchronizer's
// RoundInterval: a frame the schedule delays d rounds is held (d−1)
// intervals, so injected latency stays within what the Δ-budgeted
// synchronizer absorbs. A zero interval yields drops and crash windows only
// — those are round-indexed, not time-based.
func (cc ChaosConfig) TransportSpec(cfg Config, interval time.Duration) (transport.ChaosSpec, error) {
	fs, err := cc.faults(cfg)
	if err != nil {
		return transport.ChaosSpec{}, err
	}
	spec := transport.ChaosSpec{Faults: fs, Interval: interval, ReorderRate: cc.Reorder}
	if err := spec.Validate(cfg.N, cfg.F); err != nil {
		return transport.ChaosSpec{}, err
	}
	return spec, nil
}

// NetModel lowers the same declaration to the simulator: the fault
// schedule itself. Reorder has no simulated counterpart and none is needed:
// a reorder is a ≤Δ delivery delay, which the schedule's Δ-jitter already
// ranges over, and the round-tagged delivery both runtimes sort by erases
// intra-round order entirely.
func (cc ChaosConfig) NetModel(cfg Config) (netsim.NetModel, error) {
	return cc.faults(cfg)
}

// SimRun executes cfg through the lockstep simulator under this chaos
// declaration's fault schedule — the reference execution a live chaos run
// is cross-validated against. The config's Delta is forced to the chaos Δ
// so the round budget scales the same way the live synchronizer's does.
func (cc ChaosConfig) SimRun(ctx context.Context, cfg Config) (*Report, error) {
	model, err := cc.NetModel(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Delta = cc.EffectiveDelta()
	cfg.chaosModel = model
	return RunCtx(ctx, cfg)
}
