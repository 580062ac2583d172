package scenario

import (
	"context"

	"ccba/internal/attest"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// Report is the outcome of Run: the raw result plus the paper's three
// security properties evaluated over forever-honest nodes.
type Report struct {
	*netsim.Result
	// Inputs used (agreement version).
	Inputs []types.Bit
	// Consistency, Validity, and Termination hold the checker outcomes
	// (nil = property held).
	Consistency error
	Validity    error
	Termination error
	// Intern carries the attestation intern table's sharing statistics on
	// Sparse runs, nil otherwise. Every core and phase-king run interns
	// (DESIGN.md §6); only Sparse ones report it, so a report's shape does
	// not change with the storage underneath. Deterministic per (config,
	// seed): the table's double-checked insert makes the counters
	// schedule-independent.
	Intern *attest.InternStats
	// Async carries the event-runtime observables (decision rounds, ACS set
	// size) when the protocol ran on the asynchronous track, nil otherwise.
	Async *AsyncInfo
}

// Ok reports whether all three properties held.
func (r *Report) Ok() bool {
	return r.Consistency == nil && r.Validity == nil && r.Termination == nil
}

// Run executes one instance and evaluates the security properties. The
// protocol is resolved through the builder registry and message delivery
// through the network model named by the config; the round budget is the
// protocol's step count × ∆ unless Config.MaxRounds raises it.
func Run(cfg Config) (*Report, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation: the runtime checks ctx between rounds,
// so long executions (and the sweeps and live clusters built on them) stop
// promptly when the caller gives up.
func RunCtx(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if cfg.Protocol.Async() {
		return runAsync(ctx, cfg)
	}
	net, err := cfg.Faults()
	if err != nil {
		return nil, err
	}
	if cfg.Sparse && cfg.run.interner == nil {
		cfg.run.interner = attest.NewInterner()
	}
	cfg.run.lockstep = lockstepRun(cfg, net)
	nodes, seize, steps, err := build(cfg)
	if err != nil {
		return nil, err
	}
	maxRounds, err := cfg.RoundBudget(steps)
	if err != nil {
		return nil, err
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: cfg.N, F: cfg.F, MaxRounds: maxRounds,
		Seize:  seize,
		Net:    net,
		Sparse: cfg.Sparse,
		Tracer: cfg.Tracer,
	}, nodes, cfg.Adversary)
	if err != nil {
		return nil, err
	}
	res, err := rt.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	rep := Evaluate(cfg, res)
	if cfg.run.interner != nil {
		st := cfg.run.interner.Stats()
		rep.Intern = &st
	}
	return rep, nil
}

// lockstepRun reports the delivery fact core sizes its iteration window
// from (core.Config.Lockstep): the resolved model delivers every message
// exactly one round after it was sent (its Validate returns Δ = 1; a
// dropped message never arrives) and no adversary injects. Every other run
// keeps every iteration.
func lockstepRun(cfg Config, net netsim.Faults) bool {
	if cfg.Adversary != nil {
		return false
	}
	delta, _, err := net.Validate(cfg.N, cfg.F)
	return err == nil && delta == 1
}

// Evaluate runs the paper's three security checkers over a completed
// result. Run calls it on the simulator's output; the cluster runtime calls
// it on the result a live execution assembled, so both judge executions by
// the identical standard.
func Evaluate(cfg Config, res *netsim.Result) *Report {
	rep := &Report{Result: res, Inputs: cfg.Inputs}
	rep.Consistency = netsim.CheckConsistency(res)
	rep.Termination = netsim.CheckTermination(res)
	if cfg.Protocol.Broadcast() {
		rep.Validity = netsim.CheckBroadcastValidity(res, cfg.Sender, cfg.SenderInput)
	} else {
		rep.Validity = netsim.CheckAgreementValidity(res, cfg.Inputs)
	}
	return rep
}
