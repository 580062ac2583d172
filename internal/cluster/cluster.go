package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// Options tunes a live run.
type Options struct {
	// RoundTimeout bounds how long a node waits at one round barrier (and
	// at RunNode's result exchange) before failing the run. Zero means no
	// timeout — correct for the in-process transport, where the barrier can
	// only stall if a node goroutine died, which cancels the run anyway. TCP
	// meshes should set it: a dead peer then yields an error instead of a
	// hang.
	RoundTimeout time.Duration
	// Tracer receives the round-lifecycle event stream (DESIGN.md §10). Its
	// canonical export is byte-identical to the simulator's trace of the
	// same config, under every network model — the equivalence
	// cmd/tracediff checks. Implementations must accept concurrent Emit
	// calls (node goroutines emit in parallel). Nil disables tracing.
	Tracer obs.Tracer
	// Telemetry, when non-nil, receives the live operational counters the
	// -obs-addr endpoint serves: rounds, the acked watermark, messages and
	// bytes, in-flight frames, dropped frames, and barrier-latency
	// quantiles. Unlike the trace this channel is wall-clock state and never
	// deterministic.
	Telemetry *obs.Telemetry
}

// Report is the outcome of a live run: the same scenario.Report the
// simulator produces (result, inputs, property checkers) plus the per-node
// communication metrics the distributed accounting naturally yields —
// summed, they equal the simulator's aggregate Metrics.
type Report struct {
	*scenario.Report
	// PerNode[i] holds the messages node i itself sent. HonestMulticasts is
	// node i's multicast count; the aggregate Report.Metrics is the
	// column-wise sum.
	PerNode []netsim.Metrics
}

// Run executes cfg live over a full transport network (one endpoint per
// node, e.g. transport.NewChanNetwork or transport.NewTCPNetwork), driving
// every node in its own goroutine. Each goroutine hands its node's record
// straight back, so Run assembles and evaluates the one Report itself, with
// node 0's round count; no result record crosses the transport.
func Run(ctx context.Context, cfg scenario.Config, net transport.Network, opts Options) (*Report, error) {
	plan, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	if net.N() != plan.cfg.N {
		return nil, fmt.Errorf("cluster: config N=%d but the transport network has %d endpoints", plan.cfg.N, net.N())
	}
	eps := net.Endpoints()

	// One goroutine per node. The first failure cancels the shared context
	// so peers blocked at a barrier unwind instead of waiting for traffic
	// that will never come.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	recs := make([]resultRecord, plan.cfg.N)
	rounds := make([]int, plan.cfg.N)
	errs := make([]error, plan.cfg.N)
	var wg sync.WaitGroup
	for i := 0; i < plan.cfg.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], rounds[i], errs[i] = plan.newRunner(types.NodeID(i), eps[i]).run(runCtx)
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	// The first failure cancelled everyone else, so most errs are the
	// induced context.Canceled; report the root cause, not the fallout.
	var induced error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			if induced == nil {
				induced = fmt.Errorf("cluster: node %d: %w", i, err)
			}
			continue
		}
		return nil, fmt.Errorf("cluster: node %d: %w", i, err)
	}
	if induced != nil {
		return nil, induced
	}
	return plan.assemble(rounds[0], recs), nil
}

// RunNode executes one node of a multi-process cluster over its endpoint
// (e.g. transport.DialTCP). Every process runs the same cfg — node sets are
// deterministic in the seed, so each process rebuilds the full PKI and
// committee structure and animates only tr.Self(). Its peers' records live
// in other processes, so the run ends with a result exchange that hands
// every process the complete outcome; the returned Report equals the one a
// single-process run would produce (with this node's round count).
func RunNode(ctx context.Context, cfg scenario.Config, tr transport.Transport, opts Options) (*Report, error) {
	if err := Check(cfg, true); err != nil {
		return nil, err
	}
	plan, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	if tr.N() != plan.cfg.N {
		return nil, fmt.Errorf("cluster: config N=%d but the transport is a %d-node mesh", plan.cfg.N, tr.N())
	}
	r := plan.newRunner(tr.Self(), tr)
	rec, rounds, err := r.run(ctx)
	var recs []resultRecord
	if err == nil {
		recs, err = r.exchangeResults(ctx, rec, rounds)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", tr.Self(), err)
	}
	return plan.assemble(rounds, recs), nil
}

// Check reports why the live runtime refuses cfg, or nil when it runs it:
// an invalid config, in the simulator's words, or one only the simulator
// executes — an adversary, the asynchronous track, Sparse — and, when
// multiProcess is set (RunNode's one node per process), a hybrid-world
// config. Run and RunNode check first thing; a caller that builds its
// transport from cfg checks before, so a refused config costs no network.
func Check(cfg scenario.Config, multiProcess bool) error {
	if multiProcess {
		if err := checkMultiProcess(cfg); err != nil {
			return err
		}
	}
	_, err := check(cfg)
	return err
}

// checkMultiProcess rejects configs that only execute correctly when every
// node shares one in-process crypto suite. The F_mine hybrid world (Figure
// 1) is built around a trusted party: its Verify answers only for tickets
// actually mined *on that instance*, so two processes rebuilding the
// functionality from the same seed still cannot verify each other's
// tickets — by design, that secrecy rule is what the ideal functionality
// models. A single-process cluster (Run) legitimately hosts the trusted
// party and may run the hybrid world; a multi-process mesh must run the
// Appendix D compiler (Crypto: Real), whose VRF tickets are publicly
// verifiable against the shared PKI — removing exactly this trusted party
// is what the compiler is for.
func checkMultiProcess(cfg scenario.Config) error {
	crypto := cfg.Crypto
	if crypto == "" {
		crypto = scenario.Ideal
	}
	switch cfg.Protocol {
	case scenario.Core, scenario.CoreBroadcast, scenario.PhaseKingSampled, scenario.ChenMicali:
		if crypto == scenario.Ideal {
			return fmt.Errorf("cluster: protocol %q in the hybrid F_mine world needs its trusted party in-process; run the whole cluster in one process, or use Crypto: Real (the Appendix D compiler exists to remove the trusted party)", cfg.Protocol)
		}
	}
	return nil
}

// check is Check's single-process half, returning the normalized config.
// The rejections are structural, not temporary gaps: see the package
// comment.
func check(cfg scenario.Config) (scenario.Config, error) {
	normalized, err := cfg.Normalized()
	if err != nil {
		return scenario.Config{}, err
	}
	if cfg.Adversary != nil {
		return scenario.Config{}, fmt.Errorf("cluster: live runs execute honest protocols only; the adversary interface needs the simulator's omniscient envelope window (run this config through ccba.Run instead)")
	}
	if normalized.Protocol.Async() {
		return scenario.Config{}, fmt.Errorf("cluster: protocol %q runs on the asynchronous track; live runs execute the synchronous track only (run this config through ccba.Run instead)", normalized.Protocol)
	}
	if cfg.Sparse {
		return scenario.Config{}, fmt.Errorf("cluster: Sparse is the simulator's large-N node representation; a live cluster already holds only per-node state per process (run this config through ccba.Run instead)")
	}
	return normalized, nil
}

// plan is a validated, normalized execution: the defaulted config, the
// options, the network model (nil under delta-one), the full node set, the
// protocol decoder, and the round budget.
type plan struct {
	cfg       scenario.Config
	opts      Options
	net       *netsim.Faults
	nodes     []netsim.Node
	decode    scenario.Decoder
	maxRounds int
}

// prepare checks cfg for live execution and resolves everything the
// runners need.
//
// Any network model but delta-one runs in the runners' round loops: each
// recipient files every data frame for the round the config's one lowering
// (scenario.Config.Faults), validated against (N, F) as NewRuntime
// validates it, delivers it in — the simulator's schedule, with exactly the
// power the simulator's model grants (DESIGN.md §7). The transport and the
// protocol code see an ordinary run, and the schedule is
// seed-deterministic, so every process of a multi-process mesh derives the
// identical schedule.
func prepare(cfg scenario.Config, opts Options) (*plan, error) {
	normalized, err := check(cfg)
	if err != nil {
		return nil, err
	}
	// Build validates and defaults the caller's cfg itself, as the
	// simulator's one pass does; fed the normalized copy it would validate
	// defaulted values the simulator never sees.
	nodes, _, steps, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	var net *netsim.Faults
	if normalized.Net != scenario.NetDeltaOne {
		fs, err := normalized.Faults()
		if err != nil {
			return nil, err
		}
		// The check the simulator's NewRuntime makes, kept so the live
		// path validates the value it runs exactly as the simulator does.
		if _, err := fs.Validate(normalized.N, normalized.F); err != nil {
			return nil, err
		}
		net = &fs
	}
	maxRounds, err := normalized.RoundBudget(steps)
	if err != nil {
		return nil, err
	}
	decode, err := scenario.DecoderFor(normalized.Protocol)
	if err != nil {
		return nil, err
	}
	return &plan{cfg: normalized, opts: opts, net: net, nodes: nodes, decode: decode, maxRounds: maxRounds}, nil
}
