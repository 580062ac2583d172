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
	// Delta is the delivery bound Δ the synchronizer budgets for: traffic
	// up to Δ rounds early is buffered, the round budget scales to
	// steps × Δ, and deadline-based advance (RoundInterval) never lets a
	// node run more than Δ rounds past the oldest incomplete barrier.
	// Zero or one keeps the all-ack lockstep of DESIGN.md §6 — bit-identical
	// to the simulator's Δ=1 engine.
	Delta int
	// RoundInterval, when positive, arms a soft per-round deadline: a node
	// advances from round r once it holds all n sync markers or the
	// interval has elapsed, whichever comes first (subject to the Δ skew
	// cap). Zero keeps the pure all-ack barrier. Chaos runs with delayed
	// sync markers need it; drop-only chaos does not, since markers are
	// reliable and the all-ack barrier still completes.
	RoundInterval time.Duration
	// Tracer receives the round-lifecycle event stream (DESIGN.md §10). At
	// Δ=1 under the pure all-ack barrier (RoundInterval zero) the canonical
	// export is byte-identical to the simulator's trace of the same config —
	// the equivalence cmd/tracediff checks. Implementations must accept
	// concurrent Emit calls (node goroutines emit in parallel). Nil disables
	// tracing.
	Tracer obs.Tracer
	// Telemetry, when non-nil, receives the live operational counters the
	// -obs-addr endpoint serves: rounds, watermark lag, messages and bytes,
	// in-flight frames, chaos drops, and barrier-latency quantiles. Unlike
	// the trace this channel is wall-clock state and never deterministic.
	Telemetry *obs.Telemetry
	// Chaos, when non-nil, injects this declared fault schedule below the
	// protocol surface: Run wraps every endpoint of its network, RunNode its
	// own endpoint, in the chaos layer before the node ever sees it, so the
	// protocol code runs unmodified against a misbehaving network. The
	// schedule is validated against the normalized config's (N, F) — the
	// live injector gets exactly the power the simulator's adversary model
	// grants and no more (DESIGN.md §7) — and is seed-deterministic, so
	// every process of a multi-process mesh, passing the same declaration,
	// derives the identical schedule for its own links. Delta defaults to
	// the schedule's Δ.
	Chaos *scenario.ChaosConfig
}

// delta returns the effective delivery bound.
func (o Options) delta() int {
	if o.Delta <= 0 {
		return 1
	}
	return o.Delta
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
	if plan.chaos != nil {
		net = transport.NewChaosNetwork(net, *plan.chaos)
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
	return assemble(plan.cfg, rounds[0], recs), nil
}

// RunNode executes one node of a multi-process cluster over its endpoint
// (e.g. transport.DialTCP). Every process runs the same cfg — node sets are
// deterministic in the seed, so each process rebuilds the full PKI and
// committee structure and animates only tr.Self(). Its peers' records live
// in other processes, so the run ends with a result exchange that hands
// every process the complete outcome; the returned Report equals the one a
// single-process run would produce (with this node's round count).
func RunNode(ctx context.Context, cfg scenario.Config, tr transport.Transport, opts Options) (*Report, error) {
	if err := checkMultiProcess(cfg); err != nil {
		return nil, err
	}
	plan, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	if plan.chaos != nil {
		if tr, err = transport.WrapChaos(tr, *plan.chaos); err != nil {
			return nil, err
		}
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
	return assemble(plan.cfg, rounds, recs), nil
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

// plan is a validated, normalized execution: the defaulted config, the
// options with the chaos schedule's Δ filled in, the chaos layer's spec (nil
// without Options.Chaos), the full node set, the protocol decoder, and the
// round budget.
type plan struct {
	cfg       scenario.Config
	opts      Options
	chaos     *transport.ChaosSpec
	nodes     []netsim.Node
	decode    scenario.Decoder
	maxRounds int
}

// prepare validates cfg for live execution and resolves everything the
// runners need. The rejections are structural, not temporary gaps: see the
// package comment.
func prepare(cfg scenario.Config, opts Options) (*plan, error) {
	normalized, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	var spec *transport.ChaosSpec
	if opts.Chaos != nil {
		if spec, err = resolveChaos(normalized, &opts); err != nil {
			return nil, err
		}
	}
	if cfg.Adversary != nil {
		return nil, fmt.Errorf("cluster: live runs execute honest protocols only; the adversary interface needs the simulator's omniscient envelope window (run this config through ccba.Run instead)")
	}
	if cfg.Net != "" && cfg.Net != scenario.NetDeltaOne {
		return nil, fmt.Errorf("cluster: net model %q is simulated message scheduling; live faults are injected at the transport instead (Options.Chaos), with the synchronizer's Options.Delta bounding delivery (or run this config through ccba.Run)", cfg.Net)
	}
	if cfg.Sparse {
		return nil, fmt.Errorf("cluster: Sparse is the simulator's large-N node representation; a live cluster already holds only per-node state per process (run this config through ccba.Run instead)")
	}
	nodes, _, steps, err := scenario.Build(normalized)
	if err != nil {
		return nil, err
	}
	maxRounds, err := normalized.RoundBudget(steps)
	if err != nil {
		return nil, err
	}
	// A Δ>1 synchronizer may legitimately spend up to Δ rounds per protocol
	// step — the same scaling RoundBudget applies to simulated Δ>1 models.
	if d := opts.delta(); d > 1 && steps*d > maxRounds {
		maxRounds = steps * d
	}
	decode, err := scenario.DecoderFor(normalized.Protocol)
	if err != nil {
		return nil, err
	}
	return &plan{cfg: normalized, opts: opts, chaos: spec, nodes: nodes, decode: decode, maxRounds: maxRounds}, nil
}
