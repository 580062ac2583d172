package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// The traced pass. Tracing lives here, outside the program: spans wrap the
// calls into each layer's public functions, every netsim.Node is wrapped in
// a timing decorator, and exact event counts come from a bench-owned
// obs.Tracer. Nothing in it feeds an end-to-end metric.
//
// Lap plan (every lap runs the workload's schedule, as in run.go, so every
// traced op repeats an untraced one and must reproduce its result exactly —
// which is also what proves the decorated nodes leave the execution alone):
//
//	1 warm-up lap     untraced
//	B baseline laps   untraced   (trace.overhead_share's base)
//	B timed laps      spans + step timing, no event tracer
//	1 count lap       event tracer only (counts are exact; its times are
//	                  ignored, the tracer's cost would distort them)
//
// followed by the isolated layer timings of layers.go.

// timedCore is the bench-registered protocol that builds core nodes wrapped
// in timing decorators. Both ccba.Run and cluster.Run resolve nodes through
// the scenario registry, so the registry is the one place a decorator — and
// a span around scenario.Build — can be put from outside.
const timedCore scenario.Protocol = "bench-timed-core"

// activeSteps is where the registered builder and the decorated nodes
// record: the traced pass points it at the current op's sink. Ops run one
// at a time.
var activeSteps atomic.Pointer[stepSink]

var registerOnce sync.Once

func registerBenchProtocols() {
	registerOnce.Do(func() {
		scenario.RegisterProtocol(timedCore, func(cfg scenario.Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
			sink := activeSteps.Load()
			cfg.Protocol = scenario.Core
			if sink == nil { // called outside an op: nothing to record into
				return scenario.Build(cfg)
			}
			build := sink.log.begin("scenario.build", sink.opID, sink.op)
			nodes, seize, steps, err := scenario.Build(cfg)
			if err != nil {
				return nil, nil, 0, err
			}
			nodes = wrapNodes(nodes, sink)
			sink.build = sink.log.end(build)
			return nodes, seize, steps, nil
		})
		decode, err := scenario.DecoderFor(scenario.Core)
		if err != nil {
			panic(err) // the core decoder is registered at init
		}
		scenario.RegisterDecoder(timedCore, decode)
		registerNullProtocol()
	})
}

// stepSink collects the step intervals of one op. Each decorated node owns
// its slot, so concurrent shards and node goroutines never share a slice.
type stepSink struct {
	log      *spanLog
	opID, op int  // the op span the build span hangs under
	build    span // the scenario.build span, once the builder ran
	nodes    []*timedNode
}

// timedNode is the timing decorator around one state machine.
type timedNode struct {
	netsim.Node
	log   *spanLog
	steps []interval
}

// Step implements netsim.Node.
func (n *timedNode) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	start := n.log.now()
	sends := n.Node.Step(round, delivered)
	n.steps = append(n.steps, interval{start, n.log.now()})
	return sends
}

// wrapNodes decorates nodes, registering the decorators with sink.
func wrapNodes(nodes []netsim.Node, sink *stepSink) []netsim.Node {
	out := make([]netsim.Node, len(nodes))
	sink.nodes = make([]*timedNode, len(nodes))
	for i, nd := range nodes {
		tn := &timedNode{Node: nd, log: sink.log}
		sink.nodes[i] = tn
		out[i] = tn
	}
	return out
}

// intervals gathers every recorded step.
func (s *stepSink) intervals() []interval {
	var all []interval
	for _, n := range s.nodes {
		all = append(all, n.steps...)
	}
	return all
}

// eventCounter is the bench-owned obs.Tracer: exact per-kind event counts.
// Sparse shards and cluster node goroutines emit concurrently, so counts
// are sharded by node to keep the emitters off one cache line.
type eventCounter struct {
	shards [64]struct {
		kinds [16]atomic.Int64
		_     [64]byte
	}
}

// Emit implements obs.Tracer.
func (c *eventCounter) Emit(e obs.Event) {
	c.shards[uint32(e.Node)%64].kinds[e.Kind%16].Add(1)
}

func (c *eventCounter) count(k obs.EventKind) int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].kinds[k].Load()
	}
	return n
}

// tracedPass is the state of one traced run.
type tracedPass struct {
	w   *workload
	log *spanLog
	op  int // op counter: the identifier spans of one op share

	// per timed op, in execution order
	opNS, buildNS, runNS, evalNS []float64
	stepBusyNS, stepCoveredNS    []float64
	stepCalls                    []float64
	netSetupNS                   []float64
	roundLatencyP50MS            []float64
	counter                      *eventCounter // non-nil during the count lap
	internHits, internAdds       float64       // from untraced sparse reports
}

// beginOp opens an op span under the lap span and points the registered
// builder at a fresh sink for it.
func (p *tracedPass) beginOp(lap int) (opID int, sink *stepSink) {
	p.op++
	opID = p.log.begin("op", lap, p.op)
	sink = &stepSink{log: p.log, opID: opID, op: p.op}
	activeSteps.Store(sink)
	return opID, sink
}

// timedSim is one lockstep-simulator op: ccba.Run on the bench-registered
// protocol, which puts a span around scenario.Build and a timing decorator
// around every node. scenario.Evaluate runs last inside ccba.Run, where no
// hook reaches, so its span is timed on a repeat of the call on the op's own
// result and laid over the end of the op; netsim.run is what lies between
// the two — runtime construction and the rounds.
func (p *tracedPass) timedSim(lap int, cfg scenario.Config) (*scenario.Report, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	opID, sink := p.beginOp(lap)
	defer activeSteps.Store(nil)
	cfg.Protocol = timedCore
	rep, err := ccba.Run(cfg)
	if err != nil {
		return nil, err
	}
	opSpan := p.log.end(opID)

	t0 := p.log.now()
	scenario.Evaluate(norm, rep.Result)
	evalNS := p.log.now() - t0
	evalSpan := p.log.add(span{Parent: opID, Op: p.op, Name: "scenario.evaluate", Start: opSpan.End - evalNS, End: opSpan.End})
	runSpan := p.log.add(span{Parent: opID, Op: p.op, Name: "netsim.run", Start: sink.build.End, End: evalSpan.Start})
	agg := p.log.aggregate("core.step", runSpan, sink.intervals())

	p.record(opSpan, sink.build, runSpan, evalSpan, agg)
	return rep, nil
}

// timedCluster is one chan-cluster op: network setup and cluster.Run, with
// the nodes decorated through the bench-registered protocol.
func (p *tracedPass) timedCluster(lap int, cfg scenario.Config) (*scenario.Report, error) {
	opID, sink := p.beginOp(lap)
	defer activeSteps.Store(nil)
	setup := p.log.begin("cluster.net_setup", opID, p.op)
	net, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	setupSpan := p.log.end(setup)

	cfg.Protocol = timedCore
	tel := obs.NewTelemetry(cfg.N)
	run := p.log.begin("cluster.run", opID, p.op)
	rep, err := cluster.Run(context.Background(), cfg, net, cluster.Options{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	runSpan := p.log.end(run)
	agg := p.log.aggregate("core.step", runSpan, sink.intervals())
	opSpan := p.log.end(opID)

	p.record(opSpan, sink.build, runSpan, span{}, agg)
	p.netSetupNS = append(p.netSetupNS, float64(setupSpan.End-setupSpan.Start))
	if lat := tel.Snapshot().RoundLatency; lat != nil {
		p.roundLatencyP50MS = append(p.roundLatencyP50MS, lat.P50*1e3)
	}
	return rep.Report, nil
}

// timedEvent is one event-runtime op. scenario keeps the async node
// builders private, so the only boundary reachable from outside is the
// whole call: the op is one netsim.run span.
func (p *tracedPass) timedEvent(lap int, cfg scenario.Config) (*scenario.Report, error) {
	opID, _ := p.beginOp(lap)
	defer activeSteps.Store(nil)
	run := p.log.begin("netsim.run", opID, p.op)
	rep, err := ccba.Run(cfg)
	if err != nil {
		return nil, err
	}
	runSpan := p.log.end(run)
	opSpan := p.log.end(opID)
	p.record(opSpan, span{}, runSpan, span{}, span{})
	return rep, nil
}

func (p *tracedPass) record(op, build, run, eval, steps span) {
	dur := func(s span) float64 { return float64(s.End - s.Start) }
	p.opNS = append(p.opNS, dur(op))
	p.buildNS = append(p.buildNS, dur(build))
	p.runNS = append(p.runNS, dur(run))
	p.evalNS = append(p.evalNS, dur(eval))
	p.stepBusyNS = append(p.stepBusyNS, float64(steps.BusyNS))
	p.stepCoveredNS = append(p.stepCoveredNS, float64(steps.CoveredNS))
	p.stepCalls = append(p.stepCalls, float64(steps.Calls))
}

// timed returns the span-recording op for the workload's runtime.
func (p *tracedPass) timed(lap int) opFunc {
	return func(cfg scenario.Config) (*scenario.Report, error) {
		switch p.w.Kind {
		case clusterChan:
			return p.timedCluster(lap, cfg)
		case simEvent:
			return p.timedEvent(lap, cfg)
		default:
			return p.timedSim(lap, cfg)
		}
	}
}

// counted is the plain op with the event counter attached as the tracer.
func (p *tracedPass) counted(cfg scenario.Config) (*scenario.Report, error) {
	return p.w.runOpTracing(cfg, p.counter)
}

// baseline is the plain op; on interning workloads it also reads the
// intern table's sharing statistics off the report.
func (p *tracedPass) baseline(cfg scenario.Config) (*scenario.Report, error) {
	rep, err := p.w.runOp(cfg)
	if err == nil && rep.Intern != nil {
		p.internHits += float64(rep.Intern.Hits)
		p.internAdds += float64(rep.Intern.Hits) + float64(rep.Intern.States)
	}
	return rep, err
}

// tracedLaps converts -seconds into the number of baseline (and timed)
// laps: two at the default ten seconds.
func tracedLaps(seconds int) int {
	if n := seconds / 5; n > 1 {
		return n
	}
	return 1
}

// runTraced is the traced pass; it returns every per-layer metric.
func runTraced(w *workload, seed uint64, seconds int, outDir string) (*report, error) {
	registerBenchProtocols()
	laps := tracedLaps(seconds)
	r := newRunner(w, seed)
	p := &tracedPass{w: w, log: newSpanLog()}

	lapWalls := []float64{lapWall(r.lap(p.baseline))} // warm-up
	base := make([][]opCost, laps)
	for l := range base {
		base[l] = r.lap(p.baseline)
		lapWalls = append(lapWalls, lapWall(base[l]))
	}
	baseLapWalls := sortedCopy(lapWalls[1:])
	for l := 0; l < laps; l++ {
		lapID := p.log.begin("lap", 0, 0)
		lapWalls = append(lapWalls, lapWall(r.lap(p.timed(lapID))))
		p.log.end(lapID)
	}
	p.counter = &eventCounter{}
	lapWalls = append(lapWalls, lapWall(r.lap(p.counted)))

	// Every per-layer metric is printed on every workload; the span and
	// count metrics of layers this workload's ops do not pass through
	// stay 0.
	v, notes := map[string]float64{}, map[string]string{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	p.spanMetrics(v, notes)
	p.countMetrics(v, notes, r)
	baseWall := p.runMetrics(v, notes, base, baseLapWalls)
	if w.Kind == clusterChan {
		simMS, err := simReference(r)
		if err != nil {
			return nil, err
		}
		v["cluster.sim_ratio"] = baseWall / simMS
		notes["cluster.sim_ratio"] = fmt.Sprintf("%.3f ms cluster op / %.3f ms ccba.Run op (its base: one lap of the same %d seeds through the simulator)", baseWall, simMS, w.S)
	}

	layers := p.log.begin("layers", 0, 0)
	if err := isolatedLayers(v, notes); err != nil {
		return nil, err
	}
	p.log.end(layers)

	tracePath := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := p.log.write(tracePath, map[string]any{
		"workload": w.Name, "seed": seed, "S": w.S, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "written": time.Now().UTC().Format(time.RFC3339),
	}); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return &report{
		workload: w, seed: seed,
		plan: fmt.Sprintf("1 warm-up lap + %d untraced laps + %d timed laps + 1 count lap, every lap the same %d ops; spans in %s",
			laps, laps, w.S, tracePath),
		lapWalls: lapWalls,
		digest:   scheduleDigest(r.first),
		attempts: r.attempts, failed: r.failed, failures: r.failures,
		values: v, notes: notes,
	}, nil
}

// spanMetrics turns the timed laps' spans into per-op means.
func (p *tracedPass) spanMetrics(v map[string]float64, notes map[string]string) {
	ms := func(ns []float64) float64 { return mean(ns) / 1e6 }
	timedOps := fmt.Sprintf("mean over %d timed ops", len(p.opNS))
	if p.w.Kind == clusterChan {
		v["cluster.run_ms"] = ms(p.runNS)
		v["cluster.net_setup_ms"] = ms(p.netSetupNS)
		v["cluster.round_latency_ms_p50"] = median(p.roundLatencyP50MS)
		notes["cluster.run_ms"] = timedOps
		notes["cluster.round_latency_ms_p50"] = "median over ops of Options.Telemetry's per-op p50 barrier latency"
	} else {
		v["netsim.run_ms"] = ms(p.runNS)
		v["scenario.evaluate_ms"] = ms(p.evalNS)
		notes["netsim.run_ms"] = timedOps + "; on the lockstep simulator the op minus its build and evaluate spans"
		notes["scenario.evaluate_ms"] = "timed on a repeat of scenario.Evaluate on each op's own result"
	}
	v["scenario.build_ms"] = ms(p.buildNS)
	notes["scenario.build_ms"] = "span around scenario.Build inside the bench-registered protocol's builder"
	v["core.step_ms"] = ms(p.stepCoveredNS)
	v["core.step_busy_ms"] = ms(p.stepBusyNS)
	v["core.step_calls"] = mean(p.stepCalls)
	notes["core.step_ms"] = "the part of the run some node's Step covers, parallel steps counted once"
	notes["core.step_busy_ms"] = "Step wall time summed over nodes: above core.step_ms when shards step in parallel; on the cluster it also counts time a node goroutine sat descheduled inside Step"
	if p.w.Kind == simLockstep {
		v["netsim.engine_self_ms"] = ms(p.runNS) - ms(p.stepCoveredNS)
		notes["netsim.engine_self_ms"] = "netsim.run minus the part of it the steps cover"
	}
}

// countMetrics reports the count lap's exact event counts, per op.
func (p *tracedPass) countMetrics(v map[string]float64, notes map[string]string, r *runner) {
	s := float64(p.w.S)
	v["netsim.deliver_events"] = float64(p.counter.count(obs.EvDeliver)) / s
	v["netsim.send_events"] = float64(p.counter.count(obs.EvSend)) / s
	v["netsim.event_deliveries"] = float64(p.counter.count(obs.EvAsyncDeliver)) / s
	notes["netsim.deliver_events"] = fmt.Sprintf("exact, per op, mean over the %d ops of the count lap", p.w.S)
	if p.w.Kind != simEvent {
		v["netsim.rounds"] = mean(pluck(r.first, func(o outcome) float64 { return float64(o.Steps) }))
		notes["netsim.rounds"] = "mean over the schedule, to go with the event counts"
	}
	if d := v["netsim.deliver_events"]; d > 0 && p.w.Kind == simLockstep {
		v["netsim.engine_ns_per_delivery"] = v["netsim.engine_self_ms"] * 1e6 / d
	}
}

// runMetrics reports the diagnostics of the untraced laps and the tracing
// overhead against them; it returns the untraced median op wall in ms.
func (p *tracedPass) runMetrics(v map[string]float64, notes map[string]string, base [][]opCost, lapWalls []float64) float64 {
	var ops []opCost
	for _, lap := range base {
		ops = append(ops, lap...)
	}
	walls := pluck(ops, func(c opCost) float64 { return c.wallMS })

	if p.internAdds > 0 {
		v["attest.intern_share_ratio"] = p.internHits / p.internAdds
		notes["attest.intern_share_ratio"] = fmt.Sprintf("%.0f hits / %.0f adds (Report.Intern over the untraced laps)", p.internHits, p.internAdds)
	}

	// Tracing overhead, paired: the timed laps ran the untraced laps' ops,
	// and both sides take op_wall_ms's statistic.
	baseWall := fastest(eachLap(base, func(c opCost) float64 { return c.wallMS }), p.w.Seg)
	var timed [][]float64
	for at := 0; at < len(p.opNS); at += p.w.S {
		timed = append(timed, p.opNS[at:at+p.w.S])
	}
	tracedWall := fastest(timed, p.w.Seg) / 1e6
	v["trace.overhead_share"] = (tracedWall - baseWall) / baseWall
	notes["trace.overhead_share"] = fmt.Sprintf("(%.3f ms traced - %.3f ms untraced) / untraced, op_wall_ms's statistic over %d laps each", tracedWall, baseWall, len(base))

	var cpuMS, gcCPUMS float64
	for _, c := range ops {
		cpuMS += c.cpuMS
		gcCPUMS += c.gcCPUMS
	}
	v["run.gc_cpu_share"] = gcCPUMS / cpuMS
	v["run.gc_cycles_per_op"] = mean(pluck(ops, func(c opCost) float64 { return c.gcs }))
	v["run.peak_rss_mb"] = peakRSSMB()
	v["run.inst_wall_ms_p90"] = percentile(walls, 90)
	notes["run.inst_wall_ms_p90"] = fmt.Sprintf("over %d untraced ops", len(ops))
	v["run.lap_spread"] = (lapWalls[len(lapWalls)-1] - lapWalls[0]) / median(lapWalls)
	v["run.lap_median_op_wall_ms"] = median(lapWalls) * 1e3 / float64(p.w.S)
	notes["run.lap_median_op_wall_ms"] = "median untraced lap / S: what op_wall_ms would read without taking each segment's fastest lap"
	notes["run.lap_spread"] = fmt.Sprintf("(max - min) / median over %d untraced laps of identical work", len(lapWalls))
	return baseWall
}

// simReference runs the cluster workload's schedule through the simulator
// once and returns the op wall in ms — cluster.sim_ratio's base.
func simReference(r *runner) (float64, error) {
	var ms float64
	for _, i := range r.order {
		cfg, err := r.w.opConfig(r.seeds[i])
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := judge(ccba.Run(cfg)); err != nil {
			return 0, fmt.Errorf("simulator reference: %w", err)
		}
		ms += float64(time.Since(t0)) / 1e6
	}
	return ms / float64(r.w.S), nil
}
