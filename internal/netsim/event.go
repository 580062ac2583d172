package netsim

import (
	"context"
	"fmt"

	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// AsyncNode is the sans-I/O state machine for one participant of an
// asynchronous protocol, driven by the EventRuntime. Where the lockstep
// Node advances in synchronous rounds, an AsyncNode reacts to individual
// message deliveries: Start runs once before any delivery, and Deliver runs
// once per delivered message, each returning the sends the event triggered.
//
// Implementations must be deterministic given their construction-time
// inputs, so whole executions are reproducible from the run seed.
type AsyncNode interface {
	// Start produces the node's initial sends (its protocol inputs going on
	// the wire). It is called exactly once, before any Deliver.
	Start() []Send
	// Deliver hands the node one message and returns the sends it triggers.
	Deliver(d Delivered) []Send
	// Output returns the node's current output bit and whether it has
	// decided.
	Output() (types.Bit, bool)
	// Halted reports whether the node has terminated (a halted node
	// receives no further deliveries).
	Halted() bool
}

// SchedMode selects the event scheduler's delivery policy. All modes
// reorder only: the asynchronous adversary controls the schedule, never the
// eventual fact of delivery — the async analogue of the power boundary that
// forbids dropping honest-to-honest messages (DESIGN.md §11).
type SchedMode uint8

// The scheduler modes.
const (
	// SchedFIFO delivers messages in send order — the friendliest schedule.
	SchedFIFO SchedMode = iota + 1
	// SchedRandom delivers in a seeded pseudorandom order: each link's
	// priority is a splitmix64 hash of (run key, link seq).
	SchedRandom
	// SchedAdvDelay is the adversarial-reordering knob: a seeded
	// three-in-four fraction of links is held back by AdvDelay positions,
	// starving quorums for as long as the bound allows. The holdback is
	// finite, so every message is still delivered eventually — the
	// reordering power stays inside the asynchronous boundary.
	SchedAdvDelay
)

// String implements fmt.Stringer.
func (m SchedMode) String() string {
	switch m {
	case SchedFIFO:
		return "fifo"
	case SchedRandom:
		return "random"
	case SchedAdvDelay:
		return "adversarial-delay"
	default:
		return fmt.Sprintf("SchedMode(%d)", int(m))
	}
}

// DefaultMaxDeliveries is the liveness backstop EventConfig.MaxDeliveries
// resolves to when unset: exceeding it ends the run with nodes unhalted,
// which the termination checker reports as a liveness failure.
const DefaultMaxDeliveries = 1 << 22

// EventConfig parameterises one event-driven execution.
type EventConfig struct {
	// N is the number of nodes; F the fault budget (crashes spend it).
	N, F int
	// Seed drives the scheduler: the delivery order is a pure function of
	// (Seed, Sched, AdvDelay) and the nodes' deterministic sends.
	Seed [32]byte
	// Sched selects the delivery policy (default SchedFIFO).
	Sched SchedMode
	// AdvDelay is the SchedAdvDelay holdback in delivery positions
	// (default 4·N under that mode; must be 0 otherwise).
	AdvDelay int
	// MaxDeliveries bounds the execution (default DefaultMaxDeliveries).
	// Exceeding it is reported as a termination failure.
	MaxDeliveries int
	// Crashed marks nodes that crash before the protocol starts: they never
	// speak, receive nothing, and count against F. Nil means none.
	Crashed []bool
	// Tracer receives the event stream: one EvAsyncDeliver per delivery
	// (Round is the global delivery step), EvSend per send, and the
	// decide/halt transitions. Nil disables tracing at zero cost.
	Tracer obs.Tracer
}

// StopReason says which of Run's three exit conditions ended an event run.
type StopReason uint8

// The stop reasons.
const (
	// StopHalted: every live node halted — the run completed.
	StopHalted StopReason = iota + 1
	// StopDrained: the queue emptied with live nodes unhalted. Nothing is
	// in flight and nobody will speak again: a deadlock.
	StopDrained
	// StopCapped: MaxDeliveries was reached with links still pending — a
	// livelock, or a run that needs a larger cap.
	StopCapped
)

// EventStop describes how an event run ended, for failure reports: the
// termination checker can say a node is undecided, only the runtime knows
// whether anything was still in flight.
type EventStop struct {
	Reason     StopReason
	Deliveries int            // deliveries executed
	Pending    int            // links still queued
	Unhalted   []types.NodeID // live nodes that had not halted, ascending
}

// String renders the stop for an error message.
func (s EventStop) String() string {
	switch s.Reason {
	case StopHalted:
		return fmt.Sprintf("every live node halted after %d deliveries", s.Deliveries)
	case StopDrained:
		return fmt.Sprintf("queue drained after %d deliveries with nothing in flight (deadlock): live nodes %v unhalted",
			s.Deliveries, s.Unhalted)
	case StopCapped:
		return fmt.Sprintf("MaxDeliveries cap hit at %d deliveries with %d links still pending (livelock, or too slow for the cap): live nodes %v unhalted",
			s.Deliveries, s.Pending, s.Unhalted)
	default:
		return "not run"
	}
}

// EventRuntime executes one asynchronous protocol instance under a seeded
// message scheduler. It is the event-driven sibling of Runtime: instead of
// lockstep rounds, a priority queue of in-flight links is drained one
// delivery at a time, the next link chosen as a pure function of the run
// seed. Multicasts fan out into one link per node (sender included, so
// quorum counting treats one's own vote uniformly, exactly as the lockstep
// engine delivers). Communication is accounted through the same
// Metrics.CountSend rule at send time.
type EventRuntime struct {
	cfg   EventConfig
	nodes []AsyncNode

	pending   *linkQueue
	delivered int // deliveries executed (the step counter)
	haltCount int // live nodes that have halted
	liveCount int // non-crashed nodes

	metrics Metrics

	tr        obs.Sink
	trDecided []bool
}

// NewEventRuntime builds an event runtime over n constructed nodes.
func NewEventRuntime(cfg EventConfig, nodes []AsyncNode) (*EventRuntime, error) {
	if cfg.N != len(nodes) {
		return nil, fmt.Errorf("netsim: config N=%d but %d nodes supplied", cfg.N, len(nodes))
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("netsim: need at least one node, got %d", cfg.N)
	}
	if cfg.F < 0 || cfg.F >= cfg.N {
		return nil, fmt.Errorf("netsim: fault budget f=%d out of range for n=%d", cfg.F, cfg.N)
	}
	if cfg.Sched == 0 {
		cfg.Sched = SchedFIFO
	}
	switch cfg.Sched {
	case SchedFIFO, SchedRandom, SchedAdvDelay:
	default:
		return nil, fmt.Errorf("netsim: unknown scheduler mode %d", cfg.Sched)
	}
	if cfg.AdvDelay < 0 {
		return nil, fmt.Errorf("netsim: AdvDelay=%d cannot be negative", cfg.AdvDelay)
	}
	if cfg.AdvDelay != 0 && cfg.Sched != SchedAdvDelay {
		return nil, fmt.Errorf("netsim: AdvDelay=%d without the %s scheduler", cfg.AdvDelay, SchedAdvDelay)
	}
	if cfg.Sched == SchedAdvDelay && cfg.AdvDelay == 0 {
		cfg.AdvDelay = 4 * cfg.N
	}
	if cfg.MaxDeliveries <= 0 {
		cfg.MaxDeliveries = DefaultMaxDeliveries
	}
	if cfg.Crashed != nil && len(cfg.Crashed) != cfg.N {
		return nil, fmt.Errorf("netsim: Crashed has %d entries for N=%d", len(cfg.Crashed), cfg.N)
	}
	crashes := 0
	for _, c := range cfg.Crashed {
		if c {
			crashes++
		}
	}
	if crashes > cfg.F {
		return nil, fmt.Errorf("netsim: %d crashed nodes exceed the fault budget f=%d", crashes, cfg.F)
	}
	rt := &EventRuntime{
		cfg:       cfg,
		nodes:     nodes,
		pending:   newLinkQueue(cfg.N, cfg.Crashed, cfg.Sched, cfg.AdvDelay, Mix64(FoldSeed(cfg.Seed)^uint64(cfg.Sched))),
		liveCount: cfg.N - crashes,
		tr:        obs.NewSink(cfg.Tracer),
	}
	if cfg.Tracer != nil {
		rt.trDecided = make([]bool, cfg.N)
	}
	return rt, nil
}

// Run executes deliveries until every live node halts, the queue drains, or
// MaxDeliveries is reached, and returns the result.
func (rt *EventRuntime) Run() *Result {
	res, _ := rt.RunCtx(context.Background())
	return res
}

// RunCtx is Run with cancellation, checked every 1024 deliveries.
func (rt *EventRuntime) RunCtx(ctx context.Context) (*Result, error) {
	rt.start()
	for rt.running() {
		if rt.delivered&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rt.step()
	}
	return rt.collect(), nil
}

// Stop reports why the run ended; call it after Run. A drained queue is
// named before the cap: with nothing in flight no cap would have helped.
func (rt *EventRuntime) Stop() EventStop {
	stop := EventStop{Deliveries: rt.delivered, Pending: rt.pending.len()}
	switch {
	case rt.haltCount >= rt.liveCount:
		stop.Reason = StopHalted
	case stop.Pending == 0:
		stop.Reason = StopDrained
	default:
		stop.Reason = StopCapped
	}
	for i, node := range rt.nodes {
		if !rt.crashed(types.NodeID(i)) && !node.Halted() {
			stop.Unhalted = append(stop.Unhalted, types.NodeID(i))
		}
	}
	return stop
}

// start collects every live node's initial sends.
func (rt *EventRuntime) start() {
	for i, node := range rt.nodes {
		if rt.crashed(types.NodeID(i)) {
			continue
		}
		rt.enqueue(types.NodeID(i), node.Start())
		rt.transitions(types.NodeID(i))
	}
}

// running reports whether another step is due: links are in flight, some
// live node has not halted, and the delivery cap has room.
func (rt *EventRuntime) running() bool {
	return rt.pending.len() > 0 && rt.haltCount < rt.liveCount && rt.delivered < rt.cfg.MaxDeliveries
}

// step pops the next link and, unless its recipient has halted, delivers it
// and admits the sends the delivery triggers. The runtime itself allocates
// nothing here once the queue has grown to the traffic in flight.
func (rt *EventRuntime) step() {
	from, to, msg := rt.pending.pop()
	node := rt.nodes[to]
	if node.Halted() {
		return
	}
	if rt.tr.Enabled() {
		rt.tr.AsyncDeliver(rt.delivered, to, from, wire.Size(msg))
	}
	rt.enqueue(to, node.Deliver(Delivered{From: from, Msg: msg}))
	rt.transitions(to)
	rt.delivered++
}

// crashed reports whether node id is in the crash set.
func (rt *EventRuntime) crashed(id types.NodeID) bool {
	return rt.cfg.Crashed != nil && rt.cfg.Crashed[id]
}

// enqueue admits from's sends into the pending queue, accounting each send
// once through the Definitions 6–7 rule.
func (rt *EventRuntime) enqueue(from types.NodeID, sends []Send) {
	for si, s := range sends {
		rt.metrics.CountSend(s.To, rt.cfg.N, wire.Size(s.Msg))
		if rt.tr.Enabled() {
			rt.tr.Send(rt.delivered, from, si, s.To, wire.Size(s.Msg))
		}
		rt.pending.admit(from, s)
	}
}

// transitions traces node id's decide/halt edges and maintains the halt
// count after a Start or Deliver call may have flipped them.
func (rt *EventRuntime) transitions(id types.NodeID) {
	node := rt.nodes[id]
	if rt.tr.Enabled() && !rt.trDecided[id] {
		if bit, ok := node.Output(); ok {
			rt.tr.Decide(rt.delivered, id, bit)
			rt.trDecided[id] = true
		}
	}
	if node.Halted() {
		rt.haltCount++
		if rt.tr.Enabled() {
			rt.tr.Halt(rt.delivered, id)
		}
	}
}

// collect assembles the Result. Crashed nodes are reported Corrupt — they
// spent the fault budget, and the security checkers' forever-honest range
// is exactly the non-crashed set. Rounds carries the delivery-step count:
// the async engine's unit of progress, bounded by MaxDeliveries the way
// lockstep rounds are bounded by MaxRounds.
func (rt *EventRuntime) collect() *Result {
	n := rt.cfg.N
	res := &Result{
		Outputs: make([]types.Bit, n),
		Decided: make([]bool, n),
		Halted:  make([]bool, n),
		Corrupt: make([]bool, n),
		Rounds:  rt.delivered,
		Metrics: rt.metrics,
	}
	for i := 0; i < n; i++ {
		bit, ok := rt.nodes[i].Output()
		if !ok {
			bit = types.NoBit
		}
		res.Outputs[i] = bit
		res.Decided[i] = ok
		res.Halted[i] = rt.nodes[i].Halted()
		res.Corrupt[i] = rt.crashed(types.NodeID(i))
	}
	return res
}
