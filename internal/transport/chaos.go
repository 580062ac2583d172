package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
)

// ChaosSpec declares a deterministic fault-injection schedule for a live
// cluster, applied below the protocol surface by wrapping each endpoint's
// Send/Multicast path. Every decision is derived from Key and the frame's
// (round, from, to, seq) coordinates, so the same spec and seed reproduce
// the same faults on every run, on both the chan and TCP meshes.
//
// The spec enforces the simulator's power boundary: data frames are dropped
// only on links whose sender is in the ≤F seed-chosen Faulty set (crash
// windows are total outbound data omission for one such node); honest-sender
// frames are only ever delayed or reordered, never lost; and the synchronizer
// markers (EnvSync) and result records (EnvResult) that realize the round
// structure are delayed at most, never dropped — the Δ-synchronous model's
// round clock is an assumption the transport must keep honest.
type ChaosSpec struct {
	// Key is the folded 64-bit seed (netsim.FoldSeed) every decision mixes
	// from. Using the seed derivation of the simulator's omission model makes
	// a Δ=1 delay-free chaos run bit-identical to the simulated schedule.
	Key uint64
	// Delta is the delivery bound in rounds the injected faults respect.
	// Delays and reorders require Delta ≥ 2; Delta 0 means 1.
	Delta int
	// Faulty lists the seed-chosen omission-faulty senders. Only their
	// EnvData frames may be dropped. Validate checks |Faulty| ≤ F.
	Faulty []types.NodeID
	// DropRate is the per-(round, from, to) drop probability on faulty
	// links, sharing netsim.LinkDrop with the simulator.
	DropRate float64
	// MaxDelay, when positive, holds each frame back by a deterministic
	// per-frame duration in [0, MaxDelay). Callers derive it from the
	// synchronizer's round interval so delays stay within the Δ bound.
	MaxDelay time.Duration
	// ReorderRate selects data frames (per-frame, seed-deterministic) to be
	// held back until after the sender's next sync marker on the same link,
	// delivering them roughly one round late. Requires Delta ≥ 2.
	ReorderRate float64
	// PartitionCut, PartitionFrom, PartitionUntil, PartitionHold impose a
	// timed split: frames crossing the [0, Cut) / [Cut, n) boundary in
	// rounds From..Until−1 are held back by PartitionHold. Requires Delta ≥ 2
	// — a synchronous adversary partitions by Δ-delay, never by disconnection.
	PartitionCut                  types.NodeID
	PartitionFrom, PartitionUntil int
	PartitionHold                 time.Duration
	// CrashNode, CrashFrom, CrashUntil drop every outbound data frame of
	// CrashNode for rounds From..Until−1 — a crash/restart realized as an
	// omission window. CrashNode must be in Faulty (it spends the budget).
	CrashNode             types.NodeID
	CrashFrom, CrashUntil int
	// Obs, when enabled, traces every accepted drop as an EvFault, numbered
	// per (round, sender) in injection order — the numbering the simulator's
	// chaos model reproduces, so drop-only Δ=1 traces align sim ≡ cluster.
	Obs obs.Sink
	// Telemetry, when non-nil, counts each accepted drop on its (from, to)
	// link for the live endpoint's /debug/vars snapshot.
	Telemetry *obs.Telemetry
}

func (s ChaosSpec) delta() int {
	if s.Delta <= 0 {
		return 1
	}
	return s.Delta
}

func (s ChaosSpec) hasPartition() bool { return s.PartitionUntil > s.PartitionFrom }
func (s ChaosSpec) hasCrash() bool     { return s.CrashUntil > s.CrashFrom }

// Validate checks the spec against the cluster parameters, enforcing the
// same power boundary the simulator's model validation applies: the faulty
// set within the corruption budget F, crash windows only on faulty nodes,
// and delay-class faults only at Δ ≥ 2.
func (s ChaosSpec) Validate(n, f int) error {
	if s.Delta < 0 {
		return fmt.Errorf("transport: chaos delta=%d, need Δ ≥ 1", s.Delta)
	}
	if s.DropRate < 0 || s.DropRate > 1 {
		return fmt.Errorf("transport: chaos drop rate %v outside [0, 1]", s.DropRate)
	}
	if s.ReorderRate < 0 || s.ReorderRate > 1 {
		return fmt.Errorf("transport: chaos reorder rate %v outside [0, 1]", s.ReorderRate)
	}
	if s.MaxDelay < 0 {
		return fmt.Errorf("transport: chaos max delay %v is negative", s.MaxDelay)
	}
	mask, err := netsim.CheckFaultBudget(s.Faulty, n, f)
	if err != nil {
		return err
	}
	if s.DropRate > 0 && len(s.Faulty) == 0 {
		return fmt.Errorf("transport: chaos drop rate %v with an empty faulty set drops nothing — name the ≤F faulty senders", s.DropRate)
	}
	if s.ReorderRate > 0 && s.delta() < 2 {
		return fmt.Errorf("transport: chaos reordering holds frames one round late and needs Δ ≥ 2, got Δ=%d", s.delta())
	}
	if s.hasPartition() {
		if s.delta() < 2 {
			return fmt.Errorf("transport: chaos partition is a Δ-delay and needs Δ ≥ 2, got Δ=%d", s.delta())
		}
		if int(s.PartitionCut) <= 0 || int(s.PartitionCut) >= n {
			return fmt.Errorf("transport: chaos partition cut %d does not split a cluster of %d", s.PartitionCut, n)
		}
	}
	if s.hasCrash() {
		if int(s.CrashNode) < 0 || int(s.CrashNode) >= n {
			return fmt.Errorf("transport: chaos crash node %d out of range (n=%d)", s.CrashNode, n)
		}
		if mask == nil || !mask[s.CrashNode] {
			return fmt.Errorf("transport: chaos crash node %d must be in the faulty set (a crash is an omission fault and spends the budget)", s.CrashNode)
		}
	}
	return nil
}

// NewChaosNetwork wraps every endpoint of inner in the fault-injection
// layer. The caller validates the spec against (n, F) first — the wrapper
// itself only needs the faulty ids to be in range.
func NewChaosNetwork(inner Network, spec ChaosSpec) (Network, error) {
	n := inner.N()
	eps := make([]Transport, n)
	for i, ep := range inner.Endpoints() {
		wrapped, err := wrapChaos(ep, spec)
		if err != nil {
			return nil, err
		}
		eps[i] = wrapped
	}
	return &chaosNetwork{inner: inner, eps: eps}, nil
}

type chaosNetwork struct {
	inner Network
	eps   []Transport
}

func (c *chaosNetwork) N() int                 { return c.inner.N() }
func (c *chaosNetwork) Endpoints() []Transport { return c.eps }
func (c *chaosNetwork) Close() error           { return c.inner.Close() }

// WrapChaos wraps a single endpoint (the multi-process path: one node, one
// process, one transport) in the fault-injection layer. It refuses a
// ChanNetwork endpoint, whose per-link markers would bypass the barrier
// tally its peers wait on (see ChanNetwork); wrap the whole network with
// NewChaosNetwork instead.
func WrapChaos(tr Transport, spec ChaosSpec) (Transport, error) {
	if _, ok := tr.(*chanEndpoint); ok {
		return nil, fmt.Errorf("transport: chaos-wrapping chan endpoint %d alone would stall its network's shared barrier; wrap all endpoints with NewChaosNetwork", tr.Self())
	}
	return wrapChaos(tr, spec)
}

func wrapChaos(tr Transport, spec ChaosSpec) (Transport, error) {
	n := tr.N()
	isF := make([]bool, n)
	for _, id := range spec.Faulty {
		if int(id) < 0 || int(id) >= n {
			return nil, fmt.Errorf("%w: chaos faulty node %d (n=%d)", ErrUnknownNode, id, n)
		}
		isF[id] = true
	}
	return &chaosEndpoint{
		inner:      tr,
		spec:       spec,
		isF:        isF,
		held:       make([][]Envelope, n),
		timers:     make(map[*time.Timer]struct{}),
		faultRound: -1,
	}, nil
}

// Hash domains separating the independent decision streams derived from one
// key. The drop stream has no domain constant: it must reproduce
// netsim.LinkDrop exactly for live/sim cross-validation.
const (
	chaosDomainDelay   = 0x64656c6179 // "delay"
	chaosDomainReorder = 0x72656f7264 // "reord"
)

// chaosEndpoint injects the spec's faults on the send side of one node.
// Injection below the protocol surface means the cluster runtime and the
// protocol state machines see an ordinary Transport — only the schedule of
// arrivals changes.
type chaosEndpoint struct {
	inner Transport
	spec  ChaosSpec
	isF   []bool

	mu     sync.Mutex
	held   [][]Envelope // per-peer reorder holdbacks, released after the next sync
	timers map[*time.Timer]struct{}
	closed bool

	// faultRound/faultSeq number this sender's accepted drops within the
	// current round, in injection order — the counter the simulator's trace
	// keeps per (round, sender), so fault events align across runtimes.
	faultRound int
	faultSeq   uint32
}

var _ Transport = (*chaosEndpoint)(nil)

func (c *chaosEndpoint) Self() types.NodeID { return c.inner.Self() }
func (c *chaosEndpoint) N() int             { return c.inner.N() }

func (c *chaosEndpoint) Recv(ctx context.Context) (Envelope, error) { return c.inner.Recv(ctx) }

// Send applies the spec to one outbound frame. Self-sends and hellos pass
// through untouched (the simulator's self-link rule; handshakes predate the
// run). Results flush any reorder holdbacks first and then pass through —
// the run is over and the record must arrive.
func (c *chaosEndpoint) Send(to types.NodeID, env Envelope) error {
	if err := checkAddr(to, c.N()); err != nil {
		return err
	}
	self := c.Self()
	if to == self || env.Kind == EnvHello {
		return c.inner.Send(to, env)
	}
	switch env.Kind {
	case EnvData:
		round := int(env.Round)
		if c.spec.hasCrash() && self == c.spec.CrashNode && round >= c.spec.CrashFrom && round < c.spec.CrashUntil {
			c.noteFault(round, to, obs.FaultCrash)
			return nil
		}
		if c.isF[self] && netsim.LinkDrop(c.spec.Key, round, self, to, c.spec.DropRate) {
			c.noteFault(round, to, obs.FaultDrop)
			return nil
		}
		if c.spec.ReorderRate > 0 && c.chance(chaosDomainReorder, env, to, c.spec.ReorderRate) {
			c.mu.Lock()
			if !c.closed {
				c.held[to] = append(c.held[to], env)
			}
			c.mu.Unlock()
			return nil
		}
		c.sendAfter(to, env, c.holdFor(env, to))
		return nil
	case EnvSync:
		d := c.holdFor(env, to)
		c.sendAfter(to, env, d)
		// Held frames follow the sync marker with an extra beat, arriving
		// (about) one round after they were sent — a legal Δ ≥ 2 reorder.
		c.flushHeld(to, d+c.reorderLag())
		return nil
	default: // EnvResult
		c.flushHeld(to, 0)
		return c.inner.Send(to, env)
	}
}

// Multicast fans out through Send so every link gets its own decision. The
// shared-frame encoding optimization is deliberately given up — chaos wraps
// test and experiment meshes, not the performance path.
func (c *chaosEndpoint) Multicast(env Envelope) error {
	for j := 0; j < c.N(); j++ {
		if err := c.Send(types.NodeID(j), env); err != nil {
			return err
		}
	}
	return nil
}

// Close stops pending timers (their frames are lost — the endpoint is going
// away) and closes the wrapped endpoint.
func (c *chaosEndpoint) Close() error {
	c.mu.Lock()
	c.closed = true
	timers := make([]*time.Timer, 0, len(c.timers))
	for t := range c.timers {
		timers = append(timers, t)
	}
	c.timers = map[*time.Timer]struct{}{}
	c.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	return c.inner.Close()
}

// noteFault records one accepted drop: a trace event numbered per
// (round, sender) in injection order, and a telemetry tick on the link.
func (c *chaosEndpoint) noteFault(round int, to types.NodeID, kind obs.FaultKind) {
	if c.spec.Telemetry != nil {
		c.spec.Telemetry.Drop(c.Self(), to)
	}
	if !c.spec.Obs.Enabled() {
		return
	}
	c.mu.Lock()
	if round != c.faultRound {
		c.faultRound = round
		c.faultSeq = 0
	}
	seq := c.faultSeq
	c.faultSeq++
	c.mu.Unlock()
	c.spec.Obs.Fault(round, c.Self(), to, int(seq), kind)
}

// holdFor returns the deterministic hold-back duration for one frame:
// the partition hold when the link crosses an open cut, plus the per-frame
// delay draw when MaxDelay is set.
func (c *chaosEndpoint) holdFor(env Envelope, to types.NodeID) time.Duration {
	var d time.Duration
	round := int(env.Round)
	if c.spec.hasPartition() && round >= c.spec.PartitionFrom && round < c.spec.PartitionUntil &&
		(c.Self() < c.spec.PartitionCut) != (to < c.spec.PartitionCut) {
		d += c.spec.PartitionHold
	}
	if c.spec.MaxDelay > 0 {
		d += time.Duration(c.hash(chaosDomainDelay, env, to) % uint64(c.spec.MaxDelay))
	}
	return d
}

// reorderLag spaces a released holdback behind its sync marker.
func (c *chaosEndpoint) reorderLag() time.Duration {
	if c.spec.MaxDelay > 0 {
		return c.spec.MaxDelay
	}
	return time.Millisecond
}

// sendAfter delivers env to peer to after d, immediately when d ≤ 0.
// Delayed sends fire from a timer; errors there have no caller to reach and
// only occur when the mesh is shutting down, so they are dropped.
func (c *chaosEndpoint) sendAfter(to types.NodeID, env Envelope, d time.Duration) {
	if d <= 0 {
		c.inner.Send(to, env) //nolint:errcheck // synchronous path: runner errors surface on the next barrier
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		c.inner.Send(to, env) //nolint:errcheck // fires during shutdown at worst
		c.mu.Lock()
		delete(c.timers, t)
		c.mu.Unlock()
	})
	c.timers[t] = struct{}{}
	c.mu.Unlock()
}

// flushHeld releases peer to's reorder holdbacks after lag.
func (c *chaosEndpoint) flushHeld(to types.NodeID, lag time.Duration) {
	c.mu.Lock()
	held := c.held[to]
	c.held[to] = nil
	c.mu.Unlock()
	for _, env := range held {
		c.sendAfter(to, env, lag)
	}
}

// chance draws the seed-deterministic per-frame decision for one domain.
func (c *chaosEndpoint) chance(domain uint64, env Envelope, to types.NodeID, rate float64) bool {
	return float64(c.hash(domain, env, to)>>11)/(1<<53) < rate
}

// hash mixes one per-frame decision value from the key, domain, and the
// frame's (round, from, to, seq) coordinates.
func (c *chaosEndpoint) hash(domain uint64, env Envelope, to types.NodeID) uint64 {
	h := netsim.Mix64(c.spec.Key ^ domain)
	h = netsim.Mix64(h ^ uint64(env.Round))
	h = netsim.Mix64(h ^ uint64(uint32(c.Self())))
	h = netsim.Mix64(h ^ uint64(uint32(to)))
	h = netsim.Mix64(h ^ uint64(env.Seq))
	return h
}
