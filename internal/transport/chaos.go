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
// Send/Multicast path. The schedule is the simulator's: every data frame
// and sync marker is put to Faults.Decide on its (round, from, to) link, so
// the same spec reproduces the same faults on every run, on both the chan
// and TCP meshes, and the same link-for-link decisions a simulated run of
// the same Faults makes.
//
// The spec enforces the simulator's power boundary: data frames are dropped
// only on links whose sender is in the ≤F Faulty set (crash windows are
// total outbound data omission for one such node); honest-sender frames
// are only ever delayed or reordered, never lost; and the synchronizer
// markers (EnvSync) and result records (EnvResult) that realize the round
// structure are delayed at most, never dropped — the Δ-synchronous model's
// round clock is an assumption the transport must keep honest.
type ChaosSpec struct {
	// Faults is the fault schedule both runtimes call. A frame it delays d
	// rounds is held back (d−1)·Interval.
	Faults netsim.Faults
	// Interval is the synchronizer's round interval, which turns the
	// schedule's round delays into wall-clock holds. Zero holds nothing:
	// drops and crash windows only.
	Interval time.Duration
	// ReorderRate selects data frames (per-frame, seed-deterministic) to be
	// held back until after the sender's next sync marker on the same link,
	// delivering them roughly one round late. Requires Δ ≥ 2. It is the one
	// live-only coin: the simulator's round-tagged delivery has no intra-round
	// order to disturb.
	ReorderRate float64
	// Obs, when enabled, traces every accepted drop as an EvFault, numbered
	// per (round, sender) in injection order — the numbering the simulator
	// reproduces, so drop-only Δ=1 traces align sim ≡ cluster.
	Obs obs.Sink
	// Telemetry, when non-nil, counts each accepted drop on its (from, to)
	// link for the live endpoint's /debug/vars snapshot.
	Telemetry *obs.Telemetry
}

// Validate checks the spec against the cluster parameters: Faults.Validate,
// the power boundary the simulator applies too, and the live-only rules —
// a drop rate needs a faulty set to act on, the delay-class faults a live
// cluster realizes in wall-clock time (reorder, partition holds) need
// Δ ≥ 2, and a partition must split the cluster.
func (s ChaosSpec) Validate(n, f int) error {
	delta, faulty, err := s.Faults.Validate(n, f)
	if err != nil {
		return err
	}
	if s.ReorderRate < 0 || s.ReorderRate > 1 {
		return fmt.Errorf("transport: chaos reorder rate %v outside [0, 1]", s.ReorderRate)
	}
	if s.Interval < 0 {
		return fmt.Errorf("transport: chaos round interval %v is negative", s.Interval)
	}
	if s.Faults.Rate > 0 && faulty == nil {
		return fmt.Errorf("transport: chaos drop rate %v with an empty faulty set drops nothing — name the ≤F faulty senders", s.Faults.Rate)
	}
	if s.ReorderRate > 0 && delta < 2 {
		return fmt.Errorf("transport: chaos reordering holds frames one round late and needs Δ ≥ 2, got Δ=%d", delta)
	}
	if fs := s.Faults; fs.CutUntil > fs.CutFrom {
		if delta < 2 {
			return fmt.Errorf("transport: chaos partition is a Δ-delay and needs Δ ≥ 2, got Δ=%d", delta)
		}
		if int(fs.Cut) == 0 || int(fs.Cut) == n {
			return fmt.Errorf("transport: chaos partition cut %d does not split a cluster of %d", fs.Cut, n)
		}
	}
	return nil
}

// NewChaosNetwork wraps every endpoint of inner in the fault-injection
// layer. The caller validates the spec against (n, F) first.
func NewChaosNetwork(inner Network, spec ChaosSpec) Network {
	eps := make([]Transport, inner.N())
	for i, ep := range inner.Endpoints() {
		eps[i] = wrapChaos(ep, spec)
	}
	return &chaosNetwork{inner: inner, eps: eps}
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
	return wrapChaos(tr, spec), nil
}

func wrapChaos(tr Transport, spec ChaosSpec) *chaosEndpoint {
	return &chaosEndpoint{
		inner:      tr,
		spec:       spec,
		held:       make([][]Envelope, tr.N()),
		timers:     make(map[*time.Timer]struct{}),
		faultRound: -1,
	}
}

// chaosDomainReorder separates the reorder coin from the schedule's
// LinkDrop/LinkDelay draws on the same key.
const chaosDomainReorder = 0x72656f7264 // "reord"

// chaosEndpoint injects the spec's faults on the send side of one node.
// Injection below the protocol surface means the cluster runtime and the
// protocol state machines see an ordinary Transport — only the schedule of
// arrivals changes.
type chaosEndpoint struct {
	inner Transport
	spec  ChaosSpec

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
	if to == c.Self() || env.Kind == EnvHello {
		return c.inner.Send(to, env)
	}
	switch env.Kind {
	case EnvData:
		hold, drop, kind := c.plan(env, to)
		if drop {
			c.noteFault(int(env.Round), to, kind)
			return nil
		}
		if c.spec.ReorderRate > 0 && c.reorder(env, to) {
			c.mu.Lock()
			if !c.closed {
				c.held[to] = append(c.held[to], env)
			}
			c.mu.Unlock()
			return nil
		}
		c.sendAfter(to, env, hold)
		return nil
	case EnvSync:
		hold, _, _ := c.plan(env, to)
		c.sendAfter(to, env, hold)
		// Held frames follow the sync marker with an extra beat, arriving
		// (about) one round after they were sent — a legal Δ ≥ 2 reorder.
		c.flushHeld(to, hold+c.reorderLag())
		return nil
	default: // EnvResult
		c.flushHeld(to, 0)
		return c.inner.Send(to, env)
	}
}

// plan puts one data frame or sync marker to the schedule: drop it, with
// the drop's fault kind, or hold it (d−1)·Interval for a d-round delay. A
// sync marker is never dropped: on a link the schedule drops, it goes out
// unheld, after data frames that were all dropped.
func (c *chaosEndpoint) plan(env Envelope, to types.NodeID) (hold time.Duration, drop bool, kind obs.FaultKind) {
	delay, kind := c.spec.Faults.Decide(int(env.Round), c.Self(), to)
	if delay == netsim.Drop {
		return 0, env.Kind == EnvData, kind
	}
	return time.Duration(delay-1) * c.spec.Interval, false, kind
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

// reorderLag spaces a released holdback behind its sync marker: the
// schedule's longest hold, (Δ−1) intervals.
func (c *chaosEndpoint) reorderLag() time.Duration {
	if d := time.Duration(c.spec.Faults.Delta-1) * c.spec.Interval; d > 0 {
		return d
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

// reorder flips the seed-deterministic per-frame reorder coin, mixed from
// the key and the frame's (round, from, to, seq) coordinates.
func (c *chaosEndpoint) reorder(env Envelope, to types.NodeID) bool {
	h := netsim.Mix64(c.spec.Faults.Key ^ chaosDomainReorder)
	h = netsim.Mix64(h ^ uint64(env.Round))
	h = netsim.Mix64(h ^ uint64(uint32(c.Self())))
	h = netsim.Mix64(h ^ uint64(uint32(to)))
	h = netsim.Mix64(h ^ uint64(env.Seq))
	return float64(h>>11)/(1<<53) < c.spec.ReorderRate
}
