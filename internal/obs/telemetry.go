package obs

import (
	"sync/atomic"

	"ccba/internal/stats"
	"ccba/internal/types"
)

// Telemetry is the live cluster's operational counter set: monotonic
// gauges a node's runner bumps as the run progresses,
// snapshotted on demand by the expvar endpoint. Unlike the trace, none of
// this is deterministic — it is wall-clock operational state, which is why
// it lives beside, not inside, the event stream.
//
// A nil *Telemetry is a valid no-op receiver: every method nil-checks, so
// the runner threads it unconditionally at zero cost when telemetry is
// off.
type Telemetry struct {
	n        int
	rounds   atomic.Int64 // highest round any node has started, +1
	acked    atomic.Int64 // highest sync watermark any node reached
	msgs     atomic.Int64 // protocol messages sent (a multicast counts once)
	bytes    atomic.Int64 // exact encoded bytes of those messages
	inflight atomic.Int64 // data frames received but not yet delivered
	drops    []atomic.Int64
	latency  *stats.Histogram
}

// NewTelemetry builds the counter set for an n-node cluster. The
// round-latency histogram spans 10µs–100s — chan-mesh barriers land in the
// low microseconds, chaos-delayed TCP rounds in whole seconds.
func NewTelemetry(n int) *Telemetry {
	if n < 1 {
		n = 1
	}
	return &Telemetry{
		n:       n,
		drops:   make([]atomic.Int64, n*n),
		latency: stats.NewHistogram(1e-5, 100, 70),
	}
}

// atomicMax raises g to v if v is larger.
func atomicMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RoundStarted notes that some node began the given round.
func (t *Telemetry) RoundStarted(round int) {
	if t == nil {
		return
	}
	atomicMax(&t.rounds, int64(round)+1)
}

// Acked notes a node's sync watermark.
func (t *Telemetry) Acked(acked int) {
	if t == nil {
		return
	}
	atomicMax(&t.acked, int64(acked))
}

// CountSend accounts one transmitted protocol message of the given encoded
// size.
func (t *Telemetry) CountSend(size int) {
	if t == nil {
		return
	}
	t.msgs.Add(1)
	t.bytes.Add(int64(size))
}

// AddInFlight moves the received-but-undelivered data-frame gauge by d
// (+1 on ingest, −k when a round's batch is handed to the state machine).
func (t *Telemetry) AddInFlight(d int) {
	if t == nil {
		return
	}
	t.inflight.Add(int64(d))
}

// Drop counts one frame the network model dropped on the (from, to) link.
func (t *Telemetry) Drop(from, to types.NodeID) {
	if t == nil {
		return
	}
	i := int(from)*t.n + int(to)
	if i < 0 || i >= len(t.drops) {
		return
	}
	t.drops[i].Add(1)
}

// ObserveRoundLatency feeds one barrier latency (in seconds, stamped by
// the caller — this package reads no clocks) into the p50/p99 histogram.
func (t *Telemetry) ObserveRoundLatency(seconds float64) {
	if t == nil {
		return
	}
	t.latency.Observe(seconds)
}

// LinkDrops is one per-link chaos-drop counter in a snapshot.
type LinkDrops struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Drops int64 `json:"drops"`
}

// TelemetrySnapshot is the JSON document served under the "ccba" expvar.
type TelemetrySnapshot struct {
	Rounds       int64                   `json:"rounds"`
	Acked        int64                   `json:"acked"`
	MsgsSent     int64                   `json:"msgs_sent"`
	BytesSent    int64                   `json:"bytes_sent"`
	InFlight     int64                   `json:"in_flight"`
	ChaosDrops   int64                   `json:"chaos_drops"`
	DropsByLink  []LinkDrops             `json:"drops_by_link,omitempty"`
	RoundLatency *stats.HistogramSummary `json:"round_latency,omitempty"`
}

// Snapshot captures the counters. Per-link drops are reported sparsely
// (non-zero links only), in (from, to) order.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	if t == nil {
		return TelemetrySnapshot{}
	}
	s := TelemetrySnapshot{
		Rounds:    t.rounds.Load(),
		Acked:     t.acked.Load(),
		MsgsSent:  t.msgs.Load(),
		BytesSent: t.bytes.Load(),
		InFlight:  t.inflight.Load(),
	}
	for i := range t.drops {
		d := t.drops[i].Load()
		if d == 0 {
			continue
		}
		s.ChaosDrops += d
		s.DropsByLink = append(s.DropsByLink, LinkDrops{From: i / t.n, To: i % t.n, Drops: d})
	}
	if t.latency.N() > 0 {
		sum := t.latency.Summary()
		s.RoundLatency = &sum
	}
	return s
}
