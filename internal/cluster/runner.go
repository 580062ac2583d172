package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// newRunner binds one node of the plan to its transport endpoint.
func (p *plan) newRunner(self types.NodeID, tr transport.Transport) *runner {
	delta := 1
	if p.net != nil {
		delta = p.net.Delta
	}
	return &runner{
		plan: p,
		self: self,
		node: p.nodes[self],
		tr:   tr,
		ring: make([]slot, delta+1), // see ring.go
		obs:  obs.NewSink(p.opts.Tracer),
	}
}

// runner is the per-node execution state: a transport endpoint, the round
// barrier and the delivery ring around netsim's per-node step.
type runner struct {
	*plan
	self types.NodeID
	node netsim.Node
	tr   transport.Transport

	metrics   netsim.Metrics     // this node's own sends (Definitions 6 and 7)
	sends     []netsim.Envelope  // the round's sends, reused across rounds
	delivered []netsim.Delivered // the next round's inbox, reused likewise

	ring []slot // the data awaiting delivery, by delivery round
	// marks tallies the sync markers of the current round and the next,
	// round r's at index r mod 2.
	marks   [2]roundMarks
	results []transport.Envelope // early result records (see ingest)

	// obs emits this node's slice of the round-lifecycle trace; decided
	// pins EvDecide to the transition round (netsim.StepNode).
	obs     obs.Sink
	decided bool
}

// roundMarks is one round's sync-marker weight and the halted nodes among
// it.
type roundMarks struct{ syncs, halts int }

// run executes the node's synchronized round loop and returns its result
// record and its round count — exactly the simulator's: the round after the
// one in which every node reported halted, or the budget if that never
// happens.
func (r *runner) run(ctx context.Context) (resultRecord, int, error) {
	n, rounds := r.cfg.N, r.maxRounds
	for round := 0; round < r.maxRounds; round++ {
		// 1. Step the state machine through the simulator's own per-node
		// step, which traces, sizes and counts exactly as the lockstep
		// engine's shards do. The inbox is this node's own, never a list
		// other nodes share, so the node ingests it alone. A halted node
		// stays silent but keeps the barrier alive for peers still
		// running.
		r.sends = r.sends[:0]
		halted := r.node.Halted()
		if !halted {
			r.opts.Telemetry.RoundStarted(round)
			r.sends, halted = netsim.StepNode(r.obs, n, round, r.self, r.node, r.delivered, &r.metrics, &r.decided, r.sends)
		}
		if err := r.transmit(round); err != nil {
			return resultRecord{}, 0, err
		}

		// 2. Barrier: announce end-of-round (with our halted flag), then
		// collect everyone's announcements — n per-link markers, or the one
		// aggregated marker the chan network pushes once all n nodes have
		// announced, which carries the round's multicasts inside it. Either
		// way a peer's round-r data is in hand by the time the marker that
		// accounts for its round-r sync is, so once the markers weigh n the
		// round's traffic is complete — Δ-bounded delivery realised by
		// acknowledgement instead of a clock.
		sync := transport.Envelope{
			Kind: transport.EnvSync, From: r.self,
			Round: uint32(round), Halted: halted,
		}
		if err := r.tr.Multicast(sync); err != nil {
			return resultRecord{}, 0, fmt.Errorf("round %d: sync: %w", round, err)
		}
		barrierStart := time.Now()
		if err := r.collectBarrier(ctx, uint32(round)); err != nil {
			return resultRecord{}, 0, err
		}
		r.opts.Telemetry.ObserveRoundLatency(time.Since(barrierStart).Seconds())
		// The barrier is complete, so every round up to this one is acked:
		// the watermark is round+1, as in the simulator's per-node EvMark.
		r.opts.Telemetry.Acked(round + 1)
		r.obs.Mark(round, r.self, round+1)
		m := &r.marks[round%2]
		allHalted := m.halts == n
		*m = roundMarks{}

		// 3. Exit check: the run ends the round after the one in which every
		// node reported halted — the lockstep engine's rule.
		if allHalted {
			rounds = round + 1
			break
		}

		// 4. Deliver the traffic filed for the next round. Every frame filed
		// for it is in: its sender's sync for the round it was sent in
		// precedes this barrier.
		if err := r.deliver(round, halted); err != nil {
			return resultRecord{}, 0, err
		}
	}
	out, decided := r.node.Output()
	if !decided {
		out = types.NoBit
	}
	return resultRecord{output: out, decided: decided, halted: r.node.Halted(), metrics: r.metrics}, rounds, nil
}

// transmit sends the round's sends as round-tagged, sequence-numbered
// envelopes. A multicast reaches every node including the sender — the
// simulator's rule, so quorum counting treats one's own vote uniformly —
// and shares one payload encoding across all copies. With its trace on, a
// node under a network model also traces the links the schedule drops its
// sends on, numbered as the simulator numbers them.
func (r *runner) transmit(round int) error {
	faultSeq := 0
	for seq := range r.sends {
		s := &r.sends[seq]
		r.opts.Telemetry.CountSend(s.Size())
		if r.net != nil && r.obs.Enabled() {
			r.traceDrops(round, s.To, &faultSeq)
		}
		env := transport.Envelope{
			Kind: transport.EnvData, From: r.self,
			Round: uint32(round), Seq: uint32(seq), Payload: wire.Marshal(s.Msg),
		}
		if s.To == types.Broadcast {
			// In-process recipients share one decode of the payload.
			env.Cell = new(transport.DecodeCell)
			if err := r.tr.Multicast(env); err != nil {
				return fmt.Errorf("round %d: multicast: %w", round, err)
			}
		} else if int(s.To) >= 0 && int(s.To) < r.cfg.N {
			if err := r.tr.Send(s.To, env); err != nil {
				return fmt.Errorf("round %d: unicast to %d: %w", round, s.To, err)
			}
		}
	}
	return nil
}

// deliver empties the slot of delivery round round+1 into the next step's
// inbox, in the lockstep engine's (round, sender, sequence) order, decoded
// from canonical bytes back into the values the state machines switch on.
// A halted node never steps again, so it only empties the slot.
func (r *runner) deliver(round int, halted bool) error {
	s := r.slotFor(uint32(round + 1))
	r.opts.Telemetry.AddInFlight(-s.frames)
	r.delivered = r.delivered[:0]
	if !halted {
		for _, run := range s.inbox() {
			for i := range run {
				env := &run[i]
				msg, err := transport.Decode(*env, r.decode)
				if err != nil {
					return fmt.Errorf("round %d: message %d/%d from node %d: %w",
						round, env.Round, env.Seq, env.From, err)
				}
				r.delivered = append(r.delivered, netsim.Delivered{From: env.From, Msg: msg})
			}
		}
	}
	s.reset()
	return nil
}

// collectBarrier consumes incoming envelopes until the round-r sync markers
// of all n nodes are in, filing data as it goes.
func (r *runner) collectBarrier(ctx context.Context, round uint32) error {
	ctx, cancel := r.barrierCtx(ctx)
	defer cancel()
	for r.marks[round%2].syncs < r.cfg.N {
		env, err := r.tr.Recv(ctx)
		if err != nil {
			return fmt.Errorf("round %d barrier (%s): %w", round, r.barrierStall(round), err)
		}
		if err := r.ingest(env, round); err != nil {
			return err
		}
	}
	return nil
}

// barrierStall says who a stuck round barrier is waiting for: the node ids
// when the transport can tell (the chan network's tally knows who has not
// arrived), else how many per-link markers are in.
func (r *runner) barrierStall(round uint32) string {
	if t, ok := r.tr.(interface {
		BarrierMissing(round uint32) []types.NodeID
	}); ok {
		if missing := t.BarrierMissing(round); len(missing) > 0 {
			const show = 8
			var b strings.Builder
			fmt.Fprintf(&b, "waiting for %d of %d:", len(missing), r.cfg.N)
			for _, id := range missing[:min(show, len(missing))] {
				fmt.Fprintf(&b, " node %d", id)
			}
			if len(missing) > show {
				b.WriteString(" …")
			}
			return b.String()
		}
	}
	return fmt.Sprintf("%d/%d peers", r.marks[round%2].syncs, r.cfg.N)
}

// ingest files one envelope received in round: data into the ring by its
// delivery round, sync markers into the two-round tally and the round log
// an aggregated marker carries with its round's data, early result records
// aside for the exchange. A data frame or marker of any round but this one
// and the next fails closed: the ring would file it in a live slot.
func (r *runner) ingest(env transport.Envelope, round uint32) error {
	n := r.cfg.N
	if int(env.From) < 0 || int(env.From) >= n {
		return fmt.Errorf("round %d: envelope from unknown node %d", round, env.From)
	}
	switch env.Kind {
	case transport.EnvData, transport.EnvSync, transport.EnvBarrier:
		if env.Round < round || env.Round > round+1 {
			what := "sync marker"
			if env.Kind == transport.EnvData {
				what = "data frame"
			}
			return fmt.Errorf("round %d: %s from node %d for round %d: %w", round, what, env.From, env.Round, errWindow)
		}
	}
	switch env.Kind {
	case transport.EnvData:
		at, ok := r.arrival(env.Round, env.From)
		if !ok {
			r.opts.Telemetry.Drop(env.From, r.self)
			return nil
		}
		s := r.slotFor(at)
		s.envs = append(s.envs, env)
		s.frames++
		r.opts.Telemetry.AddInFlight(1)
	case transport.EnvSync, transport.EnvBarrier:
		// A per-link marker weighs one node; the chan network's aggregated
		// marker weighs all n, carries their halted count, and carries the
		// round's multicasts.
		weight, halted := 1, int(b2u(env.Halted))
		if env.Kind == transport.EnvBarrier {
			weight, halted = n, int(env.Seq)
			r.fileRuns(env.Round, env.Runs)
		}
		m := &r.marks[env.Round%2]
		m.syncs += weight
		m.halts += halted
	case transport.EnvResult:
		// Legitimate end-of-run skew: a peer that already holds all n
		// final-round sync markers exits the loop and multicasts its result
		// while we are still waiting on a third party's marker. Buffer it
		// for the result exchange.
		r.results = append(r.results, env)
	default:
		return fmt.Errorf("round %d: unexpected %d-kind envelope from node %d", round, env.Kind, env.From)
	}
	return nil
}

// barrierCtx applies the per-round timeout, when one is configured.
func (r *runner) barrierCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.opts.RoundTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.opts.RoundTimeout)
}
