package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// newRunner binds one node of the plan to its transport endpoint.
func (p *plan) newRunner(self types.NodeID, tr transport.Transport) *runner {
	return &runner{
		plan: p,
		self: self,
		node: p.nodes[self],
		tr:   tr,
		// A peer runs at most one round ahead (it needs our round-r sync to
		// finish round r), and a network model holds a frame at most Δ
		// rounds: the maps buffer traffic per round until its delivery
		// point.
		pending: map[uint32]*roundTraffic{},
		marks:   map[uint32]roundMarks{},
		obs:     obs.NewSink(p.opts.Tracer),
	}
}

// run executes the node's round loop and returns its result record and its
// round count.
func (r *runner) run(ctx context.Context) (resultRecord, int, error) {
	rounds, err := r.runRounds(ctx)
	if err != nil {
		return resultRecord{}, 0, err
	}
	out, decided := r.node.Output()
	if !decided {
		out = types.NoBit
	}
	return resultRecord{output: out, decided: decided, halted: r.node.Halted(), metrics: r.metrics}, rounds, nil
}

// runner is the per-node execution state.
type runner struct {
	*plan
	self types.NodeID
	node netsim.Node
	tr   transport.Transport

	metrics netsim.Metrics // this node's own sends (Definitions 6 and 7)

	pending map[uint32]*roundTraffic // data awaiting delivery, by the round it is delivered after
	// marks tallies the sync markers received per round. A round's entry
	// is deleted once its barrier completes, so the map holds the current
	// round and the next.
	marks   map[uint32]roundMarks
	results []transport.Envelope // early result records (see below)
	// envs, logs and runs hold the delivery batch and free the emptied
	// pending entries, all kept across rounds so a round's buffers are the
	// previous round's.
	envs []transport.Envelope
	logs [][][]transport.Envelope
	runs [][]transport.Envelope
	free []*roundTraffic

	// obs emits this node's slice of the round-lifecycle trace; trDecided
	// pins EvDecide to the transition round, as the simulator does.
	obs       obs.Sink
	trDecided bool
}

// roundTraffic is one round's data awaiting delivery: envelopes received
// one at a time (unicasts; every data envelope over TCP),
// and the pieces of the chan network's round log as they were handed over,
// shared read-only with every other recipient.
type roundTraffic struct {
	envs []transport.Envelope
	logs [][][]transport.Envelope
}

// roundMarks is one round's sync-marker weight and the halted nodes among
// it.
type roundMarks struct{ syncs, halts int }

// runRounds executes the synchronized round loop and returns the round
// count — exactly the simulator's: the round after the one in which every
// node reported halted, or the budget if that never happens.
func (r *runner) runRounds(ctx context.Context) (int, error) {
	n := r.cfg.N
	var delivered []netsim.Delivered
	for round := 0; round < r.maxRounds; round++ {
		// 1. Step the state machine (halted nodes stay silent but keep the
		// barrier alive for peers still running). A stepped node's round
		// start and inbox reads trace exactly as the simulator's: same
		// honest-and-live condition, same inbox order (put below into the
		// lockstep engine's), same exact-encoding sizes.
		stepped := !r.node.Halted()
		var sends []netsim.Send
		if stepped {
			r.opts.Telemetry.RoundStarted(round)
			if r.obs.Enabled() {
				r.obs.RoundStart(round, r.self)
				for di, d := range delivered {
					r.obs.Deliver(round, r.self, di, d.From, wire.Size(d.Msg))
				}
			}
			sends = r.node.Step(round, delivered)
		}
		halted := r.node.Halted()

		// 2. Transmit this round's sends as round-tagged, sequence-numbered
		// envelopes, accounting communication as we go. A multicast reaches
		// every node including the sender — the simulator's rule, so quorum
		// counting treats one's own vote uniformly — and shares one payload
		// encoding across all copies. With its trace on, a node under a
		// network model also traces the links the schedule drops its sends
		// on, numbered as the simulator numbers them.
		faultSeq := 0
		for seq, s := range sends {
			payload := wire.Marshal(s.Msg)
			env := transport.Envelope{
				Kind: transport.EnvData, From: r.self,
				Round: uint32(round), Seq: uint32(seq), Payload: payload,
			}
			r.metrics.CountSend(s.To, n, len(payload))
			r.opts.Telemetry.CountSend(len(payload))
			r.obs.Send(round, r.self, seq, s.To, len(payload))
			if r.links != nil && r.obs.Enabled() {
				r.links.traceDrops(r.obs, round, r.self, s.To, n, &faultSeq)
			}
			if s.To == types.Broadcast {
				// In-process recipients share one decode of the payload.
				env.Cell = new(transport.DecodeCell)
				if err := r.tr.Multicast(env); err != nil {
					return 0, fmt.Errorf("round %d: multicast: %w", round, err)
				}
			} else if int(s.To) >= 0 && int(s.To) < n {
				if err := r.tr.Send(s.To, env); err != nil {
					return 0, fmt.Errorf("round %d: unicast to %d: %w", round, s.To, err)
				}
			}
		}

		// Trace: decide/halt transitions of a stepped node, post-step — the
		// simulator's rule, so transition rounds line up event for event.
		if stepped && r.obs.Enabled() {
			if !r.trDecided {
				if bit, ok := r.node.Output(); ok {
					r.obs.Decide(round, r.self, bit)
					r.trDecided = true
				}
			}
			if halted {
				r.obs.Halt(round, r.self)
			}
		}

		// 3. Barrier: announce end-of-round (with our halted flag), then
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
			return 0, fmt.Errorf("round %d: sync: %w", round, err)
		}
		barrierStart := time.Now()
		if err := r.collectBarrier(ctx, uint32(round)); err != nil {
			return 0, err
		}
		r.opts.Telemetry.ObserveRoundLatency(time.Since(barrierStart).Seconds())
		// The barrier is complete, so every round up to this one is acked:
		// the watermark is round+1, as in the simulator's per-node EvMark.
		r.opts.Telemetry.Acked(round + 1)
		r.obs.Mark(round, r.self, round+1)
		marks := r.marks[uint32(round)]
		delete(r.marks, uint32(round))

		// 4. Exit check: the run ends the round after the one in which every
		// node reported halted — the lockstep engine's rule.
		if marks.halts == n {
			return round + 1, nil
		}

		// 5. Deliver the traffic filed for this round, in the (round,
		// sender, sequence) order of the lockstep engine's envelope list,
		// decoded from canonical bytes back into the values the state
		// machines switch on. Under delta-one a frame is filed under its
		// own round; under a network model, under the round its link's
		// delay says (arrival) — the model's rule that the adversary picks
		// any delivery round within the bound. Every frame filed for this
		// round is in: its sender's sync for the round it was sent in
		// precedes this barrier.
		envs, logs := r.envs[:0], r.logs[:0]
		if t := r.pending[uint32(round)]; t != nil {
			envs = append(envs, t.envs...)
			logs = append(logs, t.logs...)
			clear(t.envs) // release payload references
			clear(t.logs)
			t.envs, t.logs = t.envs[:0], t.logs[:0]
			delete(r.pending, uint32(round))
			r.free = append(r.free, t)
		}
		r.envs, r.logs = envs, logs
		inFlight := len(envs)
		for _, log := range logs {
			inFlight += logLen(log)
		}
		r.opts.Telemetry.AddInFlight(-inFlight)
		delivered = delivered[:0]
		if halted {
			// This node never steps again; it only keeps the barrier alive
			// for peers still running. Ordering and decoding its inbox would
			// be work the state machine will never see.
			continue
		}
		for _, run := range r.inbox(envs, logs) {
			for i := range run {
				env := &run[i]
				msg, err := transport.Decode(*env, r.decode)
				if err != nil {
					return 0, fmt.Errorf("round %d: message %d/%d from node %d: %w",
						round, env.Round, env.Seq, env.From, err)
				}
				delivered = append(delivered, netsim.Delivered{From: env.From, Msg: msg})
			}
		}
	}
	return r.maxRounds, nil
}

// deliveryOrder is the lockstep engine's envelope order: round, then sender,
// then the sender's send sequence.
func deliveryOrder(a, b transport.Envelope) int {
	if c := cmp.Compare(a.Round, b.Round); c != 0 {
		return c
	}
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// inbox orders a delivery batch — envelopes received one at a time and
// round-log pieces — into runs whose concatenation is the lockstep engine's
// (round, sender, sequence) order. A single barrier's log, which is every
// all-ack round's batch on the chan network, is in that order already and
// is walked as it is, shared; anything else is copied into r.runs and
// sorted.
func (r *runner) inbox(envs []transport.Envelope, logs [][][]transport.Envelope) [][]transport.Envelope {
	if len(envs) == 0 && len(logs) == 1 && slices.IsSortedFunc(logs[0], runOrder) {
		return logs[0]
	}
	runs := r.runs[:0]
	for _, log := range logs {
		runs = append(runs, log...)
	}
	if len(envs) > 0 {
		// Envelopes received one at a time arrive in no set order: merge
		// the runs in and sort.
		for _, run := range runs {
			envs = append(envs, run...)
		}
		slices.SortStableFunc(envs, deliveryOrder)
		r.envs = envs
		runs = append(runs[:0], envs)
	} else {
		// Each run is one (round, sender) in sequence order, so ordering
		// the runs orders the inbox.
		slices.SortFunc(runs, runOrder)
	}
	r.runs = runs
	return runs
}

// runOrder is deliveryOrder over runs, each of one round and sender.
func runOrder(a, b []transport.Envelope) int {
	return cmp.Or(cmp.Compare(a[0].Round, b[0].Round), cmp.Compare(a[0].From, b[0].From))
}

// collectBarrier consumes incoming envelopes until the round-r sync markers
// of all n nodes are in, buffering data for any round as it goes.
func (r *runner) collectBarrier(ctx context.Context, round uint32) error {
	ctx, cancel := r.barrierCtx(ctx)
	defer cancel()
	for r.marks[round].syncs < r.cfg.N {
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
	return fmt.Sprintf("%d/%d peers", r.marks[round].syncs, r.cfg.N)
}

// ingest files one received envelope: data by its round tag, sync markers
// into the per-round tallies and the round log an aggregated marker carries
// with its round's data, early result records aside for the exchange.
func (r *runner) ingest(env transport.Envelope, round uint32) error {
	n := r.cfg.N
	if int(env.From) < 0 || int(env.From) >= n {
		return fmt.Errorf("round %d: envelope from unknown node %d", round, env.From)
	}
	switch env.Kind {
	case transport.EnvData:
		at, ok := r.arrival(env.Round, env.From)
		if !ok {
			r.opts.Telemetry.Drop(env.From, r.self)
			return nil
		}
		t := r.traffic(at)
		t.envs = append(t.envs, env)
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
		m := r.marks[env.Round]
		m.syncs += weight
		m.halts += halted
		r.marks[env.Round] = m
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

// traffic returns round's pending entry, reusing an emptied one.
func (r *runner) traffic(round uint32) *roundTraffic {
	t := r.pending[round]
	if t == nil {
		if k := len(r.free); k > 0 {
			t, r.free = r.free[k-1], r.free[:k-1]
		} else {
			t = new(roundTraffic)
		}
		r.pending[round] = t
	}
	return t
}

// fileRuns buffers multicast runs from round's log for delivery. Under a
// network model each run, one sender's, is filed whole by its link's
// delay: the schedule decides a (round, from, to) link once for all its
// frames.
func (r *runner) fileRuns(round uint32, runs [][]transport.Envelope) {
	if len(runs) == 0 {
		return
	}
	if r.links == nil {
		// Filed as one piece, a lone barrier's log stays the inbox as it
		// stands (see inbox).
		t := r.traffic(round)
		t.logs = append(t.logs, runs)
		r.opts.Telemetry.AddInFlight(logLen(runs))
		return
	}
	for i, run := range runs {
		if at, ok := r.arrival(round, run[0].From); ok {
			t := r.traffic(at)
			t.logs = append(t.logs, runs[i:i+1:i+1])
			r.opts.Telemetry.AddInFlight(len(run))
		} else {
			for range run {
				r.opts.Telemetry.Drop(run[0].From, r.self)
			}
		}
	}
}

// arrival is the pending round a round-r frame from from is filed under:
// r itself under delta-one, else r + d − 1 for the link's delay d, so the
// frame reaches the state machine in round r + d. ok is false when the
// schedule drops the frame.
func (r *runner) arrival(round uint32, from types.NodeID) (at uint32, ok bool) {
	if r.links == nil {
		return round, true
	}
	d := r.links.delay(int(round), from, r.self)
	return round + uint32(d) - 1, d > 0
}

// logLen counts the envelopes in a round-log piece.
func logLen(runs [][]transport.Envelope) int {
	k := 0
	for _, run := range runs {
		k += len(run)
	}
	return k
}

// barrierCtx applies the per-round timeout, when one is configured.
func (r *runner) barrierCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.opts.RoundTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.opts.RoundTimeout)
}

// ---------------------------------------------------------------------------
// Result assembly and exchange.

// resultRecord is one node's contribution to the final Result: its decision,
// halted flag and own communication metrics.
type resultRecord struct {
	output  types.Bit
	decided bool
	halted  bool
	metrics netsim.Metrics
}

// assemble builds the Report from all n records, indexed by node, and
// evaluates the paper's three properties on it. Both routes go through it:
// Run with the records its node goroutines return, RunNode with the records
// the exchange collected. The omission-faulty senders are the network
// model's, as in the simulator's Result.
func (p *plan) assemble(rounds int, recs []resultRecord) *Report {
	n := len(recs)
	res := &netsim.Result{
		Outputs: make([]types.Bit, n),
		Decided: make([]bool, n),
		Halted:  make([]bool, n),
		Corrupt: make([]bool, n), // live runs are adversary-free
		Rounds:  rounds,
	}
	if p.links != nil {
		res.OmissionFaulty = slices.Clone(p.links.faulty)
	}
	perNode := make([]netsim.Metrics, n)
	for i, rec := range recs {
		res.Outputs[i] = rec.output
		res.Decided[i] = rec.decided
		res.Halted[i] = rec.halted
		perNode[i] = rec.metrics
		res.Metrics.Add(rec.metrics)
	}
	return &Report{Report: scenario.Evaluate(p.cfg, res), PerNode: perNode}
}

func encodeResult(rec resultRecord) []byte {
	w := wire.Writer{}
	w.Bit(rec.output)
	w.U8(b2u(rec.decided))
	w.U8(b2u(rec.halted))
	rec.metrics.EncodeTo(&w)
	return w.Buf
}

// decodeResult parses a peer's record and fails closed: a flag byte other
// than 0 or 1, or a counter this platform's int cannot hold, is malformed.
func decodeResult(buf []byte) (resultRecord, error) {
	r := wire.NewReader(buf)
	rec := resultRecord{output: r.Bit(), decided: readFlag(r, "decided"), halted: readFlag(r, "halted")}
	rec.metrics.DecodeFrom(r)
	if err := r.Finish(); err != nil {
		return resultRecord{}, err
	}
	return rec, nil
}

func readFlag(r *wire.Reader, what string) bool {
	b := r.U8()
	r.Expect(b <= 1, what+" flag is neither 0 nor 1")
	return b == 1
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// exchangeResults multicasts this node's record and collects everyone's —
// the one step a node whose peers live in other processes needs to learn
// the full outcome. Every node's round count is identical, a deterministic
// function of the halted flags all nodes collected through the same
// barriers.
func (r *runner) exchangeResults(ctx context.Context, rec resultRecord, rounds int) ([]resultRecord, error) {
	n := r.cfg.N
	env := transport.Envelope{
		Kind: transport.EnvResult, From: r.self,
		Round: uint32(rounds), Payload: encodeResult(rec),
		Cell: new(transport.DecodeCell),
	}
	if err := r.tr.Multicast(env); err != nil {
		return nil, fmt.Errorf("result exchange: %w", err)
	}

	collectCtx, cancel := r.barrierCtx(ctx)
	defer cancel()
	recs := make([]resultRecord, n)
	seen := make([]bool, n)
	for got := 0; got < n; {
		var env transport.Envelope
		if len(r.results) > 0 {
			// Results buffered by the final barrier (fast peers run one
			// round of skew ahead) come first.
			env, r.results = r.results[0], r.results[1:]
		} else {
			var err error
			env, err = r.tr.Recv(collectCtx)
			if err != nil {
				return nil, fmt.Errorf("result exchange (%d/%d nodes): %w", got, n, err)
			}
		}
		if env.Kind != transport.EnvResult || int(env.From) < 0 || int(env.From) >= n || seen[env.From] {
			continue // stragglers from the final barrier are harmless
		}
		rec, err := transport.Decode(env, decodeResult)
		if err != nil {
			return nil, fmt.Errorf("result from node %d: %w", env.From, err)
		}
		seen[env.From] = true
		got++
		recs[env.From] = rec
	}
	return recs, nil
}
