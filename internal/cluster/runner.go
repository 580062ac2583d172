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
		opts: p.opts,
		// Under the all-ack barrier a peer runs at most one round ahead (it
		// needs our round-r sync to finish round r); under deadline advance
		// the skew cap bounds the lead at Δ rounds. Either way the maps
		// buffer early traffic per round until its delivery point.
		pending: map[uint32]*roundTraffic{},
		marks:   map[uint32]roundMarks{},
		// No all-halted round observed yet.
		exitRound: -1,
		obs:       obs.NewSink(p.opts.Tracer),
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
	opts Options

	metrics netsim.Metrics // this node's own sends (Definitions 6 and 7)

	pending map[uint32]*roundTraffic // round-tagged data awaiting delivery
	// marks tallies the sync markers received per round. Rounds below
	// haltScan are complete and scanned, and their entries are deleted, so
	// the map holds the rounds within the skew, not the whole run.
	marks   map[uint32]roundMarks
	results []transport.Envelope // early result records (see below)
	// envs, logs and runs hold the delivery batch and free the emptied
	// pending entries, all kept across rounds so a round's buffers are the
	// previous round's.
	envs []transport.Envelope
	logs [][][]transport.Envelope
	runs [][]transport.Envelope
	free []*roundTraffic

	// acked is the watermark of consecutive fully-acknowledged rounds:
	// every round < acked holds sync markers for all n nodes. Deadline-based
	// advance is capped at Δ rounds past it, and the all-halted scan below
	// only inspects rounds whose marker sets are complete.
	acked int
	// obs emits this node's slice of the round-lifecycle trace; trDecided
	// pins EvDecide to the transition round, as the simulator does.
	obs       obs.Sink
	trDecided bool

	// haltScan is the next acked round the runner has not yet checked for
	// the all-halted exit condition, and exitRound is the detected exit
	// point (−1 until an all-halted round is observed). The scan lives in
	// ingest — tallies only change there — so a node blocked in a barrier
	// whose peers have already exited still notices the run is over the
	// moment the proving markers arrive, instead of waiting out the hard
	// timeout on sync traffic that will never come.
	haltScan  int
	exitRound int
}

// roundTraffic is one round's data awaiting delivery: envelopes received
// one at a time (unicasts; every data envelope over TCP and under chaos),
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
		// encoding across all copies.
		for seq, s := range sends {
			payload := wire.Marshal(s.Msg)
			env := transport.Envelope{
				Kind: transport.EnvData, From: r.self,
				Round: uint32(round), Seq: uint32(seq), Payload: payload,
			}
			r.metrics.CountSend(s.To, n, len(payload))
			r.opts.Telemetry.CountSend(len(payload))
			r.obs.Send(round, r.self, seq, s.To, len(payload))
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
		r.opts.Telemetry.Acked(r.acked)
		r.opts.Telemetry.ObserveLag(round + 1 - r.acked)
		// Trace: watermark advance. Under the pure all-ack barrier the
		// watermark provably reaches round+1 the moment the barrier
		// completes, so the mark is deterministic and mirrors the
		// simulator's per-node EvMark. Under deadline advance
		// (RoundInterval > 0) the watermark is a race against wall clocks —
		// those marks go to Telemetry only, keeping the trace a
		// pure function of the config.
		if r.opts.RoundInterval == 0 {
			r.obs.Mark(round, r.self, r.acked)
		}

		// 4. Exit check: the run ends the round after the one in which every
		// node reported halted. ingest detects that round — only rounds
		// with a complete marker set can testify, and once complete a
		// round's tally is final. Under the all-ack barrier this degenerates
		// to "did everyone halt this round" — the lockstep engine's rule —
		// because rounds complete strictly in order; under deadline advance
		// it also catches an all-halted round this node skimmed past, whose
		// markers straggled in during a later barrier.
		if r.exitRound >= 0 {
			return r.exitRound, nil
		}

		// 5. Deliver all arrived traffic tagged for this round or earlier,
		// in the (round, sender, sequence) order of the lockstep engine's
		// envelope list, decoded from canonical bytes back into the values
		// the state machines switch on. At Δ=1 under all-ack only
		// round-tagged == round entries exist (per-link FIFO); at Δ>1 frames
		// up to Δ rounds late join the batch of the round they land in — the
		// model's rule that the adversary picks any delivery round within
		// the bound.
		envs, logs := r.envs[:0], r.logs[:0]
		for rd, t := range r.pending {
			if rd <= uint32(round) {
				envs = append(envs, t.envs...)
				logs = append(logs, t.logs...)
				clear(t.envs) // release payload references
				clear(t.logs)
				t.envs, t.logs = t.envs[:0], t.logs[:0]
				delete(r.pending, rd)
				r.free = append(r.free, t)
			}
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

// collectBarrier consumes incoming envelopes until the node may advance:
// the round-r sync markers of all n nodes are in (the all-ack fast path, and
// the only path when no RoundInterval is configured), or the soft per-round
// deadline has expired and the Δ skew cap permits running ahead of the
// stragglers.
// Data for any round is buffered as it goes.
func (r *runner) collectBarrier(ctx context.Context, round uint32) error {
	hardCtx, cancel := r.barrierCtx(ctx)
	defer cancel()
	cur := hardCtx
	var softCtx context.Context
	softCancel := func() {}
	defer func() { softCancel() }()
	armSoft := func() {
		if r.opts.RoundInterval > 0 {
			softCancel()
			softCtx, softCancel = context.WithTimeout(hardCtx, r.opts.RoundInterval)
			cur = softCtx
		}
	}
	armSoft()
	n := r.cfg.N
	for r.exitRound < 0 && int(round) >= r.acked && r.marks[round].syncs < n {
		env, err := r.tr.Recv(cur)
		if err != nil {
			if cur == softCtx && softCtx.Err() == context.DeadlineExceeded && hardCtx.Err() == nil {
				// Soft deadline. Advance without the stragglers if that
				// keeps us within Δ rounds of the oldest incomplete
				// barrier; otherwise re-arm the deadline and keep
				// collecting — the watermark may climb enough on the next
				// window, and running ahead of it now would exceed the
				// Δ-bounded skew the buffers (and the model) promise.
				if int(round)+1 <= r.acked+r.opts.delta() {
					return nil
				}
				armSoft()
				continue
			}
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
// into the per-round tallies (advancing the acked watermark) and the round
// log an aggregated marker carries with its round's data, early result
// records aside for the exchange.
func (r *runner) ingest(env transport.Envelope, round uint32) error {
	n := r.cfg.N
	if int(env.From) < 0 || int(env.From) >= n {
		return fmt.Errorf("round %d: envelope from unknown node %d", round, env.From)
	}
	switch env.Kind {
	case transport.EnvData:
		t := r.traffic(env.Round)
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
		for r.marks[uint32(r.acked)].syncs == n {
			r.acked++
		}
		// Scan newly completed rounds (final tallies) for the all-halted
		// exit condition. Every node scans the complete rounds in order, so
		// all detect the same, earliest such round. A scanned round's
		// tally is never read again.
		for r.exitRound < 0 && r.haltScan < r.acked {
			rd := uint32(r.haltScan)
			if r.marks[rd].halts == n {
				r.exitRound = r.haltScan + 1
			}
			delete(r.marks, rd)
			r.haltScan++
		}
	case transport.EnvLog:
		// Runs the chan network published ahead of their round's barrier,
		// handed over once this node stopped waiting for it.
		r.fileRuns(env.Round, env.Runs)
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

// fileRuns buffers multicast runs from round's log for delivery.
func (r *runner) fileRuns(round uint32, runs [][]transport.Envelope) {
	if len(runs) == 0 {
		return
	}
	t := r.traffic(round)
	t.logs = append(t.logs, runs)
	r.opts.Telemetry.AddInFlight(logLen(runs))
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
// the exchange collected.
func assemble(cfg scenario.Config, rounds int, recs []resultRecord) *Report {
	n := len(recs)
	res := &netsim.Result{
		Outputs: make([]types.Bit, n),
		Decided: make([]bool, n),
		Halted:  make([]bool, n),
		Corrupt: make([]bool, n), // live runs are adversary-free
		Rounds:  rounds,
	}
	perNode := make([]netsim.Metrics, n)
	for i, rec := range recs {
		res.Outputs[i] = rec.output
		res.Decided[i] = rec.decided
		res.Halted[i] = rec.halted
		perNode[i] = rec.metrics
		res.Metrics.Add(rec.metrics)
	}
	return &Report{Report: scenario.Evaluate(cfg, res), PerNode: perNode}
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
// the full outcome. Under the all-ack barrier every node's round count is
// identical, a deterministic function of the halted flags all nodes
// collected through the same barriers; under deadline advance nodes may
// observe the all-halted round at slightly different points, which is why
// the caller reports its own.
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
