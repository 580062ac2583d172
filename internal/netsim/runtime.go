package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"ccba/internal/harness"
	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Config parameterises one execution.
type Config struct {
	// N is the number of nodes.
	N int
	// F is the adversary's corruption budget.
	F int
	// MaxRounds bounds the execution; exceeding it is reported as a
	// termination failure, matching the paper's T_end-termination property.
	MaxRounds int
	// Seize returns the secret key material handed to the adversary when it
	// corrupts a node. May be nil.
	Seize func(id types.NodeID) any
	// Net is the message-scheduling model (nil = DeltaOne lockstep). See
	// NetModel for the delivery-bound and power-enforcement contract.
	Net NetModel
	// Sparse asserts that the execution is in the regime where the engine
	// holds no n-sized state (DESIGN.md §6): the delta-one lockstep model
	// (no per-node delay ring) and a passive adversary (no status arrays).
	// It selects nothing — the one engine is traffic-sized wherever the
	// model and the adversary allow — but NewRuntime fails closed with
	// ErrSparseNet or ErrSparseAdversary instead of building that state for
	// a caller who sized the run on its absence.
	Sparse bool
	// Tracer receives the round-lifecycle event stream (DESIGN.md §10):
	// round starts, deliveries and sends with their Definitions 6–7 sizes,
	// decide/halt transitions, watermark marks, and injected link faults.
	// Trace content is a pure function of (config, seed) — identical at
	// every GOMAXPROCS. Nil disables tracing; the engine then allocates no
	// trace state and the hot paths pay one predictable branch per round
	// section. Implementations must accept concurrent Emit calls (the
	// shards emit in parallel).
	Tracer obs.Tracer
}

// Construction errors of the Config.Sparse assertion.
var (
	ErrSparseNet       = errors.New("netsim: Sparse requires the delta-one lockstep model (any other keeps n delivery lists per future round)")
	ErrSparseAdversary = errors.New("netsim: Sparse requires a passive adversary (any other needs per-node corruption state)")
)

// Runtime executes one protocol instance under one adversary.
//
// There is one round engine. Node ids are carved into min(GOMAXPROCS, n)
// contiguous shards; each round every shard steps its live nodes in id
// order into a private envelope slab, a serial merge concatenates the slabs
// in shard order — exactly (node id, send) order — into the adversary's
// window, and what survives the window is delivered. Results are therefore
// byte-identical at every worker count.
//
// State is sized by the round's traffic unless the configuration asks for
// more: the status array exists only under a non-passive adversary, the
// ∆+1 delivery ring only under a non-delta-one model, the decide bitmap
// only under a tracer. The engine is allocation-free in steady state: slabs,
// the envelope list and the shared multicast list every inbox aliases are
// reused across rounds. Consequently envelopes and inbox slices are only
// valid during the round they belong to — adversaries and nodes must not
// retain them across rounds (no strategy in this repository does).
type Runtime struct {
	cfg     Config
	nodes   []Node
	adv     Adversary
	metrics Metrics

	// status is nil under the Passive adversary: nobody can corrupt, so
	// every node is forever honest and no window is opened.
	status []types.Status

	net      NetModel
	lockstep bool   // net is the DeltaOne model: deliver through shared/extras
	faulty   []bool // omission-faulty senders declared by the model, nil if none

	shards []shard
	pool   *harness.Pool // steps the shards; nil when there is one

	// envs is the adversary-visible envelope list of the current round:
	// pointers into the shard slabs, plus heap envelopes for injections.
	envs []*Envelope

	// Lockstep delivery state: the multicasts every node's inbox aliases,
	// and, keyed by the few recipients that have any, the deliveries meant
	// for them alone. Written by lockstepDeliveries in round r, read-only
	// while the shards step round r+1.
	shared []Delivered
	extras map[types.NodeID]extraList

	// Scheduled-delivery state (non-lockstep models): a ring of ∆+1 future
	// rounds, each holding per-node delivery lists reused across laps.
	buckets [][][]Delivered

	// Trace state, allocated only when Config.Tracer is set. trDecided
	// deduplicates EvDecide to the transition round; faultSeq counts
	// injected faults per sender within the current round (general path
	// only). faultKind is the network model's optional drop classifier.
	tr        obs.Sink
	trDecided []bool
	faultSeq  map[types.NodeID]uint32
	faultKind faultKinder

	curRound int // round currently being stepped, read by pool workers
}

// shard is one worker's slice of a round: the nodes [lo, hi) it steps and
// the private buffers their sends accumulate into, reused across rounds.
type shard struct {
	lo, hi  int
	slab    []Envelope  // this round's sends, in (node id, send) order
	merge   []Delivered // inbox scratch for a node that has extras
	metrics Metrics     // Definitions 6–7 counts of the slab
	done    bool        // every node of the shard is halted or corrupt
}

// faultKinder is an optional NetModel extension: a model that can drop for
// more than one reason (seeded omission vs. crash window) classifies each
// accepted drop for the trace. Models without it trace every drop as
// obs.FaultDrop.
type faultKinder interface {
	DropKind(round int, from types.NodeID) obs.FaultKind
}

// extraEntry is a delivery that applies to a single recipient: a unicast, or
// a multicast erased for some recipients. at is the number of shared
// deliveries preceding it, so merging reproduces exact envelope order.
type extraEntry struct {
	at int
	d  Delivered
}

type extraList []extraEntry

// NewRuntime builds a runtime over n constructed nodes. Nodes are stepped
// by min(GOMAXPROCS, n) workers.
func NewRuntime(cfg Config, nodes []Node, adv Adversary) (*Runtime, error) {
	return newRuntime(cfg, nodes, adv, runtime.GOMAXPROCS(0))
}

// newRuntime is NewRuntime with the worker count as a parameter, so tests
// can sweep it without touching the process-wide GOMAXPROCS.
func newRuntime(cfg Config, nodes []Node, adv Adversary, workers int) (*Runtime, error) {
	if cfg.N != len(nodes) {
		return nil, fmt.Errorf("netsim: config N=%d but %d nodes supplied", cfg.N, len(nodes))
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("netsim: need at least one node, got %d", cfg.N)
	}
	if cfg.F < 0 || cfg.F >= cfg.N {
		return nil, fmt.Errorf("netsim: corruption budget f=%d out of range for n=%d", cfg.F, cfg.N)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10_000
	}
	if adv == nil {
		adv = Passive{}
	}
	if cfg.Net == nil {
		cfg.Net = DeltaOne()
	}
	faulty, err := validateNetModel(cfg.Net, cfg.N, cfg.F)
	if err != nil {
		return nil, err
	}
	_, lockstep := cfg.Net.(deltaOne)
	_, passive := adv.(Passive)
	if cfg.Sparse && !lockstep {
		return nil, ErrSparseNet
	}
	if cfg.Sparse && !passive {
		return nil, ErrSparseAdversary
	}
	rt := &Runtime{
		cfg:      cfg,
		nodes:    nodes,
		adv:      adv,
		net:      cfg.Net,
		lockstep: lockstep,
		faulty:   faulty,
		shards:   carveShards(cfg.N, workers),
		tr:       obs.NewSink(cfg.Tracer),
	}
	if lockstep {
		rt.extras = make(map[types.NodeID]extraList)
	}
	if !passive {
		rt.status = make([]types.Status, cfg.N)
		for i := range rt.status {
			rt.status[i] = types.Honest
		}
	}
	if cfg.Tracer != nil {
		rt.trDecided = make([]bool, cfg.N)
		if !lockstep {
			rt.faultSeq = make(map[types.NodeID]uint32)
			rt.faultKind, _ = cfg.Net.(faultKinder)
		}
	}
	return rt, nil
}

// carveShards partitions the ids [0, n) into min(workers, n) contiguous
// ranges (at least one) whose sizes differ by at most one.
func carveShards(n, workers int) []shard {
	workers = max(1, min(workers, n))
	shards := make([]shard, workers)
	for k := range shards {
		shards[k] = shard{lo: k * n / workers, hi: (k + 1) * n / workers}
	}
	return shards
}

// Result summarises an execution.
type Result struct {
	// Outputs[i] is node i's output (NoBit if it never decided); Decided[i]
	// records whether it decided. Only forever-honest entries are meaningful
	// for the security properties.
	Outputs []types.Bit
	Decided []bool
	Halted  []bool
	// Corrupt[i] reports whether node i was eventually corrupt.
	Corrupt []bool
	// OmissionFaulty[i] reports whether the network model declared node i an
	// omission-faulty sender. Faulty nodes execute honestly and stay in the
	// forever-honest set the security checkers range over — omission faults
	// degrade what the network delivers, not what the node is promised.
	OmissionFaulty []bool
	// Rounds is the number of rounds executed.
	Rounds  int
	Metrics Metrics
}

// ForeverHonest returns the IDs of nodes that were never corrupted.
func (r *Result) ForeverHonest() []types.NodeID {
	out := make([]types.NodeID, 0, len(r.Corrupt))
	for i, c := range r.Corrupt {
		if !c {
			out = append(out, types.NodeID(i))
		}
	}
	return out
}

// NumCorrupt returns the number of eventually-corrupt nodes.
func (r *Result) NumCorrupt() int {
	n := 0
	for _, c := range r.Corrupt {
		if c {
			n++
		}
	}
	return n
}

// Run executes rounds until every forever-honest node halts or MaxRounds is
// reached, and returns the result.
func (rt *Runtime) Run() *Result {
	res, _ := rt.RunCtx(context.Background())
	return res
}

// RunCtx is Run with cancellation: ctx is checked between rounds, and a
// cancelled execution returns ctx's error instead of a result. Per-round
// granularity keeps the hot path untouched — a round is the natural
// preemption point of a lockstep engine.
func (rt *Runtime) RunCtx(ctx context.Context) (*Result, error) {
	if rt.status != nil {
		rt.adv.Setup(rt.newCtx(-1, nil))
	}
	if len(rt.shards) > 1 {
		rt.pool = harness.NewPool(len(rt.shards), rt.stepShard)
		defer rt.pool.Close()
	}

	round := 0
	for ; round < rt.cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rt.stepRound(round) {
			round++
			break
		}
	}
	return rt.collect(round), nil
}

// isCorrupt reports whether node id has been corrupted; never, under the
// Passive adversary.
func (rt *Runtime) isCorrupt(id types.NodeID) bool {
	return rt.status != nil && rt.status[id] == types.Corrupt
}

// stepRound executes one round; it returns true when all so-far-honest
// nodes have halted.
func (rt *Runtime) stepRound(round int) (done bool) {
	n := rt.cfg.N
	if rt.faultSeq != nil {
		clear(rt.faultSeq)
	}

	// 1. So-far-honest, non-halted nodes produce their sends for this round,
	// shard by shard.
	rt.curRound = round
	if rt.pool != nil {
		for k := range rt.shards {
			rt.pool.Do(k)
		}
		rt.pool.Wait()
	} else {
		rt.stepShard(0)
	}

	// 2. Serial merge: the slabs, concatenated in shard order, are the
	// envelope list in (node id, send) order. It only moves pointers and
	// adds counters; the expensive work happened inside the shards.
	envs := rt.envs[:0]
	done = true
	for k := range rt.shards {
		sh := &rt.shards[k]
		for i := range sh.slab {
			envs = append(envs, &sh.slab[i])
		}
		rt.metrics.Add(sh.metrics)
		done = done && sh.done
	}

	// 3. Adversary window: observe, corrupt, remove (power permitting),
	// inject. Inboxes of already-corrupt nodes are visible to it. Corrupting
	// a node that has not halted can complete the round's done condition,
	// hence the rescan.
	if rt.status != nil {
		ctx := rt.newCtx(round, envs)
		rt.adv.Round(ctx)
		envs = ctx.envelopes()
		if !done {
			done = rt.honestAllHalted()
		}
	}
	rt.envs = envs

	// 4. Deliver: multicasts reach every node (including the sender, so
	// quorum counting treats one's own vote uniformly); unicasts reach their
	// destination. Removed envelopes vanish.
	//
	// Under a non-lockstep network model, every surviving (envelope,
	// recipient) link is scheduled into a future round instead.
	if rt.lockstep {
		rt.lockstepDeliveries(envs)
	} else {
		rt.scheduleDeliveries(round, envs)
	}

	// Trace: watermark advance. The simulator's round boundary is the
	// deterministic counterpart of the live cluster's completed all-ack
	// barrier, where every node's acked watermark provably reaches
	// round+1 — so both runtimes emit one EvMark per node per round.
	if rt.tr.Enabled() {
		for i := 0; i < n; i++ {
			rt.tr.Mark(round, types.NodeID(i), round+1)
		}
	}
	return done
}

// stepShard advances every live node of shard k through the current round
// and wraps its sends into the shard's envelope slab. It is the pool's task
// body: it writes only shard-k state and per-node state of the shard's own
// nodes, reads only what the previous round's delivery left behind, and
// steps nodes in id order — the invariants the deterministic merge rests
// on.
//
// Communication complexity is accounted here, at send time, for messages
// sent by so-far-honest nodes (Definitions 6 and 7). That is the same rule
// as counting after the adversary's window: a slab envelope is never taken
// out of the list, only flagged, so a message erased by after-the-fact
// removal was still *sent* by an honest node and stays counted, and
// injected envelopes never enter a slab.
//
// Trace events are emitted here too; the recorder accepts concurrent Emit
// and canonicalises order at export, so the stream does not depend on the
// worker count.
func (rt *Runtime) stepShard(k int) {
	sh := &rt.shards[k]
	sh.slab = sh.slab[:0]
	sh.metrics = Metrics{}
	sh.done = true
	n, round := rt.cfg.N, rt.curRound
	traced := rt.tr.Enabled()
	for i := sh.lo; i < sh.hi; i++ {
		id := types.NodeID(i)
		if rt.isCorrupt(id) || rt.nodes[i].Halted() {
			continue
		}
		inbox := rt.inbox(round, id, &sh.merge)
		if traced {
			rt.tr.RoundStart(round, id)
			for di, d := range inbox {
				rt.tr.Deliver(round, id, di, d.From, wire.Size(d.Msg))
			}
		}
		for si, s := range rt.nodes[i].Step(round, inbox) {
			size := wire.Size(s.Msg)
			if traced {
				rt.tr.Send(round, id, si, s.To, size)
			}
			sh.metrics.CountSend(s.To, n, size)
			sh.slab = append(sh.slab, Envelope{From: id, To: s.To, Msg: s.Msg, size: size, honestSend: true})
		}
		halted := rt.nodes[i].Halted()
		if traced {
			// trDecided[i] is only ever touched by the shard owning i.
			if !rt.trDecided[i] {
				if bit, ok := rt.nodes[i].Output(); ok {
					rt.tr.Decide(round, id, bit)
					rt.trDecided[i] = true
				}
			}
			if halted {
				rt.tr.Halt(round, id)
			}
		}
		if !halted {
			sh.done = false
		}
	}
}

// honestAllHalted reports whether every so-far-honest node has halted.
func (rt *Runtime) honestAllHalted() bool {
	for i, nd := range rt.nodes {
		if !rt.isCorrupt(types.NodeID(i)) && !nd.Halted() {
			return false
		}
	}
	return true
}

// inbox returns what node id receives at the beginning of round: under the
// lockstep model the shared multicast list, with the node's extras merged in
// at their recorded positions when it has any (into *scratch, so the slice
// is valid only until the scratch is reused); otherwise the node's bucket of
// the delivery ring.
func (rt *Runtime) inbox(round int, id types.NodeID, scratch *[]Delivered) []Delivered {
	if !rt.lockstep {
		if rt.buckets == nil {
			return nil
		}
		return rt.buckets[round%len(rt.buckets)][id]
	}
	ex := rt.extras[id]
	if len(ex) == 0 {
		return rt.shared
	}
	buf := (*scratch)[:0]
	si := 0
	for _, en := range ex {
		buf = append(buf, rt.shared[si:en.at]...)
		si = en.at
		buf = append(buf, en.d)
	}
	buf = append(buf, rt.shared[si:]...)
	*scratch = buf
	return buf
}

// lockstepDeliveries is the ∆ = 1 path: everything sent this round is
// delivered at the beginning of the next.
//
// A multicast with no per-recipient removals is appended once to the shared
// list every inbox aliases, instead of copied into each of the n inboxes.
// Unicasts — and the rare multicast a strongly adaptive adversary erased for
// specific recipients — become per-recipient extras, tagged with their
// position so the merge in inbox reproduces the exact delivery order of the
// envelope list.
func (rt *Runtime) lockstepDeliveries(envs []*Envelope) {
	n := rt.cfg.N
	shared := rt.shared[:0]
	clear(rt.extras)
	extra := func(to types.NodeID, d Delivered) {
		rt.extras[to] = append(rt.extras[to], extraEntry{at: len(shared), d: d})
	}
	for _, e := range envs {
		if e.removed {
			continue
		}
		d := Delivered{From: e.From, Msg: e.Msg}
		if e.To == types.Broadcast {
			if len(e.removedFor) == 0 {
				shared = append(shared, d)
				continue
			}
			for j := 0; j < n; j++ {
				if !e.RemovedFor(types.NodeID(j)) {
					extra(types.NodeID(j), d)
				}
			}
		} else if int(e.To) >= 0 && int(e.To) < n {
			if !e.RemovedFor(e.To) {
				extra(e.To, d)
			}
		}
	}
	rt.shared = shared
}

// scheduleDeliveries is the general path: each surviving (envelope,
// recipient) link is put to the network model, power-checked, and appended
// to the delivery bucket of its assigned round. Buckets form a ring of ∆+1
// future rounds whose per-node lists are reused across laps, so the path is
// allocation-free in steady state like the lockstep one. The next round's
// inbox is whatever has accumulated in its slot: sends from this round
// scheduled at +1 together with earlier sends the model held back, in
// chronological send order (ties broken by envelope order).
func (rt *Runtime) scheduleDeliveries(round int, envs []*Envelope) {
	n := rt.cfg.N
	ring := rt.net.Delta() + 1
	if rt.buckets == nil {
		rt.buckets = make([][][]Delivered, ring)
		for i := range rt.buckets {
			rt.buckets[i] = make([][]Delivered, n)
		}
	}
	// Reclaim this round's slot: its deliveries were consumed by the Step
	// calls at the top of this round, and its ring position is about to be
	// reused for round+∆.
	cur := rt.buckets[round%ring]
	for i := range cur {
		cur[i] = cur[i][:0]
	}
	for _, e := range envs {
		if e.removed {
			continue
		}
		d := Delivered{From: e.From, Msg: e.Msg}
		if e.To == types.Broadcast {
			for j := 0; j < n; j++ {
				if !e.RemovedFor(types.NodeID(j)) {
					rt.scheduleLink(round, e, types.NodeID(j), d)
				}
			}
		} else if int(e.To) >= 0 && int(e.To) < n {
			if !e.RemovedFor(e.To) {
				rt.scheduleLink(round, e, e.To, d)
			}
		}
	}
}

// scheduleLink schedules one (envelope, recipient) link, enforcing the
// delivery-bound and power contract documented on NetModel.
func (rt *Runtime) scheduleLink(round int, e *Envelope, to types.NodeID, d Delivered) {
	delta := rt.net.Delta()
	delay := 1
	if e.From != to {
		delay = rt.net.Schedule(Link{
			Round:       round,
			From:        e.From,
			To:          to,
			HonestSend:  e.honestSend,
			FromCorrupt: rt.isCorrupt(e.From),
		})
		if delay == Drop {
			if rt.mayDrop(e) {
				if rt.tr.Enabled() {
					rt.traceFault(round, e.From, to)
				}
				return
			}
			// An illegal drop request degrades to the strongest legal move:
			// holding the honest message to the bound.
			delay = delta
		}
		if delay < 1 {
			delay = 1
		}
		if delay > delta {
			delay = delta
		}
	}
	slot := rt.buckets[(round+delay)%(delta+1)]
	slot[to] = append(slot[to], d)
}

// traceFault emits one accepted link drop. The per-(round, sender)
// sequence counter reproduces the live chaos endpoint's numbering: both
// runtimes inject faults in (send seq, recipient) order, so the streams
// align event for event at Δ=1.
func (rt *Runtime) traceFault(round int, from, to types.NodeID) {
	seq := rt.faultSeq[from]
	rt.faultSeq[from] = seq + 1
	kind := obs.FaultDrop
	if rt.faultKind != nil {
		kind = rt.faultKind.DropKind(round, from)
	}
	rt.tr.Fault(round, from, to, int(seq), kind)
}

// honestFaultyCount returns the number of omission-faulty senders that are
// not (yet) corrupt — the slice of the corruption budget the network model
// holds. Fault sets are small (≤ F) and corruption is rare, so recounting
// is cheaper than bookkeeping.
func (rt *Runtime) honestFaultyCount() int {
	n := 0
	for id, faulty := range rt.faulty {
		if faulty && !rt.isCorrupt(types.NodeID(id)) {
			n++
		}
	}
	return n
}

// mayDrop reports whether the network model is permitted to omit envelope
// e's message: omission-faulty senders, adversary-injected traffic, and —
// under strongly adaptive power only — messages whose sender was corrupted
// after speaking (the after-the-fact-removal boundary of Theorem 1).
func (rt *Runtime) mayDrop(e *Envelope) bool {
	if rt.faulty != nil && int(e.From) < len(rt.faulty) && rt.faulty[e.From] {
		return true
	}
	if !e.honestSend {
		return true
	}
	return rt.isCorrupt(e.From) && rt.adv.Power() == PowerStronglyAdaptive
}

func (rt *Runtime) collect(rounds int) *Result {
	n := rt.cfg.N
	res := &Result{
		Outputs: make([]types.Bit, n),
		Decided: make([]bool, n),
		Halted:  make([]bool, n),
		Corrupt: make([]bool, n),
		Rounds:  rounds,
		Metrics: rt.metrics,
	}
	if rt.faulty != nil {
		res.OmissionFaulty = append([]bool(nil), rt.faulty...)
	}
	for i := 0; i < n; i++ {
		bit, ok := rt.nodes[i].Output()
		if !ok {
			bit = types.NoBit
		}
		res.Outputs[i] = bit
		res.Decided[i] = ok
		res.Halted[i] = rt.nodes[i].Halted()
		res.Corrupt[i] = rt.isCorrupt(types.NodeID(i))
	}
	return res
}

// Metrics accounts communication complexity.
type Metrics struct {
	// HonestMulticasts and HonestMulticastBytes measure Definition 7
	// (multicast complexity): sends by so-far-honest nodes to everyone.
	HonestMulticasts     int
	HonestMulticastBytes int
	// HonestMessages and HonestMessageBytes measure Definition 6 (classical
	// complexity): a multicast counts as n pairwise messages.
	HonestMessages     int
	HonestMessageBytes int
}

// CountSend accounts one honest send of an encoded size in a network of n
// nodes, per Definitions 6 and 7: a multicast is one multicast plus n
// pairwise messages; a unicast is one pairwise message. Every accounting
// site — the lockstep engine, the live cluster runtime, and the
// equivalence tests — goes through this one rule so the definitions cannot
// drift apart.
func (m *Metrics) CountSend(to types.NodeID, n, size int) {
	if to == types.Broadcast {
		m.HonestMulticasts++
		m.HonestMulticastBytes += size
		m.HonestMessages += n
		m.HonestMessageBytes += n * size
	} else {
		m.HonestMessages++
		m.HonestMessageBytes += size
	}
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.HonestMulticasts += other.HonestMulticasts
	m.HonestMulticastBytes += other.HonestMulticastBytes
	m.HonestMessages += other.HonestMessages
	m.HonestMessageBytes += other.HonestMessageBytes
}

// EncodeTo appends the four counters to w in declaration order. The wire
// codec lives here, next to the counters, so cross-process exchange (the
// cluster runtime's result records) stays a Metrics concern rather than a
// second accounting path in a far-away package.
func (m *Metrics) EncodeTo(w *wire.Writer) {
	w.U64(uint64(m.HonestMulticasts))
	w.U64(uint64(m.HonestMulticastBytes))
	w.U64(uint64(m.HonestMessages))
	w.U64(uint64(m.HonestMessageBytes))
}

// DecodeFrom reads the counters written by EncodeTo; decoding errors
// surface through r's sticky error. A counter above this platform's largest
// int fails the reader instead of wrapping into a wrong total.
func (m *Metrics) DecodeFrom(r *wire.Reader) {
	m.HonestMulticasts = readCount(r)
	m.HonestMulticastBytes = readCount(r)
	m.HonestMessages = readCount(r)
	m.HonestMessageBytes = readCount(r)
}

func readCount(r *wire.Reader) int {
	v := r.U64()
	r.Expect(v <= math.MaxInt, "metrics counter exceeds the platform int")
	return int(v)
}
