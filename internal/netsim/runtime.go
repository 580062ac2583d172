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
	// holds no n-sized state (DESIGN.md §6): a passive adversary (no status
	// arrays), under any net model. It selects nothing, but NewRuntime fails
	// closed with ErrSparseAdversary instead of building that state for a
	// caller who sized the run on its absence.
	Sparse bool
	// Screen, when non-nil, is the protocol's recipient-independent check
	// of a delivery — the public ticket verification that every recipient
	// of a multicast would otherwise repeat (DESIGN.md §6). Its answer must
	// depend only on (from, msg), never on who receives it or when in the
	// round it is asked. At the start of every round the engine runs it
	// once per shared delivery, serially, and records the verdict in the
	// Delivered every inbox aliases (Delivered.Screened); the shards only
	// read it. Nil screens nothing: every node checks every delivery.
	Screen Screen
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

// Screen is a protocol's recipient-independent check of one delivery; see
// Config.Screen.
type Screen func(from types.NodeID, msg wire.Message) bool

// ErrSparseAdversary is NewRuntime's refusal of Config.Sparse.
var ErrSparseAdversary = errors.New("netsim: Sparse requires a passive adversary (any other needs per-node corruption state)")

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
// decide bitmap only under a tracer; the delivery ring holds a multicast as
// one entry under every net model. The engine is allocation-free in steady
// state: slabs, the envelope list and the ring's lists every inbox aliases
// are reused across rounds. Consequently envelopes and inbox slices are
// only valid during the round they belong to — adversaries and nodes must
// not retain them across rounds (no strategy in this repository does).
type Runtime struct {
	cfg     Config
	nodes   []Node
	adv     Adversary
	metrics Metrics

	// status is nil under the Passive adversary: nobody can corrupt, so
	// every node is forever honest and no window is opened.
	status []types.Status

	net    NetModel
	delta  int    // the model's delivery bound ∆
	faulty []bool // omission-faulty senders declared by the model, nil if none

	shards []shard
	pool   *harness.Pool // steps the shards; nil when there is one

	// envs is the adversary-visible envelope list of the current round:
	// pointers into the shard slabs, plus heap envelopes for injections.
	envs []*Envelope

	// ring holds what arrives in the next ∆ rounds: slot r mod ∆ is round
	// r's. deliver reclaims round r's slot once it is consumed, for round
	// r+∆, and fills the slots of rounds r+1..r+∆; the shards only read.
	ring []slot
	cur  int // ring index of curRound's slot

	// Trace state, allocated only when Config.Tracer is set. trDecided
	// deduplicates EvDecide to the transition round; faultSeq counts
	// injected faults per sender within the current round.
	tr        obs.Sink
	trDecided []bool
	faultSeq  map[types.NodeID]uint32

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

// slot is one round's inbox state in send order (send round, then envelope
// order): the multicasts every inbox aliases, cuts withholding some of them
// from some recipients, and the deliveries meant for one recipient alone.
type slot struct {
	shared []Delivered
	cuts   []cut // ascending by at
	extras map[types.NodeID][]extraEntry
	arena  []uint64 // backs the cuts' bitsets, reused across laps
	open   []uint64 // bitset of the multicast deliverLinks is scheduling
}

// cut withholds shared[at] from each recipient whose bit in bits is clear,
// or, with bits nil, from skip alone: the sender of a held multicast.
type cut struct {
	at   int
	skip types.NodeID
	bits []uint64
}

func (c *cut) withholds(id types.NodeID) bool {
	if c.bits == nil {
		return id == c.skip
	}
	return c.bits[uint(id)/64]&(1<<(uint(id)%64)) == 0
}

// extraEntry is a delivery that applies to a single recipient: a unicast, or
// a held multicast's copy to its sender. at is the number of shared
// deliveries preceding it, so merging reproduces exact envelope order.
type extraEntry struct {
	at int
	d  Delivered
}

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
	delta, faulty, err := cfg.Net.Validate(cfg.N, cfg.F)
	if err != nil {
		return nil, err
	}
	_, passive := adv.(Passive)
	if cfg.Sparse && !passive {
		return nil, ErrSparseAdversary
	}
	rt := &Runtime{
		cfg:    cfg,
		nodes:  nodes,
		adv:    adv,
		net:    cfg.Net,
		delta:  delta,
		faulty: faulty,
		shards: carveShards(cfg.N, workers),
		ring:   make([]slot, delta),
		tr:     obs.NewSink(cfg.Tracer),
	}
	if !passive {
		rt.status = make([]types.Status, cfg.N)
		for i := range rt.status {
			rt.status[i] = types.Honest
		}
	}
	if cfg.Tracer != nil {
		rt.trDecided = make([]bool, cfg.N)
		rt.faultSeq = make(map[types.NodeID]uint32)
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
	// shard by shard, after the round's shared deliveries are screened once
	// for all of them.
	rt.curRound, rt.cur = round, round%len(rt.ring)
	if rt.cfg.Screen != nil {
		rt.screen(rt.slotAt(0).shared)
	}
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
	// destination, each in the round the network model assigns. Removed
	// envelopes vanish.
	rt.deliver(round, envs)

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
		inbox := rt.inbox(id, &sh.merge)
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

// screen records Config.Screen's verdict on each shared delivery of the
// round, before any shard reads them.
func (rt *Runtime) screen(shared []Delivered) {
	for i := range shared {
		d := &shared[i]
		d.screen = screenFail
		if rt.cfg.Screen(d.From, d.Msg) {
			d.screen = screenPass
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

// inbox returns what node id receives at the beginning of the current
// round: the slot's shared list, aliased, unless the slot has an extra for
// id or a cut that withholds an entry from it; then the merge of the two at
// their recorded positions, into *scratch (so the slice is valid only until
// the scratch is reused).
func (rt *Runtime) inbox(id types.NodeID, scratch *[]Delivered) []Delivered {
	s := rt.slotAt(0)
	ex, ci := s.extras[id], 0
	for ci < len(s.cuts) && !s.cuts[ci].withholds(id) {
		ci++
	}
	if len(ex) == 0 && ci == len(s.cuts) {
		return s.shared
	}
	buf := (*scratch)[:0]
	for i, d := range s.shared {
		for ; len(ex) > 0 && ex[0].at == i; ex = ex[1:] {
			buf = append(buf, ex[0].d)
		}
		if ci < len(s.cuts) && s.cuts[ci].at == i {
			if ci++; s.cuts[ci-1].withholds(id) {
				continue
			}
		}
		buf = append(buf, d)
	}
	for _, en := range ex {
		buf = append(buf, en.d)
	}
	*scratch = buf
	return buf
}

// slotAt returns the slot of the round delay ∈ [0, ∆] after the current one.
func (rt *Runtime) slotAt(delay int) *slot {
	i := rt.cur + delay
	if i >= len(rt.ring) {
		i -= len(rt.ring)
	}
	return &rt.ring[i]
}

func (s *slot) extra(to types.NodeID, d Delivered) {
	if s.extras == nil {
		s.extras = make(map[types.NodeID][]extraEntry)
	}
	s.extras[to] = append(s.extras[to], extraEntry{at: len(s.shared), d: d})
}

// deliver reclaims the round's consumed slot for round+∆ and files the
// surviving envelopes. A multicast from a Uniform sender, erased for nobody,
// is one shared entry in the slot of its delay; past the next round, a cut
// withholds it from its sender, whose own copy is an extra there. Any other
// multicast is decided link by link: one shared entry per slot its links
// land in, cut by a bitset of their recipients. A unicast is an extra.
func (rt *Runtime) deliver(round int, envs []*Envelope) {
	cur := rt.slotAt(0)
	cur.shared, cur.cuts, cur.arena = cur.shared[:0], cur.cuts[:0], cur.arena[:0]
	clear(cur.extras)
	for _, e := range envs {
		if e.removed {
			continue
		}
		d := Delivered{From: e.From, Msg: e.Msg}
		if e.To != types.Broadcast {
			if int(e.To) >= 0 && int(e.To) < rt.cfg.N && !e.RemovedFor(e.To) {
				if delay := rt.linkDelay(round, e, e.To); delay > 0 {
					rt.slotAt(delay).extra(e.To, d)
				}
			}
			continue
		}
		delay, ok := rt.net.Uniform(round, e.From)
		if !ok || len(e.removedFor) > 0 {
			rt.deliverLinks(round, e, d)
			continue
		}
		delay = min(max(delay, 1), rt.delta)
		s := rt.slotAt(delay)
		s.shared = append(s.shared, d)
		if delay > 1 {
			s.cuts = append(s.cuts, cut{at: len(s.shared) - 1, skip: e.From})
			rt.slotAt(1).extra(e.From, d)
		}
	}
}

// deliverLinks schedules a multicast link by link, in recipient order.
func (rt *Runtime) deliverLinks(round int, e *Envelope, d Delivered) {
	for i := range rt.ring {
		rt.ring[i].open = nil
	}
	n := rt.cfg.N
	for j := 0; j < n; j++ {
		if e.RemovedFor(types.NodeID(j)) {
			continue
		}
		delay := rt.linkDelay(round, e, types.NodeID(j))
		if delay == 0 {
			continue
		}
		s := rt.slotAt(delay)
		if s.open == nil {
			s.arena = append(s.arena, make([]uint64, (n+63)/64)...)
			s.open = s.arena[len(s.arena)-(n+63)/64:]
			s.shared = append(s.shared, d)
			s.cuts = append(s.cuts, cut{at: len(s.shared) - 1, bits: s.open})
		}
		s.open[j/64] |= 1 << (j % 64)
	}
}

// linkDelay decides one (envelope, recipient) link, enforcing the
// delivery-bound and power contract documented on NetModel. It returns 0
// for an accepted drop.
func (rt *Runtime) linkDelay(round int, e *Envelope, to types.NodeID) int {
	if e.From == to {
		return 1
	}
	delay, kind := rt.net.Decide(round, e.From, to)
	if delay == Drop {
		if rt.mayDrop(e) {
			if rt.tr.Enabled() {
				rt.traceFault(round, e.From, to, kind)
			}
			return 0
		}
		// An illegal drop request degrades to the strongest legal move:
		// holding the honest message to the bound.
		delay = rt.delta
	}
	return min(max(delay, 1), rt.delta)
}

// traceFault emits one accepted link drop. The per-(round, sender)
// sequence counter is the live sender's numbering too: both runtimes
// decide a sender's links in (send seq, recipient) order, so the streams
// align event for event.
func (rt *Runtime) traceFault(round int, from, to types.NodeID, kind obs.FaultKind) {
	seq := rt.faultSeq[from]
	rt.faultSeq[from] = seq + 1
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
