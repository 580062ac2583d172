package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"ccba/internal/attest"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Domain separates this protocol's mining tags.
const Domain = "core"

// Mining tag types.
const (
	TagStatus    uint8 = 1
	TagPropose   uint8 = 2
	TagVote      uint8 = 3
	TagCommit    uint8 = 4
	TagTerminate uint8 = 5
)

// Probabilities returns the difficulty schedule of Appendix C.2: proposals
// at 1/(2n), every other message type at λ/n. Terminate tickets are not
// iteration-specific, matching the paper's mine(i, Terminate, b).
func Probabilities(n, lambda int) fmine.ProbFunc {
	return func(t fmine.Tag) float64 {
		if t.Domain != Domain {
			return 0
		}
		switch t.Type {
		case TagPropose:
			return fmine.LeaderProb(n)
		case TagStatus, TagVote, TagCommit, TagTerminate:
			return fmine.CommitteeProb(n, lambda)
		default:
			return 0
		}
	}
}

// VoteTag is the mining tag of an iteration-r vote for b.
func VoteTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagVote, Iter: iter, Bit: b}
}

// StatusTag is the mining tag of an iteration-r status for b.
func StatusTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagStatus, Iter: iter, Bit: b}
}

// ProposeTag is the mining tag of an iteration-r proposal for b.
func ProposeTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagPropose, Iter: iter, Bit: b}
}

// CommitTag is the mining tag of an iteration-r commit for b.
func CommitTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagCommit, Iter: iter, Bit: b}
}

// TerminateTag is the mining tag of a terminate message for b.
func TerminateTag(b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagTerminate, Bit: b}
}

// Config parameterises one node.
type Config struct {
	// N is the number of nodes; F the corruption bound, F < (1/2 − ε)N.
	N, F int
	// Lambda is the expected committee size, ω(log κ) in the paper.
	Lambda int
	// MaxIters bounds the number of iterations before giving up (the paper
	// runs λ iterations; a good iteration ends the protocol much earlier in
	// expectation).
	MaxIters int
	// Suite provides eligibility election (F_mine or the VRF compiler).
	Suite fmine.Suite
	// Lockstep states a fact about the run's delivery, not a storage
	// choice: every message arrives exactly one round after it was sent,
	// and no adversary injects (the paper's Δ = 1 model with a passive
	// adversary). An iteration-I vote or commit then arrives while the node
	// executes iteration I or I+1, so once traffic for iteration I+2 has
	// arrived, iteration I can receive nothing more and its sets are
	// recycled: a node holds two iterations however many it runs. The
	// second is a margin no run reaches: under the fact all of iteration
	// I's votes arrive in its commit round and all its commits in the next
	// status round, and the node reads each set only in the round it
	// fills, so no run would change if iteration I were recycled as soon
	// as iteration I+1's traffic arrives. Without the fact the node keeps
	// every iteration, exact under any schedule and adversary (DESIGN.md
	// §6).
	Lockstep bool
	// Intern, when non-nil, is a per-run intern table shared by every node
	// of the execution: all attestation sets bind to it, so nodes with
	// identical add-histories (every forever-honest node under the passive
	// lockstep schedule) share one copy-on-divergence backing array instead
	// of holding per-node state (DESIGN.md §6). The nodes of a Run on it
	// also start in one state class (see class), so nodes handed the
	// round's shared list share one ingest of it. Every scenario build
	// sets it; nil (owned sets, every node ingesting for itself) is the
	// reference the tests compare against. Behaviour is bit-identical
	// either way, at any worker count and under any adversary; only storage
	// and the work of ingesting change.
	Intern *attest.Interner
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 || c.F < 0 || 2*c.F >= c.N {
		return fmt.Errorf("core: need f < n/2, got n=%d f=%d", c.N, c.F)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("core: lambda=%d", c.Lambda)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("core: maxIters=%d", c.MaxIters)
	}
	if c.Suite == nil {
		return fmt.Errorf("core: eligibility suite required")
	}
	return nil
}

// Threshold is the quorum size: ⌈λ/2⌉ distinct tickets.
func (c Config) Threshold() int { return (c.Lambda + 1) / 2 }

// Rounds returns a safe round bound for MaxIters iterations plus the
// terminate relay.
func (c Config) Rounds() int { return 4*c.MaxIters + 2 }

// Phase identifies the role of a round within its iteration.
type Phase uint8

// Iteration phases, in round order.
const (
	PhaseStatus Phase = iota + 1
	PhasePropose
	PhaseVote
	PhaseCommit
)

// PhaseOf maps a global round number to (iteration, phase); the layout is
// identical to the quadratic protocol's (iteration 1 = rounds 0–1).
func PhaseOf(round int) (uint32, Phase) {
	if round < 2 {
		return 1, PhaseVote + Phase(round)
	}
	q, rem := (round-2)/4, (round-2)%4
	return uint32(q + 2), PhaseStatus + Phase(rem)
}

// iterSets is one window slot: the per-bit attestation sets of one
// iteration. Iteration 0 carries no traffic, so it marks a free slot.
type iterSets struct {
	iter uint32
	sets [2]attest.Set
}

// window is one collection's attestation sets (the votes or the commits),
// keyed by iteration. It holds two inline slots, their iterations kept apart
// from their sets so that no slot pads, until a new iteration finds none it
// may recycle (see Config.Lockstep); then grown takes over every slot.
type window struct {
	iters  [2]uint32
	inline [2][2]attest.Set
	grown  []iterSets
}

// len is the number of slots w holds.
func (w *window) len() int {
	if w.grown != nil {
		return len(w.grown)
	}
	return len(w.inline)
}

// at returns slot i's iteration and sets.
func (w *window) at(i int) (*uint32, *[2]attest.Set) {
	if w.grown != nil {
		return &w.grown[i].iter, &w.grown[i].sets
	}
	return &w.iters[i], &w.inline[i]
}

// held returns the sets w holds for iter, or nil: a lookup that, unlike
// slot, never takes or grows a slot.
func (w *window) held(iter uint32) *[2]attest.Set {
	for i := range w.len() {
		if it, sets := w.at(i); *it == iter {
			return sets
		}
	}
	return nil
}

// proposal is a received, validated leader proposal for iteration iter. hash
// is the SHA-256 of its ticket, which orders the proposals for one bit
// (proposalLess).
type proposal struct {
	leader types.NodeID
	iter   uint32
	cert   attest.Certificate
	elig   []byte
	hash   [sha256.Size]byte
}

// Run is what every node of one execution reads: the validated Config, the
// suite's Verifier, the node slab, the class the nodes start in and the
// nodes' own states. A node holds a pointer to its run instead of a copy
// (DESIGN.md §6).
type Run struct {
	Config
	verif fmine.Verifier
	// nodes is the node slab: node id is nodes[id].
	nodes []Node
	// root is the state class every node starts in, on the initial state;
	// nil without Config.Intern.
	root *class
	// own is the directory of the nodes' own states, one chunk per
	// ownChunkLen consecutive ids, each allocated the first time one of
	// its nodes needs one: at construction when the nodes start without a
	// class, else when the node leaves its class. A run whose nodes stay in
	// their classes allocates no chunk. ownMu guards the directory.
	own   [][]state
	ownMu sync.Mutex
}

// ownChunkLen is how many consecutive ids share one chunk of own states.
const ownChunkLen = 64

// NewRun validates cfg into the value one execution's nodes share.
func NewRun(cfg Config) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Run{
		Config: cfg, verif: cfg.Suite.Verifier(), nodes: make([]Node, cfg.N),
		own: make([][]state, (cfg.N+ownChunkLen-1)/ownChunkLen),
	}
	if cfg.Intern != nil {
		r.root = new(class)
		r.root.init(cfg.Intern.Hits())
	}
	return r, nil
}

// Node constructs node id ∈ [0, N) with the given input bit, in its place
// of the run's node slab. With Config.Intern set it starts in the run's one
// state class, on the initial state, and gets its own state only when it
// leaves it; without, it starts on its own state. Each id is built at most
// once, and distinct ids may be built concurrently: core-broadcast builds a
// node from the shard that steps it, once its input has arrived.
func (r *Run) Node(id types.NodeID, input types.Bit) (*Node, error) {
	if !input.Valid() {
		return nil, fmt.Errorf("core: invalid input %v", input)
	}
	n := &r.nodes[id]
	n.cfg, n.id, n.input, n.hits = r, id, input, r.Intern.Hits()
	if r.root == nil {
		n.st = r.ownState(id)
		n.st.init(n.hits)
	} else {
		n.st, n.class = &r.root.state, r.root
	}
	return n, nil
}

// ownState returns node id's own state, allocating its chunk on first use
// (the last chunk holds only the ids left over); safe for concurrent use.
func (r *Run) ownState(id types.NodeID) *state {
	c := int(id) / ownChunkLen
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	if r.own[c] == nil {
		r.own[c] = make([]state, min(ownChunkLen, r.N-c*ownChunkLen))
	}
	return &r.own[c][int(id)%ownChunkLen]
}

// state is everything ingest writes: what a node has learnt from its
// deliveries, as opposed to who it is (Node) and what it has output.
type state struct {
	bestCert [2]attest.Certificate
	votes    window
	commits  window

	// Proposals for one iteration (propIter), keyed by bit; among valid
	// proposals for the same bit the lowest ticket hash wins, so all honest
	// nodes that saw the same messages follow the same leader.
	proposals [2]*proposal

	terminate *TerminateMsg
}

// init makes a zero st the initial state: both windows on their inline
// slots, every set bound to h.
func (st *state) init(h attest.Hits) {
	for _, w := range []*window{&st.votes, &st.commits} {
		for i := range w.inline {
			bindPair(&w.inline[i], h)
		}
	}
}

// bindPair binds both bit-slots of a per-iteration set pair to h: to the
// run's intern table and a node's hit block, or not at all when the node
// runs on owned sets.
func bindPair(sets *[2]attest.Set, h attest.Hits) {
	for i := range sets {
		sets[i].BindTo(h)
	}
}

// class is a state class: a frozen state that every node of the class reads
// through Node.st, and the one transition recorded out of it (DESIGN.md
// §6). ingest is a pure function of the state and the delivery, so nodes
// that hold equal states and are handed the same list reach equal states;
// the class computes that successor once, and its other members rebind to
// it. Nothing writes a class's state once next can reach it: a member that
// must ingest anything else first forks the state into its own (leave).
type class struct {
	state
	// round is the round whose shared list led to this state, from the
	// slice the state was computed from, and adds the successful Adds of
	// that ingest, which each rebinding member counts as hits.
	round int
	from  []netsim.Delivered
	adds  int64
	// next is the successor for round next.round, published once
	// complete; mu serialises computing it.
	next atomic.Pointer[class]
	mu   sync.Mutex
}

// Node is one participant's state machine. It holds no state of its own
// until it needs one: a node in a class reads the class's, and mines
// through the run's suite, whose miners allocate nothing per call.
type Node struct {
	cfg *Run
	// st is the state the node reads: its own, or its class's frozen state.
	st    *state
	class *class // nil once the node holds its own state
	// hits is the node's place on Config.Intern's hit blocks: every set the
	// node owns counts on it, the grown and forked ones bound lazily from
	// Step, so all of its hits count on one block whichever shard steps it
	// (DESIGN.md §6).
	hits  attest.Hits
	id    types.NodeID
	input types.Bit

	out     types.Bit
	decided bool
	halted  bool
}

// NewNodes constructs all n state machines for one execution: one Run, and
// each node of it.
func NewNodes(cfg Config, inputs []types.Bit) ([]netsim.Node, error) {
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("core: %d inputs for n=%d", len(inputs), cfg.N)
	}
	r, err := NewRun(cfg)
	if err != nil {
		return nil, err
	}
	nodes := make([]netsim.Node, cfg.N)
	for i, input := range inputs {
		n, err := r.Node(types.NodeID(i), input)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

// fork makes dst a copy of src that the node may write: the windows are
// rebased onto dst's own slots, and every set counts its hits on the node's
// hit block. Certificates, proposals and the terminate message are immutable
// once built, so they are shared, not copied.
func (n *Node) fork(dst, src *state) {
	dst.bestCert, dst.proposals, dst.terminate = src.bestCert, src.proposals, src.terminate
	n.forkWindow(&dst.votes, &src.votes)
	n.forkWindow(&dst.commits, &src.commits)
}

func (n *Node) forkWindow(dst, src *window) {
	if src.grown != nil {
		dst.grown = make([]iterSets, len(src.grown))
	}
	for i := range src.len() {
		dIter, dSets := dst.at(i)
		sIter, sSets := src.at(i)
		*dIter = *sIter
		for b := range dSets {
			dSets[b].Copy(&sSets[b], n.hits)
		}
	}
}

// leave takes the node out of its class onto its own copy of the class's
// state (Run.ownState), before the node ingests anything but the list its
// class follows.
func (n *Node) leave() {
	own := n.cfg.ownState(n.id)
	n.fork(own, n.st)
	n.st, n.class = own, nil
}

// follow moves a class member along its round's inbox, or reports that the
// member left its class instead and must ingest the inbox alone. An empty
// inbox changes nothing. An inbox the engine marked as the round's shared
// list (netsim.SharedList) takes the member to its class's successor for
// the round: the first marked arrival computes it and records the slice it
// came from, and the others rebind to it, counting the Adds of that ingest
// as hits, if they hold that very slice. Any other inbox may hold anything
// — an unmarked one, or a copy, a sub-slice or a reused buffer of a marked
// one — so the member leaves. So the ingest runs once per (class, round) at
// any worker count, the table's counters stay what n separate ingests would
// have made them, and a wrapper that hands its node another slice loses
// the sharing but never changes a state.
func (n *Node) follow(round int, delivered []netsim.Delivered) bool {
	if len(delivered) == 0 {
		return true
	}
	if !netsim.SharedList(delivered) {
		n.leave()
		return false
	}
	if next := n.class.next.Load(); next != nil && next.round == round {
		return n.adopt(next, delivered)
	}
	return n.successor(round, delivered)
}

// successor moves the node along delivered under its class's lock: to the
// successor another member recorded for round since follow looked, or to
// one the node computes from delivered into a fresh state and records.
func (n *Node) successor(round int, delivered []netsim.Delivered) bool {
	c := n.class
	c.mu.Lock()
	defer c.mu.Unlock()
	if next := c.next.Load(); next != nil && next.round == round {
		return n.adopt(next, delivered)
	}
	next := &class{round: round, from: delivered}
	n.fork(&next.state, &c.state)
	n.st, n.class = &next.state, next
	next.adds = n.ingest(delivered)
	c.next.Store(next)
	return true
}

// adopt rebinds the node to next, its class's successor for the round, if
// next was computed from delivered itself: the same first element and the
// same length. Otherwise the node leaves its class.
func (n *Node) adopt(next *class, delivered []netsim.Delivered) bool {
	if &next.from[0] != &delivered[0] || len(next.from) != len(delivered) {
		n.leave()
		return false
	}
	n.hits.Count(next.adds)
	n.st, n.class = &next.state, next
	return true
}

var _ netsim.Node = (*Node)(nil)

// Output implements netsim.Node.
func (n *Node) Output() (types.Bit, bool) { return n.out, n.decided }

// Halted implements netsim.Node.
func (n *Node) Halted() bool { return n.halted }

// Step implements netsim.Node. A node in a class follows it when it can,
// and otherwise ingests its inbox alone.
func (n *Node) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if n.halted {
		return nil
	}
	if n.class == nil || !n.follow(round, delivered) {
		n.ingest(delivered)
	}
	return n.act(round)
}

// mine is the node's mining attempt, through the run's suite.
func (n *Node) mine(tag fmine.Tag) ([]byte, bool) { return n.cfg.Suite.Miner(n.id).Mine(tag) }

// act is the node's part of the round once its deliveries are ingested.
func (n *Node) act(round int) []netsim.Send {
	// Terminate step (⋆): output, conditionally relay, halt.
	if n.st.terminate != nil {
		msg := *n.st.terminate
		n.out = msg.B
		n.decided = true
		n.halted = true
		if proof, ok := n.mine(TerminateTag(msg.B)); ok {
			msg.Elig = proof
			return []netsim.Send{netsim.Multicast(msg)}
		}
		return nil
	}

	iter, phase := PhaseOf(round)
	if int(iter) > n.cfg.MaxIters {
		return nil // out of iterations; keep listening for Terminate
	}
	switch phase {
	case PhaseStatus:
		return n.statusRound(iter)
	case PhasePropose:
		return n.proposeRound(iter)
	case PhaseVote:
		return n.voteRound(iter)
	case PhaseCommit:
		return n.commitRound(iter)
	default:
		return nil
	}
}

// verifyVoteAtt returns a VerifyFunc for vote tickets of (iter, b).
func (n *Node) verifyVoteAtt(iter uint32, b types.Bit) attest.VerifyFunc {
	tag := VoteTag(iter, b)
	return func(id types.NodeID, proof []byte) bool {
		return n.cfg.verif.Verify(tag, id, proof)
	}
}

// verifyCommitAtt returns a VerifyFunc for commit tickets of (iter, b).
func (n *Node) verifyCommitAtt(iter uint32, b types.Bit) attest.VerifyFunc {
	tag := CommitTag(iter, b)
	return func(id types.NodeID, proof []byte) bool {
		return n.cfg.verif.Verify(tag, id, proof)
	}
}

// absorbCert validates a received certificate for bit b and keeps it if it
// outranks the best known. A certificate whose rank does not exceed the best
// known rank for the same bit is accepted without re-verification: the node
// already holds a genuine certificate of at least that rank for b, so any
// decision gated on "a rank-≥r certificate for b exists" is substantively
// justified whether or not the attached copy is well-formed.
func (n *Node) absorbCert(c attest.Certificate, b types.Bit) bool {
	if c.Empty() {
		return true
	}
	if c.Bit != b || !b.Valid() {
		return false
	}
	if c.Rank() <= n.st.bestCert[b].Rank() {
		return true
	}
	if !c.Verify(n.cfg.Threshold(), n.verifyVoteAtt(c.Iter, c.Bit)) {
		return false
	}
	n.st.bestCert[b] = c
	return true
}

func (n *Node) voteSet(iter uint32) *[2]attest.Set { return n.slot(&n.st.votes, iter) }

func (n *Node) commitSet(iter uint32) *[2]attest.Set { return n.slot(&n.st.commits, iter) }

// slot resolves an iteration's attestation sets in window w. An iteration
// without a slot takes a free one or, under Config.Lockstep, one whose
// iteration is older than the one before iter — traffic for iter means
// the node executes iteration iter or later, so that iteration can receive
// nothing more. (Under the lockstep fact the one before iter is finished
// too, so recycling at s.iter < iter would change no run; the second
// inline slot that the rule takes is a margin, see Config.Lockstep.) Only
// when no slot qualifies does the window grow: traffic is always kept,
// never discarded. Certificates cut from a recycled slot are unaffected:
// Attestations() copies or aliases immutable state.
func (n *Node) slot(w *window, iter uint32) *[2]attest.Set {
	free := -1
	for i := range w.len() {
		it, sets := w.at(i)
		if *it == iter {
			return sets
		}
		if free < 0 && (*it == 0 || n.cfg.Lockstep && *it+1 < iter) {
			free = i
		}
	}
	if free < 0 {
		if w.grown == nil {
			w.grown = make([]iterSets, len(w.inline), 2*len(w.inline))
			for i := range w.inline {
				w.grown[i] = iterSets{w.iters[i], w.inline[i]}
			}
		}
		free = len(w.grown)
		w.grown = append(w.grown, iterSets{})
		bindPair(&w.grown[free].sets, n.hits)
	}
	it, sets := w.at(free)
	*it = iter
	sets[0].Reset()
	sets[1].Reset()
	return sets
}

// Screen returns core's netsim.Config.Screen over verifier v: the tickets
// check every ingest path opens with, which depends only on the delivery,
// so the round engine can run it once per multicast instead of once per
// recipient. What stays with each node is everything that depends on its
// state: certificates (absorbCert, a terminate's commits), the proposal a
// node follows, and the attestation sets.
func Screen(v fmine.Verifier) netsim.Screen {
	return func(from types.NodeID, msg wire.Message) bool { return tickets(v, from, msg) }
}

// tickets is the recipient-independent prefix of every ingest path: bit
// validity, a nonzero iteration where the type has one, the sender's
// eligibility ticket, and a vote's leader-proposal ticket. A terminate
// message is judged by its commits alone (see ingestTerminate), so its
// prefix checks only the fields. Messages of other protocols pass: core
// ignores them anyway.
func tickets(v fmine.Verifier, from types.NodeID, msg wire.Message) bool {
	switch m := msg.(type) {
	case StatusMsg:
		return m.B.Valid() && v.Verify(StatusTag(m.Iter, m.B), from, m.Elig)
	case ProposeMsg:
		return m.B.Valid() && v.Verify(ProposeTag(m.Iter, m.B), from, m.Elig)
	case VoteMsg:
		// Votes after iteration 1 count only with a provably eligible
		// leader's proposal for the same bit attached.
		return m.B.Valid() && m.Iter != 0 &&
			v.Verify(VoteTag(m.Iter, m.B), from, m.Elig) &&
			(m.Iter == 1 || v.Verify(ProposeTag(m.Iter, m.B), m.Leader, m.LeaderElig))
	case CommitMsg:
		return m.B.Valid() && m.Iter != 0 && v.Verify(CommitTag(m.Iter, m.B), from, m.Elig)
	case TerminateMsg:
		return m.B.Valid() && m.Iter != 0
	default:
		return true
	}
}

// ingest applies a round's deliveries to the state the node reads, trusting
// the engine's screen verdict where there is one and checking tickets itself
// everywhere else. It returns how many attestations it added, which a state
// class's other members count as hits (follow).
func (n *Node) ingest(delivered []netsim.Delivered) (adds int64) {
	for _, d := range delivered {
		if pass, known := d.Screened(); known {
			if !pass {
				continue
			}
		} else if !tickets(n.cfg.verif, d.From, d.Msg) {
			continue
		}
		switch m := d.Msg.(type) {
		case StatusMsg:
			n.absorbCert(m.Cert, m.B)
		case ProposeMsg:
			n.ingestPropose(d.From, m)
		case VoteMsg:
			if n.ingestVote(d.From, m) {
				adds++
			}
		case CommitMsg:
			if n.ingestCommit(d.From, m) {
				adds++
			}
		case TerminateMsg:
			n.ingestTerminate(m)
		}
	}
	return adds
}

// The ingest functions take messages that passed tickets.

func (n *Node) ingestPropose(from types.NodeID, m ProposeMsg) {
	if !n.absorbCert(m.Cert, m.B) {
		return
	}
	if n.st.propIter() != m.Iter {
		n.st.proposals = [2]*proposal{}
	}
	hash := sha256.Sum256(m.Elig)
	if cur := n.st.proposals[m.B]; cur == nil || proposalLess(hash, cur) {
		n.st.proposals[m.B] = &proposal{leader: from, iter: m.Iter, cert: m.Cert, elig: m.Elig, hash: hash}
	}
}

// propIter is the iteration of the proposals st holds, 0 while it holds
// none: a proposal for another iteration clears them all.
func (st *state) propIter() uint32 {
	for _, p := range st.proposals {
		if p != nil {
			return p.iter
		}
	}
	return 0
}

// proposalLess reports whether a proposal whose ticket hashes to hash
// outranks p. Proposals for the same bit are ordered by ticket hash so all
// honest nodes converge on the same representative.
func proposalLess(hash [sha256.Size]byte, p *proposal) bool {
	return bytes.Compare(hash[:], p.hash[:]) < 0
}

// ingestVote and ingestCommit report whether the attestation was new.

func (n *Node) ingestVote(from types.NodeID, m VoteMsg) bool {
	set := n.voteSet(m.Iter)
	added := set[m.B].Add(from, m.Elig)
	// ⌈λ/2⌉ votes for the same (iter, bit) form a certificate.
	if set[m.B].Count() >= n.cfg.Threshold() && m.Iter > n.st.bestCert[m.B].Rank() {
		n.st.bestCert[m.B] = attest.Certificate{Iter: m.Iter, Bit: m.B, Atts: set[m.B].Attestations()}
	}
	return added
}

func (n *Node) ingestCommit(from types.NodeID, m CommitMsg) bool {
	if m.Cert.Iter == m.Iter && m.Cert.Bit == m.B {
		n.absorbCert(m.Cert, m.B)
	}
	set := n.commitSet(m.Iter)
	added := set[m.B].Add(from, m.Elig)
	if set[m.B].Count() >= n.cfg.Threshold() && n.st.terminate == nil {
		n.st.terminate = &TerminateMsg{Iter: m.Iter, B: m.B, Commits: set[m.B].Attestations()}
	}
	return added
}

func (n *Node) ingestTerminate(m TerminateMsg) {
	if n.st.terminate != nil {
		return
	}
	// The relayed message must itself carry a valid terminate ticket? No:
	// the paper's ⋆ step lets *any* node act on f+1 (here ⌈λ/2⌉) commit
	// messages, however delivered; the attached commits are the
	// justification. The Elig field on the arriving message is checked by
	// the runtime's receivers only for complexity accounting of the sender;
	// safety rests solely on the commit attestations below.
	if !attest.VerifyAll(m.Commits, n.cfg.Threshold(), n.verifyCommitAtt(m.Iter, m.B)) {
		return
	}
	n.st.terminate = &TerminateMsg{Iter: m.Iter, B: m.B, Commits: m.Commits}
}

// bestBit returns the bit backed by the highest certificate, falling back to
// the node's input when no certificate exists.
func (n *Node) bestBit() (types.Bit, attest.Certificate) {
	r0, r1 := n.st.bestCert[0].Rank(), n.st.bestCert[1].Rank()
	switch {
	case r0 == 0 && r1 == 0:
		return n.input, attest.Certificate{}
	case r1 > r0:
		return types.One, n.st.bestCert[1]
	default:
		return types.Zero, n.st.bestCert[0]
	}
}

func (n *Node) statusRound(iter uint32) []netsim.Send {
	b, cert := n.bestBit()
	proof, ok := n.mine(StatusTag(iter, b))
	if !ok {
		return nil
	}
	return []netsim.Send{netsim.Multicast(StatusMsg{Iter: iter, B: b, Cert: cert, Elig: proof})}
}

func (n *Node) proposeRound(iter uint32) []netsim.Send {
	b, cert := n.bestBit()
	proof, ok := n.mine(ProposeTag(iter, b))
	if !ok {
		return nil
	}
	return []netsim.Send{netsim.Multicast(ProposeMsg{Iter: iter, B: b, Cert: cert, Elig: proof})}
}

func (n *Node) voteRound(iter uint32) []netsim.Send {
	var b types.Bit
	var just *proposal
	switch {
	case iter == 1:
		b = n.input
	case n.st.propIter() != iter:
		return nil
	case n.st.proposals[0] != nil && n.st.proposals[1] != nil:
		return nil // proposals for both bits: abstain
	case n.st.proposals[0] != nil:
		b, just = types.Zero, n.st.proposals[0]
	case n.st.proposals[1] != nil:
		b, just = types.One, n.st.proposals[1]
	default:
		return nil
	}
	if iter > 1 && n.st.bestCert[b.Flip()].Rank() > just.cert.Rank() {
		return nil
	}
	proof, ok := n.mine(VoteTag(iter, b))
	if !ok {
		return nil
	}
	msg := VoteMsg{Iter: iter, B: b, Elig: proof}
	if just != nil {
		msg.Leader = just.leader
		msg.LeaderElig = just.elig
	}
	return []netsim.Send{netsim.Multicast(msg)}
}

// commitRound reads the iteration's votes without taking a window slot: a
// node whose state its class shares writes nothing outside ingest, and an
// iteration without a slot has no votes.
func (n *Node) commitRound(iter uint32) []netsim.Send {
	set := n.st.votes.held(iter)
	if set == nil {
		return nil
	}
	for _, b := range []types.Bit{types.Zero, types.One} {
		if set[b].Count() >= n.cfg.Threshold() && set[b.Flip()].Count() == 0 {
			proof, ok := n.mine(CommitTag(iter, b))
			if !ok {
				return nil
			}
			cert := attest.Certificate{Iter: iter, Bit: b, Atts: set[b].Attestations()}
			return []netsim.Send{netsim.Multicast(CommitMsg{
				Iter: iter, B: b, Cert: cert, Elig: proof,
			})}
		}
	}
	return nil
}
