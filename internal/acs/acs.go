package acs

import (
	"crypto/sha256"
	"fmt"

	"ccba/internal/aba"
	"ccba/internal/brb"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Config parameterises one node's ACS participant.
type Config struct {
	// N is the node count; F the fault budget (requires N > 3F).
	N, F int
	// Me is this node's identity.
	Me types.NodeID
	// Input is this node's contributed payload.
	Input []byte
	// Suite and Source feed the per-slot ABA coins (see aba.Config).
	Suite  fmine.Suite
	Source *aba.CoinSource
	// Sink receives the per-slot coin reveals.
	Sink obs.Sink
}

// Node is one participant of the BKR Agreement on Common Subset: n
// parallel reliable broadcasts (slot j carrying node j's input) and n
// parallel ABA instances voting each slot in or out. A slot's BRB delivery
// feeds input 1 into its ABA; once n−f ABAs have decided 1 the remaining
// ones are started with input 0; the output is the set of slots whose ABA
// decided 1, together with their delivered payloads (guaranteed to arrive,
// by BRB totality, since a 1-decision requires an honest 1-input).
type Node struct {
	cfg  Config
	n, f int
	me   types.NodeID

	brbs     []*brb.Instance
	abas     []*aba.Instance
	brbDone  []bool
	payloads [][]byte
	started  []bool // ABA j has received its input

	// Tallies over the slots' ABAs, moved by observe when the one slot a
	// call touched changes state, so no rule rescans the n slots.
	seenDecided []bool // slot's decision is counted below
	seenHalted  []bool // slot's halt is counted below
	decided     int    // ABAs that decided
	ones        int    // ABAs that decided 1
	awaited     int    // ABAs that decided 1 whose BRB has not delivered yet
	halted      int    // ABAs whose termination gadget completed

	filledZeros bool
	outputDone  bool
	outSet      []types.NodeID
	outBit      types.Bit

	out   []netsim.Send // per-call send accumulator
	wraps []WrapMsg     // unused tail of the current wrapper slab
}

// NewNode builds participant cfg.Me.
func NewNode(cfg Config) *Node {
	nd := &Node{
		cfg:      cfg,
		n:        cfg.N,
		f:        cfg.F,
		me:       cfg.Me,
		brbs:     make([]*brb.Instance, cfg.N),
		abas:     make([]*aba.Instance, cfg.N),
		brbDone:  make([]bool, cfg.N),
		payloads: make([][]byte, cfg.N),
		started:  make([]bool, cfg.N),

		seenDecided: make([]bool, cfg.N),
		seenHalted:  make([]bool, cfg.N),
	}
	for j := 0; j < cfg.N; j++ {
		nd.brbs[j] = brb.NewInstance(cfg.N, cfg.F, types.NodeID(j), cfg.Me)
		nd.abas[j] = aba.NewInstance(aba.Config{
			N: cfg.N, F: cfg.F, Me: cfg.Me,
			Domain: fmt.Sprintf("acs/%d/coin", j),
			Suite:  cfg.Suite, Source: cfg.Source,
			Sink: cfg.Sink, Slot: j,
		})
	}
	return nd
}

// Start implements netsim.AsyncNode: broadcast our own input on slot Me.
func (nd *Node) Start() []netsim.Send {
	nd.out = nd.out[:0]
	nd.wrap(uint32(nd.me), PartBRB, nd.brbs[nd.me].Start(nd.cfg.Input))
	return nd.out
}

// Deliver implements netsim.AsyncNode: route the wrapped message to its
// slot's sub-instance, then drain the composition rules.
func (nd *Node) Deliver(d netsim.Delivered) []netsim.Send {
	m, ok := d.Msg.(*WrapMsg)
	if !ok || int(m.Slot) >= nd.n {
		return nil
	}
	nd.out = nd.out[:0]
	switch m.Part {
	case PartBRB:
		sends, deliveredNow := nd.brbs[m.Slot].Handle(d.From, m.Inner)
		nd.wrap(m.Slot, PartBRB, sends)
		if deliveredNow {
			payload, _ := nd.brbs[m.Slot].Delivered()
			nd.brbDone[m.Slot] = true
			nd.payloads[m.Slot] = payload
			if b, ok := nd.abas[m.Slot].Decided(); ok && b == types.One {
				nd.awaited--
			}
		}
	case PartABA:
		nd.wrap(m.Slot, PartABA, nd.abas[m.Slot].Handle(d.From, m.Inner))
		nd.observe(int(m.Slot))
	}
	nd.progress(int(m.Slot))
	return nd.out
}

// observe folds slot j's ABA decide and halt transitions into the tallies.
// It runs after every call into abas[j]; each transition happens once, so
// each is counted once.
func (nd *Node) observe(j int) {
	if !nd.seenDecided[j] {
		if b, ok := nd.abas[j].Decided(); ok {
			nd.seenDecided[j] = true
			nd.decided++
			if b == types.One {
				nd.ones++
				if !nd.brbDone[j] {
					nd.awaited++
				}
			}
		}
	}
	if !nd.seenHalted[j] && nd.abas[j].Halted() {
		nd.seenHalted[j] = true
		nd.halted++
	}
}

// progress applies the BKR composition rules after a delivery to slot: a
// BRB delivery starts its slot's ABA with 1; n−f one-decisions start every
// idle ABA with 0, in slot order; all ABAs decided (with every included
// payload delivered) fixes the output. Only slot's BRB can have delivered
// since the last call, so it is the only slot the first rule can newly
// enable; the second rule reads a tally and fires once.
func (nd *Node) progress(slot int) {
	if nd.brbDone[slot] && !nd.started[slot] && !nd.filledZeros {
		nd.setInput(slot, types.One)
	}
	if !nd.filledZeros && nd.ones >= nd.n-nd.f {
		nd.filledZeros = true
		for j := 0; j < nd.n; j++ {
			if !nd.started[j] {
				nd.setInput(j, types.Zero)
			}
		}
	}
	nd.tryOutput()
}

// setInput starts slot j's ABA with estimate b.
func (nd *Node) setInput(j int, b types.Bit) {
	nd.started[j] = true
	nd.wrap(uint32(j), PartABA, nd.abas[j].SetInput(b))
	nd.observe(j)
}

// tryOutput fixes the output set once every ABA has decided and every
// included slot's payload has been delivered (totality will deliver it).
func (nd *Node) tryOutput() {
	if nd.outputDone || nd.decided < nd.n || nd.awaited > 0 {
		return
	}
	nd.outSet = nd.outSet[:0]
	h := sha256.New()
	var scratch [8]byte
	for j := 0; j < nd.n; j++ {
		if b, _ := nd.abas[j].Decided(); b == types.One {
			nd.outSet = append(nd.outSet, types.NodeID(j))
			w := wire.Writer{Buf: scratch[:0]}
			w.U32(uint32(j))
			w.U32(uint32(len(nd.payloads[j])))
			h.Write(w.Buf)
			h.Write(nd.payloads[j])
		}
	}
	nd.outBit = types.Bit(h.Sum(nil)[0] & 1)
	nd.outputDone = true
}

// Output implements netsim.AsyncNode. The bit is a digest of the output
// set and its payloads — a collision-resistant summary that lets the
// generic consistency checker compare ACS outputs; the exact set property
// is checked by the dedicated ACS checker over OutputSet.
func (nd *Node) Output() (types.Bit, bool) { return nd.outBit, nd.outputDone }

// Halted implements netsim.AsyncNode: the output is fixed and every ABA's
// termination gadget has completed.
func (nd *Node) Halted() bool { return nd.outputDone && nd.halted == nd.n }

// OutputSet returns the decided slot set and whether the output is fixed.
func (nd *Node) OutputSet() ([]types.NodeID, bool) { return nd.outSet, nd.outputDone }

// Payload returns the delivered payload of slot j.
func (nd *Node) Payload(j types.NodeID) []byte { return nd.payloads[j] }

// DecidedRound returns the maximum ABA decision round across slots (0
// before the output is fixed) — the instance that kept the node waiting.
func (nd *Node) DecidedRound() int {
	if !nd.outputDone {
		return 0
	}
	max := 0
	for j := 0; j < nd.n; j++ {
		if r := nd.abas[j].DecidedRound(); r > max {
			max = r
		}
	}
	return max
}

// wrapSlab is how many wrappers one slab allocation serves.
const wrapSlab = 32

// wrap appends slot-tagged copies of a sub-instance's sends. Wrappers are
// carved from a slab, one allocation per wrapSlab sends in place of one
// each; a slab is garbage once its last message has been delivered.
func (nd *Node) wrap(slot uint32, part uint8, sends []netsim.Send) {
	for _, s := range sends {
		if len(nd.wraps) == 0 {
			nd.wraps = make([]WrapMsg, wrapSlab)
		}
		m := &nd.wraps[0]
		nd.wraps = nd.wraps[1:]
		*m = WrapMsg{Slot: slot, Part: part, Inner: s.Msg}
		nd.out = append(nd.out, netsim.Send{To: s.To, Msg: m})
	}
}

var _ netsim.AsyncNode = (*Node)(nil)
