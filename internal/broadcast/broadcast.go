package broadcast

import (
	"fmt"
	"slices"

	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// KindInput is the sender's round-0 message kind.
const KindInput wire.Kind = 1

// InputMsg is the designated sender's multicast input bit.
type InputMsg struct {
	B types.Bit
}

// Kind implements wire.Message.
func (m InputMsg) Kind() wire.Kind { return KindInput }

// Encode implements wire.Message.
func (m InputMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.Bit(m.B)
	return w.Buf
}

// Size implements wire.Message.
func (m InputMsg) Size() int { return 1 }

// Decode parses a marshalled broadcast wrapper message.
func Decode(buf []byte) (wire.Message, error) {
	if len(buf) != 2 || wire.Kind(buf[0]) != KindInput {
		return nil, fmt.Errorf("broadcast: %w", wire.ErrMalformed)
	}
	r := wire.NewReader(buf[1:])
	m := InputMsg{B: r.Bit()}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// MakeBA constructs a node's underlying BA instance once its input bit is
// known (at the end of round 0).
type MakeBA func(id types.NodeID, input types.Bit) (netsim.Node, error)

// Node wraps a BA instance behind the one-round sender multicast.
type Node struct {
	id     types.NodeID
	sender types.NodeID
	input  types.Bit // sender's input; NoBit elsewhere
	make   MakeBA

	inner netsim.Node
	err   error
}

// New constructs the wrapper for node id. input is used only by the sender.
func New(id, sender types.NodeID, input types.Bit, mk MakeBA) (*Node, error) {
	if mk == nil {
		return nil, fmt.Errorf("broadcast: MakeBA required")
	}
	if id == sender && !input.Valid() {
		return nil, fmt.Errorf("broadcast: sender input %v", input)
	}
	return &Node{id: id, sender: sender, input: input, make: mk}, nil
}

// NewNodes constructs all n wrappers.
func NewNodes(n int, sender types.NodeID, input types.Bit, mk MakeBA) ([]netsim.Node, error) {
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		nd, err := New(types.NodeID(i), sender, input, mk)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

var _ netsim.Node = (*Node)(nil)

// Output implements netsim.Node.
func (n *Node) Output() (types.Bit, bool) {
	if n.inner == nil {
		return types.NoBit, false
	}
	return n.inner.Output()
}

// Halted implements netsim.Node.
func (n *Node) Halted() bool {
	if n.err != nil {
		return true
	}
	if n.inner == nil {
		return false
	}
	return n.inner.Halted()
}

// Step implements netsim.Node. Round 0 is the sender multicast; from round 1
// on, the inner BA runs with rounds shifted by one.
func (n *Node) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if n.err != nil {
		return nil
	}
	if round == 0 {
		if n.id == n.sender {
			return []netsim.Send{netsim.Multicast(InputMsg{B: n.input})}
		}
		return nil
	}
	if round == 1 {
		// Adopt the sender's bit (0 if silent or invalid) as BA input.
		input := types.Zero
		for _, d := range delivered {
			m, ok := d.Msg.(InputMsg)
			if ok && d.From == n.sender && m.B.Valid() {
				input = m.B
				break
			}
		}
		n.inner, n.err = n.make(n.id, input)
		if n.err != nil {
			return nil
		}
		return n.inner.Step(0, nil)
	}
	// The inner protocol sees only its own messages, with rounds shifted by
	// one: a filtered copy if a stray wrapper message arrived, else the
	// inbox unchanged, so a core inner node can follow its state class.
	if slices.ContainsFunc(delivered, isInput) {
		delivered = slices.DeleteFunc(slices.Clone(delivered), isInput)
	}
	return n.inner.Step(round-1, delivered)
}

func isInput(d netsim.Delivered) bool {
	_, ok := d.Msg.(InputMsg)
	return ok
}
