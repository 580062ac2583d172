package committee

import (
	"encoding/binary"
	"fmt"

	"ccba/internal/crypto/prf"
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Config parameterises one node.
type Config struct {
	// N is the number of nodes.
	N int
	// CommitteeSize is the number of echoing nodes.
	CommitteeSize int
	// Sender is the designated sender.
	Sender types.NodeID
	// CRS seeds committee selection; it is public common knowledge.
	CRS [32]byte
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("committee: n=%d", c.N)
	}
	if c.CommitteeSize <= 0 || c.CommitteeSize >= c.N {
		return fmt.Errorf("committee: committee size %d out of range for n=%d", c.CommitteeSize, c.N)
	}
	if int(c.Sender) < 0 || int(c.Sender) >= c.N {
		return fmt.Errorf("committee: sender %d out of range", c.Sender)
	}
	return nil
}

// Rounds is the protocol length: send, echo, decide.
func (c Config) Rounds() int { return 3 }

// Members returns the committee selected by the CRS: CommitteeSize distinct
// nodes, excluding the sender (echoing one's own send would be counted
// twice). The selection is public — that publicness is exactly what the
// adaptive attack exploits.
func (c Config) Members() []types.NodeID {
	st := prf.NewState(prf.DeriveKey(prf.Key(c.CRS), "committee/crs"))
	members := make([]types.NodeID, 0, c.CommitteeSize)
	seen := map[types.NodeID]struct{}{c.Sender: {}}
	for ctr := uint32(0); len(members) < c.CommitteeSize; ctr++ {
		var buf [4]byte
		id := types.NodeID(st.Eval(binary.BigEndian.AppendUint32(buf[:0], ctr)).Uint64() % uint64(c.N))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		members = append(members, id)
	}
	return members
}

// Message kinds.
const (
	KindSend wire.Kind = 1
	KindEcho wire.Kind = 2
)

// SendMsg is the designated sender's bit.
type SendMsg struct {
	B types.Bit
}

// Kind implements wire.Message.
func (m SendMsg) Kind() wire.Kind { return KindSend }

// Encode implements wire.Message.
func (m SendMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.Bit(m.B)
	return w.Buf
}

// Size implements wire.Message.
func (m SendMsg) Size() int { return 1 }

// EchoMsg is a committee member's echo.
type EchoMsg struct {
	B types.Bit
}

// Kind implements wire.Message.
func (m EchoMsg) Kind() wire.Kind { return KindEcho }

// Encode implements wire.Message.
func (m EchoMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.Bit(m.B)
	return w.Buf
}

// Size implements wire.Message.
func (m EchoMsg) Size() int { return 1 }

// Decode parses a marshalled committee-protocol message.
func Decode(buf []byte) (wire.Message, error) {
	if len(buf) != 2 {
		return nil, fmt.Errorf("committee: %w", wire.ErrMalformed)
	}
	r := wire.NewReader(buf[1:])
	b := r.Bit()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	switch wire.Kind(buf[0]) {
	case KindSend:
		return SendMsg{B: b}, nil
	case KindEcho:
		return EchoMsg{B: b}, nil
	default:
		return nil, fmt.Errorf("committee: %w: kind %d", wire.ErrMalformed, buf[0])
	}
}

// Node is one participant's state machine.
type Node struct {
	cfg      Config
	id       types.NodeID
	input    types.Bit
	isMember bool

	heard   types.Bit // first bit heard from the sender
	echoes  [2]map[types.NodeID]struct{}
	members map[types.NodeID]struct{}

	out     types.Bit
	decided bool
	halted  bool
}

// New constructs node id; input matters only for the sender.
func New(cfg Config, id types.NodeID, input types.Bit) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id == cfg.Sender && !input.Valid() {
		return nil, fmt.Errorf("committee: sender input %v", input)
	}
	members := make(map[types.NodeID]struct{}, cfg.CommitteeSize)
	for _, m := range cfg.Members() {
		members[m] = struct{}{}
	}
	_, isMember := members[id]
	return &Node{
		cfg:      cfg,
		id:       id,
		input:    input,
		isMember: isMember,
		heard:    types.NoBit,
		echoes:   [2]map[types.NodeID]struct{}{{}, {}},
		members:  members,
	}, nil
}

// NewNodes constructs all n state machines.
func NewNodes(cfg Config, senderInput types.Bit) ([]netsim.Node, error) {
	nodes := make([]netsim.Node, cfg.N)
	for i := range nodes {
		n, err := New(cfg, types.NodeID(i), senderInput)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

var _ netsim.Node = (*Node)(nil)

// Output implements netsim.Node.
func (n *Node) Output() (types.Bit, bool) { return n.out, n.decided }

// Halted implements netsim.Node.
func (n *Node) Halted() bool { return n.halted }

// Step implements netsim.Node.
func (n *Node) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if n.halted {
		return nil
	}
	switch round {
	case 0:
		if n.id == n.cfg.Sender {
			n.heard = n.input
			return []netsim.Send{netsim.Multicast(SendMsg{B: n.input})}
		}
		return nil
	case 1:
		for _, d := range delivered {
			m, ok := d.Msg.(SendMsg)
			if !ok || d.From != n.cfg.Sender || !m.B.Valid() {
				continue
			}
			if n.heard == types.NoBit {
				n.heard = m.B
			}
		}
		if n.isMember && n.heard != types.NoBit {
			return []netsim.Send{netsim.Multicast(EchoMsg{B: n.heard})}
		}
		return nil
	default:
		for _, d := range delivered {
			m, ok := d.Msg.(EchoMsg)
			if !ok || !m.B.Valid() {
				continue
			}
			if _, member := n.members[d.From]; !member {
				continue
			}
			n.echoes[m.B][d.From] = struct{}{}
		}
		// Majority echo, default 0 on silence or tie: a node that hears
		// nothing outputs 0 deterministically — the "silent output" the
		// Dolev–Reischuk-style attack of Theorem 1 keys on.
		n.out = types.BitFromBool(len(n.echoes[1]) > len(n.echoes[0]))
		n.decided = true
		n.halted = true
		return nil
	}
}
