package chenmicali

import (
	"fmt"
	"sync"

	"ccba/internal/attest"
	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/prf"
	"ccba/internal/crypto/sig"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// Domain is the F_mine tag domain for this protocol. Note that Tag.Bit is
// always NoBit: eligibility is deliberately not bit-specific.
const Domain = "chenmicali"

// Mining tag types.
const (
	TagPropose uint8 = 1
	TagAck     uint8 = 2
)

// Probabilities returns the difficulty schedule: proposals at 1/(2n), ACKs
// at λ/n, keyed only by (type, epoch).
func Probabilities(n, lambda int) fmine.ProbFunc {
	return func(t fmine.Tag) float64 {
		if t.Domain != Domain || t.Bit != types.NoBit {
			return 0
		}
		switch t.Type {
		case TagPropose:
			return fmine.LeaderProb(n)
		case TagAck:
			return fmine.CommitteeProb(n, lambda)
		default:
			return 0
		}
	}
}

// AckTicketTag is the bit-free eligibility tag for epoch-r ACKs.
func AckTicketTag(epoch uint32) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagAck, Iter: epoch, Bit: types.NoBit}
}

// ProposeTicketTag is the bit-free eligibility tag for epoch-r proposals.
func ProposeTicketTag(epoch uint32) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagPropose, Iter: epoch, Bit: types.NoBit}
}

// AckSigPayload is the message the ephemeral key signs: the epoch and the
// bit. This is where the bit is bound — and only here.
func AckSigPayload(epoch uint32, b types.Bit) []byte {
	return fmine.Tag{Domain: Domain + "/sig", Type: TagAck, Iter: epoch, Bit: b}.Encode()
}

// EphemeralSigner models Chen–Micali's forward-secure per-epoch keys. With
// erasure enabled, signing for an epoch consumes ("erases") that epoch's
// key: later attempts — including by an adversary that corrupted the node —
// fail. With erasure disabled the key persists, which is what the §3.3
// Remark attack exploits. It is safe for concurrent use.
type EphemeralSigner struct {
	erasure bool
	sk      sig.PrivateKey

	mu   sync.Mutex
	used map[uint32]bool
}

// NewEphemeralSigner wraps a signing key.
func NewEphemeralSigner(sk sig.PrivateKey, erasure bool) *EphemeralSigner {
	return &EphemeralSigner{erasure: erasure, sk: sk, used: make(map[uint32]bool)}
}

// Sign signs an epoch-r ACK payload for b. It returns false if the epoch key
// was already erased.
func (s *EphemeralSigner) Sign(epoch uint32, b types.Bit) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.erasure && s.used[epoch] {
		return nil, false
	}
	s.used[epoch] = true
	return sig.Sign(s.sk, AckSigPayload(epoch, b)), true
}

// Config parameterises one node.
type Config struct {
	// N is the number of nodes; Epochs the number of phase-king epochs.
	N, Epochs int
	// Lambda is the expected committee size.
	Lambda int
	// Erasure enables the memory-erasure model (ephemeral keys are erased
	// after one use).
	Erasure bool
	// Suite provides (bit-free) eligibility election.
	Suite fmine.Suite
	// PKI is the key registry for the ephemeral signatures.
	PKI *pki.Public
	// Cache memoises signature verification across the simulated nodes
	// (optional; NewNodes installs a shared one). See sig.Cache.
	Cache *sig.Cache
	// CoinSeed seeds the per-node private leader coins.
	CoinSeed [32]byte
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 || c.Epochs <= 0 || c.Lambda <= 0 {
		return fmt.Errorf("chenmicali: n=%d epochs=%d lambda=%d", c.N, c.Epochs, c.Lambda)
	}
	if c.Suite == nil || c.PKI == nil {
		return fmt.Errorf("chenmicali: suite and PKI required")
	}
	return nil
}

// Rounds is the protocol length: two rounds per epoch plus the output round.
func (c Config) Rounds() int { return 2*c.Epochs + 1 }

// Threshold is the ample-ACK quorum: ⌈2λ/3⌉.
func (c Config) Threshold() int { return (2*c.Lambda + 2) / 3 }

// Keys is a node's seizable secret material.
type Keys struct {
	Miner  fmine.Miner
	Signer *EphemeralSigner
}

// Node is one participant's state machine.
type Node struct {
	cfg    Config
	id     types.NodeID
	miner  fmine.Miner
	verif  fmine.Verifier
	signer *EphemeralSigner
	coins  prf.State

	belief  types.Bit
	sticky  bool
	prop    [2]bool
	acks    [2]attest.Set
	out     types.Bit
	decided bool
	halted  bool
}

// New constructs node id with the given input bit; the returned Keys are
// what an adversary seizes upon corruption.
func New(cfg Config, id types.NodeID, input types.Bit, secret pki.Secret) (*Node, *Keys, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if !input.Valid() {
		return nil, nil, fmt.Errorf("chenmicali: invalid input %v", input)
	}
	signer := NewEphemeralSigner(secret.SigSK, cfg.Erasure)
	n := &Node{
		cfg:    cfg,
		id:     id,
		miner:  cfg.Suite.Miner(id),
		verif:  cfg.Suite.Verifier(),
		signer: signer,
		coins:  prf.NewState(prf.DeriveKey(secret.PRFKey, "chenmicali/coin")),
		belief: input,
		sticky: true,
	}
	return n, &Keys{Miner: n.miner, Signer: signer}, nil
}

// NewNodes constructs all n state machines and their seizable keys.
func NewNodes(cfg Config, inputs []types.Bit, secrets []pki.Secret) ([]netsim.Node, []*Keys, error) {
	if len(inputs) != cfg.N || len(secrets) != cfg.N {
		return nil, nil, fmt.Errorf("chenmicali: need %d inputs and secrets", cfg.N)
	}
	if cfg.Cache == nil {
		cfg.Cache = sig.NewCache()
	}
	nodes := make([]netsim.Node, cfg.N)
	keys := make([]*Keys, cfg.N)
	for i := range nodes {
		n, k, err := New(cfg, types.NodeID(i), inputs[i], secrets[i])
		if err != nil {
			return nil, nil, err
		}
		nodes[i], keys[i] = n, k
	}
	return nodes, keys, nil
}

var _ netsim.Node = (*Node)(nil)

// Output implements netsim.Node.
func (n *Node) Output() (types.Bit, bool) { return n.out, n.decided }

// Halted implements netsim.Node.
func (n *Node) Halted() bool { return n.halted }

// Step implements netsim.Node. The round layout matches package phaseking:
// round 2r proposes (and tallies epoch r−1), round 2r+1 ACKs.
func (n *Node) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if n.halted {
		return nil
	}
	switch {
	case round >= 2*n.cfg.Epochs:
		n.tally(uint32(n.cfg.Epochs-1), delivered)
		n.out = n.belief
		n.decided = true
		n.halted = true
		return nil
	case round%2 == 0:
		epoch := uint32(round / 2)
		if epoch > 0 {
			n.tally(epoch-1, delivered)
		}
		return n.propose(epoch)
	default:
		epoch := uint32(round / 2)
		n.collectProposals(epoch, delivered)
		return n.ackRound(epoch)
	}
}

func (n *Node) propose(epoch uint32) []netsim.Send {
	var buf [64]byte
	coinOut := n.coins.Eval(ProposeTicketTag(epoch).AppendEncode(buf[:0]))
	coin := types.BitFromBool(coinOut.Below(0.5))
	proof, ok := n.miner.Mine(ProposeTicketTag(epoch))
	if !ok {
		return nil
	}
	return []netsim.Send{netsim.Multicast(ProposeMsg{Epoch: epoch, B: coin, Elig: proof})}
}

func (n *Node) collectProposals(epoch uint32, delivered []netsim.Delivered) {
	n.prop = [2]bool{}
	for _, d := range delivered {
		m, ok := d.Msg.(ProposeMsg)
		if !ok || m.Epoch != epoch || !m.B.Valid() {
			continue
		}
		if !n.verif.Verify(ProposeTicketTag(epoch), d.From, m.Elig) {
			continue
		}
		n.prop[m.B] = true
	}
}

func (n *Node) ackRound(epoch uint32) []netsim.Send {
	bStar := n.belief
	if !n.sticky {
		switch {
		case n.prop[0]:
			bStar = types.Zero
		case n.prop[1]:
			bStar = types.One
		}
	}
	n.acks = [2]attest.Set{}

	ticket, ok := n.miner.Mine(AckTicketTag(epoch))
	if !ok {
		return nil
	}
	sg, ok := n.signer.Sign(epoch, bStar)
	if !ok {
		return nil
	}
	return []netsim.Send{netsim.Multicast(AckMsg{Epoch: epoch, B: bStar, Elig: ticket, Sig: sg})}
}

// ValidAck checks an ACK's ticket and ephemeral signature; exported for the
// attack harness.
func (n *Node) validAck(from types.NodeID, m AckMsg) bool {
	if !m.B.Valid() {
		return false
	}
	if !n.verif.Verify(AckTicketTag(m.Epoch), from, m.Elig) {
		return false
	}
	if n.cfg.Cache != nil {
		return n.cfg.Cache.Verify(n.cfg.PKI.SigKey(from), AckSigPayload(m.Epoch, m.B), m.Sig)
	}
	return sig.Verify(n.cfg.PKI.SigKey(from), AckSigPayload(m.Epoch, m.B), m.Sig)
}

func (n *Node) tally(epoch uint32, delivered []netsim.Delivered) {
	for _, d := range delivered {
		m, ok := d.Msg.(AckMsg)
		if !ok || m.Epoch != epoch {
			continue
		}
		if !n.validAck(d.From, m) {
			continue
		}
		n.acks[m.B].Add(d.From, m.Elig)
	}
	threshold := n.cfg.Threshold()
	ample0 := n.acks[0].Count() >= threshold
	ample1 := n.acks[1].Count() >= threshold
	switch {
	case ample0 && ample1:
		// Both quorums exist — exactly the state the §3.3 Remark attack
		// manufactures. Resolve by count; the adversary controls enough
		// duplicated tickets to steer this either way.
		n.belief = types.BitFromBool(n.acks[1].Count() > n.acks[0].Count())
		n.sticky = true
	case ample0:
		n.belief, n.sticky = types.Zero, true
	case ample1:
		n.belief, n.sticky = types.One, true
	default:
		n.sticky = false
	}
}
