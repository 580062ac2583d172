package strongadaptive

import (
	"fmt"

	"ccba/internal/crypto/prf"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// Factory constructs the n protocol nodes of one Byzantine Broadcast
// instance with the given sender input.
type Factory func(senderInput types.Bit) ([]netsim.Node, error)

// Config parameterises the harness.
type Config struct {
	// N is the number of nodes; F the corruption budget of the attack.
	N, F int
	// Sender is the designated sender (never placed in V).
	Sender types.NodeID
	// MaxRounds bounds each execution.
	MaxRounds int
	// Seed drives the random choices (choice of p).
	Seed [32]byte
	// NewNodes builds one protocol instance.
	NewNodes Factory
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 || c.F <= 1 || c.F >= c.N {
		return fmt.Errorf("strongadaptive: need 1 < f < n, got n=%d f=%d", c.N, c.F)
	}
	if c.F/2 >= c.N-1 {
		return fmt.Errorf("strongadaptive: V of size f/2=%d does not fit in n−1 nodes", c.F/2)
	}
	if c.NewNodes == nil {
		return fmt.Errorf("strongadaptive: NewNodes required")
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("strongadaptive: MaxRounds required")
	}
	return nil
}

// ProbeSilentOutput runs one node of the protocol in total isolation — no
// messages ever delivered — and returns its output. This realises the
// proof's classification of nodes by their no-input behaviour. The probe
// uses node `id` (which must not be the sender; silent senders still know
// their input).
func (c Config) ProbeSilentOutput(id types.NodeID) (types.Bit, error) {
	nodes, err := c.NewNodes(types.Zero)
	if err != nil {
		return types.NoBit, err
	}
	node := nodes[id]
	for round := 0; round < c.MaxRounds && !node.Halted(); round++ {
		node.Step(round, nil)
	}
	out, ok := node.Output()
	if !ok {
		// The proof's normalisation: a node that never outputs is made to
		// output 1.
		return types.One, nil
	}
	return out, nil
}

// pickV returns the corrupt set V: the f/2 highest non-sender IDs. Which
// concrete IDs form V is immaterial for symmetric protocols; the essential
// property — silent output β — is probed, not assumed.
func (c Config) pickV() []types.NodeID {
	v := make([]types.NodeID, 0, c.F/2)
	for id := c.N - 1; len(v) < c.F/2 && id >= 0; id-- {
		if types.NodeID(id) == c.Sender {
			continue
		}
		v = append(v, types.NodeID(id))
	}
	return v
}

// Outcome reports one attacked execution.
type Outcome struct {
	// SilentOutput is the probed bit β; the sender input used is 1−β.
	SilentOutput types.Bit
	// HonestMessages is the classical message count honest nodes sent under
	// adversary A (the quantity Theorem 4 lower-bounds).
	HonestMessages netsim.Count
	// MessagesToV counts messages addressed to members of V under A.
	MessagesToV int
	// ValidityViolatedA reports whether adversary A already broke validity.
	ValidityViolatedA bool
	// P is the isolated node chosen by A′.
	P types.NodeID
	// SendersToP is |S(p)|: distinct nodes that attempted to message p.
	SendersToP int
	// ReceivedByP counts messages that still reached p (unremoved).
	ReceivedByP int
	// CorruptionsAPrime is the total corruptions A′ used.
	CorruptionsAPrime int
	// BudgetExhausted reports that A′ ran out of corruptions and p could
	// not be fully isolated (how Ω(f²) protocols survive).
	BudgetExhausted bool
	// ConsistencyViolatedAPrime is the attack's success flag: some
	// forever-honest node disagrees with p under A′.
	ConsistencyViolatedAPrime bool
	// POutput is p's output under A′.
	POutput types.Bit
}

// Run probes the protocol, mounts A and A′, and reports the outcome.
func Run(cfg Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := cfg.pickV()
	probeID := v[0]
	beta, err := cfg.ProbeSilentOutput(probeID)
	if err != nil {
		return nil, fmt.Errorf("strongadaptive: probing silent output: %w", err)
	}
	input := beta.Flip()
	if !input.Valid() {
		input = types.Zero // degenerate probe; proceed with 0
	}
	out := &Outcome{SilentOutput: beta}

	// --- Execution 1: adversary A.
	nodesA, err := cfg.NewNodes(input)
	if err != nil {
		return nil, err
	}
	advA := newAdversaryA(v, cfg.F/2)
	rtA, err := netsim.NewRuntime(netsim.Config{N: cfg.N, F: cfg.F, MaxRounds: cfg.MaxRounds}, nodesA, advA)
	if err != nil {
		return nil, err
	}
	resA := rtA.Run()
	out.HonestMessages = resA.Metrics.HonestMessages
	out.MessagesToV = advA.messagesToV
	out.ValidityViolatedA = netsim.CheckBroadcastValidity(resA, cfg.Sender, input) != nil

	// --- Execution 2: adversary A′ with p ∈ V picked uniformly.
	pIdx := prf.Eval(prf.Key(cfg.Seed), []byte("pick-p")).Uint64() % uint64(len(v))
	p := v[pIdx]
	out.P = p

	nodesB, err := cfg.NewNodes(input)
	if err != nil {
		return nil, err
	}
	advB := newAdversaryAPrime(v, p, cfg.F/2)
	rtB, err := netsim.NewRuntime(netsim.Config{N: cfg.N, F: cfg.F, MaxRounds: cfg.MaxRounds}, nodesB, advB)
	if err != nil {
		return nil, err
	}
	resB := rtB.Run()
	out.SendersToP = len(advB.sendersToP)
	out.ReceivedByP = advB.receivedByP
	out.CorruptionsAPrime = resB.NumCorrupt()
	out.BudgetExhausted = advB.budgetExhausted
	out.ConsistencyViolatedAPrime = netsim.CheckConsistency(resB) != nil
	if bit, ok := resB.Outputs[p], resB.Decided[p]; ok {
		out.POutput = bit
	} else {
		out.POutput = types.NoBit
	}
	return out, nil
}
