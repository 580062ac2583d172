package scenario

import (
	"fmt"
	"sort"

	"ccba/internal/attest"
	"ccba/internal/broadcast"
	"ccba/internal/chenmicali"
	"ccba/internal/committee"
	"ccba/internal/core"
	"ccba/internal/crypto/pki"
	"ccba/internal/dolevstrong"
	"ccba/internal/fmine"
	"ccba/internal/leader"
	"ccba/internal/netsim"
	"ccba/internal/phaseking"
	"ccba/internal/quadratic"
	"ccba/internal/types"
)

// Builder constructs one protocol's node set from a resolved Config. It
// returns the state machines, the Seize function handing secret material to
// the adversary on corruption (may be nil), and the protocol's step count —
// the number of lockstep rounds a fault-free execution needs, from which
// Run derives the round budget (steps × ∆).
type Builder func(cfg Config) (nodes []netsim.Node, seize func(types.NodeID) any, steps int, err error)

// builders is the protocol registry Run resolves through; it replaces the
// hard-wired protocol switch the root package used to carry.
var builders = map[Protocol]Builder{}

// RegisterProtocol adds a protocol builder to the registry. Registering a
// duplicate name panics: the registry is assembled at init time and a
// collision is a programming error.
func RegisterProtocol(p Protocol, b Builder) {
	if p == "" || b == nil {
		panic("scenario: RegisterProtocol with empty protocol or nil builder")
	}
	if _, dup := builders[p]; dup {
		panic(fmt.Sprintf("scenario: protocol %q registered twice", p))
	}
	builders[p] = b
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []Protocol {
	out := make([]Protocol, 0, len(builders))
	for p := range builders {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Build validates cfg, applies defaults, and constructs the protocol
// instance through the registry. Callers that need the raw node set (the
// lower-bound engines, instrumented runtimes) use this; everyone else goes
// through Run.
func Build(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, 0, err
	}
	cfg.applyDefaults()
	return build(cfg)
}

// build resolves the builder for an already-defaulted config.
func build(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
	if cfg.Protocol.Async() {
		return nil, nil, 0, fmt.Errorf("scenario: protocol %q runs on the event-driven runtime; use Run, not Build", cfg.Protocol)
	}
	b, ok := builders[cfg.Protocol]
	if !ok {
		return nil, nil, 0, fmt.Errorf("scenario: unknown protocol %q (registered: %v)", cfg.Protocol, Protocols())
	}
	return b(cfg)
}

// newSuite builds the eligibility suite for prob per the crypto mode, which
// validate has checked. Real crypto mines with the PKI's keys: a builder that
// already ran pki.Setup passes them in (chenmicali also signs with them),
// the others pass nil and newSuite runs it.
func newSuite(cfg Config, prob fmine.ProbFunc, pub *pki.Public, secrets []pki.Secret) fmine.Suite {
	if cfg.Crypto != Real {
		return fmine.NewIdeal(cfg.Seed, prob)
	}
	if pub == nil {
		pub, secrets = pki.Setup(cfg.N, cfg.Seed)
	}
	return fmine.NewReal(pub, secrets, prob)
}

// newInterner builds the per-run attestation intern table every
// interning-capable protocol (core, core-broadcast, both phase kings) binds
// its nodes to, Sparse or not (DESIGN.md §6): honest nodes that see the same
// multicasts build the same sets, so n private copies of them are the
// dominant memory term at every n, and sharing them is answer-equivalent
// under every network model and adversary. One table per execution: sharing
// is an execution-scoped property, never cross-trial. RunCtx pre-creates the
// table (cfg.run.interner) for Sparse runs so it can surface the sharing
// statistics in the Report after the run.
func newInterner(cfg Config) *attest.Interner {
	if cfg.run.interner != nil {
		return cfg.run.interner
	}
	return attest.NewInterner()
}

func init() {
	RegisterProtocol(Core, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		suite := newSuite(cfg, core.Probabilities(cfg.N, cfg.Lambda), nil, nil)
		ccfg := core.Config{N: cfg.N, F: cfg.F, Lambda: cfg.Lambda, MaxIters: cfg.MaxIters, Suite: suite, Lockstep: cfg.run.lockstep, Intern: newInterner(cfg)}
		cfg.offerScreen(core.Screen(suite.Verifier()))
		nodes, err := core.NewNodes(ccfg, cfg.Inputs)
		return nodes, func(id types.NodeID) any { return suite.Miner(id) }, ccfg.Rounds(), err
	})

	RegisterProtocol(CoreBroadcast, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		suite := newSuite(cfg, core.Probabilities(cfg.N, cfg.Lambda), nil, nil)
		ccfg := core.Config{N: cfg.N, F: cfg.F, Lambda: cfg.Lambda, MaxIters: cfg.MaxIters, Suite: suite, Lockstep: cfg.run.lockstep, Intern: newInterner(cfg)}
		cfg.offerScreen(core.Screen(suite.Verifier()))
		run, err := core.NewRun(ccfg)
		if err != nil {
			return nil, nil, 0, err
		}
		nodes, err := broadcast.NewNodes(cfg.N, cfg.Sender, cfg.SenderInput, func(id types.NodeID, input types.Bit) (netsim.Node, error) {
			nd, err := run.Node(id, input)
			if err != nil {
				return nil, err
			}
			return nd, nil
		})
		return nodes, func(id types.NodeID) any { return suite.Miner(id) }, ccfg.Rounds() + 1, err
	})

	RegisterProtocol(Quadratic, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		qcfg := quadratic.Config{
			N: cfg.N, F: cfg.F, MaxIters: cfg.MaxIters,
			Oracle: leader.New(cfg.Seed, cfg.N), PKI: pub,
		}
		nodes, err := quadratic.NewNodes(qcfg, cfg.Inputs, secrets)
		return nodes, func(id types.NodeID) any { return secrets[id] }, qcfg.Rounds(), err
	})

	RegisterProtocol(PhaseKingPlain, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pcfg := phaseking.Config{N: cfg.N, Epochs: cfg.Epochs, CoinSeed: cfg.Seed, Intern: newInterner(cfg)}
		nodes, err := phaseking.NewNodes(pcfg, cfg.Inputs)
		return nodes, nil, pcfg.Rounds() + 1, err
	})

	RegisterProtocol(PhaseKingSampled, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		suite := newSuite(cfg, phaseking.Probabilities(cfg.N, cfg.Lambda), nil, nil)
		pcfg := phaseking.Config{
			N: cfg.N, Epochs: cfg.Epochs, Sampled: true, Lambda: cfg.Lambda,
			Suite: suite, CoinSeed: cfg.Seed, Intern: newInterner(cfg),
		}
		cfg.offerScreen(phaseking.Screen(suite.Verifier()))
		nodes, err := phaseking.NewNodes(pcfg, cfg.Inputs)
		return nodes, func(id types.NodeID) any { return suite.Miner(id) }, pcfg.Rounds() + 1, err
	})

	RegisterProtocol(ChenMicali, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		suite := newSuite(cfg, chenmicali.Probabilities(cfg.N, cfg.Lambda), pub, secrets)
		mcfg := chenmicali.Config{
			N: cfg.N, Epochs: cfg.Epochs, Lambda: cfg.Lambda, Erasure: cfg.Erasure,
			Suite: suite, PKI: pub,
		}
		nodes, keys, err := chenmicali.NewNodes(mcfg, cfg.Inputs, secrets)
		return nodes, func(id types.NodeID) any { return keys[id] }, mcfg.Rounds() + 1, err
	})

	RegisterProtocol(DolevStrong, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		dcfg := dolevstrong.Config{N: cfg.N, F: cfg.F, Sender: cfg.Sender, PKI: pub}
		nodes, err := dolevstrong.NewNodes(dcfg, cfg.SenderInput, secrets)
		return nodes, func(id types.NodeID) any { return secrets[id] }, dcfg.Rounds(), err
	})

	RegisterProtocol(CommitteeEcho, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		ecfg := committee.Config{N: cfg.N, CommitteeSize: cfg.CommitteeSize, Sender: cfg.Sender, CRS: cfg.Seed}
		nodes, err := committee.NewNodes(ecfg, cfg.SenderInput)
		return nodes, nil, ecfg.Rounds(), err
	})
}
