package scenario

import (
	"fmt"
	"sort"

	"ccba/internal/chenmicali"
	"ccba/internal/core"
	"ccba/internal/netsim"
	"ccba/internal/phaseking"
	"ccba/internal/types"
)

// Scenario is one declarative, runnable experiment setting: protocol ×
// N/F/λ × network model × inputs (all carried by the Config) plus an
// adversary resolved by name through the adversary registry. Scenarios are
// plain values — construct them inline or register them by name so the cmd
// binaries can resolve them with -scenario.
type Scenario struct {
	// Name keys the scenario registry (empty for inline scenarios).
	Name string
	// Description is the one-line summary -scenarios listings print.
	Description string
	// Config is the base execution config. Its Seed and Adversary fields
	// are overwritten per trial by Resolve.
	Config Config
	// Adversary names the corruption strategy in the adversary registry
	// ("" = passive).
	Adversary string
	// Chaos, when set, declares a live-cluster fault schedule. The
	// simulator path (Run) ignores it — simulated faults are expressed
	// through Config.Net — but cmd/cluster applies it to live runs, and the
	// cross-validation harness lowers it to both runtimes (DESIGN.md §7).
	Chaos *ChaosConfig
}

// Resolve produces the per-trial Config: the trial seed is installed, the
// inputs deep-copied (trials must never share a mutable slice), and a fresh
// adversary built from the registry — adversaries are stateful, so one
// instance must never serve two trials.
func (s Scenario) Resolve(seed [32]byte, trial int) (Config, error) {
	cfg := s.Config
	cfg.Seed = seed
	if cfg.Inputs != nil {
		cfg.Inputs = append([]types.Bit(nil), cfg.Inputs...)
	}
	adv, err := NewAdversary(s.Adversary, cfg, trial)
	if err != nil {
		return Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	cfg.Adversary = adv
	return cfg, nil
}

// Run resolves the scenario for one trial and executes it.
func (s Scenario) Run(seed [32]byte, trial int) (*Report, error) {
	cfg, err := s.Resolve(seed, trial)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

// ---------------------------------------------------------------------------
// Scenario registry.

var registry = map[string]Scenario{}

// Register adds a named scenario. Empty or duplicate names are rejected.
func Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("scenario: %q registered twice", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// MustRegister is Register for init-time wiring; it panics on error.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Adversary registry.

// AdversaryFactory builds one fresh adversary instance for one trial of a
// resolved config. Factories scale to the config (N, F, Epochs, …) and may
// reject protocols they do not apply to.
type AdversaryFactory func(cfg Config, trial int) (netsim.Adversary, error)

var adversaries = map[string]AdversaryFactory{}

// RegisterAdversary adds a named adversary factory; duplicates panic.
func RegisterAdversary(name string, f AdversaryFactory) {
	if name == "" || f == nil {
		panic("scenario: RegisterAdversary with empty name or nil factory")
	}
	if _, dup := adversaries[name]; dup {
		panic(fmt.Sprintf("scenario: adversary %q registered twice", name))
	}
	adversaries[name] = f
}

// NewAdversary builds a fresh instance of the named adversary for one
// trial. The empty name and "none" resolve to the passive adversary (nil).
// The factory sees the config with defaults applied, so parameters it
// scales to (Epochs, Lambda, …) are the values the run will actually use —
// a factory reading a zero Epochs would, say, aim a flip attack at epoch
// 2³²−1 and silently never fire.
func NewAdversary(name string, cfg Config, trial int) (netsim.Adversary, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	f, ok := adversaries[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown adversary %q (registered: %v)", name, Adversaries())
	}
	cfg.applyDefaults()
	return f(cfg, trial)
}

// Adversaries returns the registered adversary names, sorted.
func Adversaries() []string {
	out := make([]string, 0, len(adversaries)+1)
	out = append(out, "none")
	for name := range adversaries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// silentStatic statically corrupts the first f nodes; they stay silent —
// the worst case for the honest-quorum margin, and the strategy the cmd
// binaries and three experiment generators each used to hand-roll.
type silentStatic struct{ netsim.Passive }

// Setup implements netsim.Adversary.
func (silentStatic) Setup(ctx *netsim.Ctx) {
	for i := 0; i < ctx.F(); i++ {
		if _, err := ctx.Corrupt(types.NodeID(i)); err != nil {
			return
		}
	}
}

// latterVictims returns the back half of the node set — the victim list the
// flip attacks target.
func latterVictims(n int) []types.NodeID {
	victims := make([]types.NodeID, 0, n/2)
	for i := n / 2; i < n; i++ {
		victims = append(victims, types.NodeID(i))
	}
	return victims
}

func init() {
	RegisterAdversary("silent", func(Config, int) (netsim.Adversary, error) {
		return silentStatic{}, nil
	})
	// flip is the weakly adaptive quorum-flip family: the protocol decides
	// which concrete attack applies.
	RegisterAdversary("flip", func(cfg Config, _ int) (netsim.Adversary, error) {
		switch cfg.Protocol {
		case Core, CoreBroadcast:
			return &core.VoteFlipAttack{}, nil
		case ChenMicali:
			return &chenmicali.FlipAttack{TargetEpoch: uint32(cfg.Epochs - 1), Victims: latterVictims(cfg.N)}, nil
		case PhaseKingSampled:
			return &phaseking.FlipAttack{TargetEpoch: uint32(cfg.Epochs - 1), Victims: latterVictims(cfg.N)}, nil
		default:
			return nil, fmt.Errorf("adversary \"flip\" supports protocols %q, %q, %q, and %q, not %q",
				Core, CoreBroadcast, ChenMicali, PhaseKingSampled, cfg.Protocol)
		}
	})

	// Builtin scenarios: the settings the cmd binaries and examples reach
	// for by name.
	MustRegister(Scenario{
		Name:        "core-n200",
		Description: "core protocol, hybrid F_mine world, n=200 f=60 λ=40, passive adversary",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40},
	})
	MustRegister(Scenario{
		Name:        "core-real-n200",
		Description: "core protocol under the Appendix D compiler (Ed25519 VRF), n=200 f=60 λ=40",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40, Crypto: Real},
	})
	MustRegister(Scenario{
		Name:        "core-silent-n200",
		Description: "core protocol vs silent-static corruption of the first f nodes",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40},
		Adversary:   "silent",
	})
	MustRegister(Scenario{
		Name:        "core-flip-n200",
		Description: "core protocol vs the adaptive vote-flip attack (§3.2 key insight)",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40},
		Adversary:   "flip",
	})
	MustRegister(Scenario{
		Name:        "chenmicali-flip-n150",
		Description: "§3.3 Remark: quorum flip vs bit-free eligibility, unanimous-1 inputs",
		Config: Config{Protocol: ChenMicali, N: 150, F: 50, Lambda: 40, Epochs: 8,
			InputPattern: InputsUnanimous1},
		Adversary: "flip",
	})
	MustRegister(Scenario{
		Name:        "core-delta3-n200",
		Description: "core protocol under worst-case Δ=3 scheduling (every link held to the bound)",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40, MaxIters: 12, Net: NetWorstCase, Delta: 3},
	})
	MustRegister(Scenario{
		Name:        "core-jitter3-n200",
		Description: "core protocol under seeded random per-link delay in [1, 3]",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40, MaxIters: 12, Net: NetJitter, Delta: 3},
	})
	MustRegister(Scenario{
		Name:        "core-omission-n200",
		Description: "core protocol with f omission-faulty senders dropping 25% of their links",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40, Net: NetOmission, OmissionRate: 0.25},
	})
	MustRegister(Scenario{
		Name:        "core-partition-n200",
		Description: "core protocol under a temporary half/half partition held to Δ=3 for 6 rounds",
		Config:      Config{Protocol: Core, N: 200, F: 60, Lambda: 40, MaxIters: 12, Net: NetPartition, Delta: 3},
	})
	MustRegister(Scenario{
		Name:        "core-chaos-n32",
		Description: "live-cluster chaos: Δ=2 synchronizer, f faulty senders dropping 20% of data frames",
		Config:      Config{Protocol: Core, N: 32, F: 9, Lambda: 10, MaxIters: 12},
		Chaos:       &ChaosConfig{Delta: 2, DropRate: 0.2},
	})
	MustRegister(Scenario{
		Name:        "core-sparse-n100k",
		Description: "core protocol under Sparse (lockstep assertion, intern statistics), n=100,000 f=30,000 λ=40",
		Config:      Config{Protocol: Core, N: 100_000, F: 30_000, Lambda: 40, Sparse: true},
	})
	MustRegister(Scenario{
		Name:        "quadratic-n49",
		Description: "quadratic baseline (Appendix C.1), n=49 f=24",
		Config:      Config{Protocol: Quadratic, N: 49, F: 24, MaxIters: 40},
	})
	MustRegister(Scenario{
		Name:        "dolevstrong-n48",
		Description: "Dolev–Strong broadcast, n=48 f=16, sender 0 broadcasting 1",
		Config:      Config{Protocol: DolevStrong, N: 48, F: 16, SenderInput: types.One},
	})
	MustRegister(Scenario{
		Name:        "committee-n64",
		Description: "static CRS committee echo broadcast, n=64",
		Config:      Config{Protocol: CommitteeEcho, N: 64, F: 0},
	})
	MustRegister(Scenario{
		Name:        "phaseking-sampled-n200",
		Description: "sub-sampled phase-king (§3.2), n=200 f=40 λ=40",
		Config:      Config{Protocol: PhaseKingSampled, N: 200, F: 40, Lambda: 40},
	})
	// Async track (§11): event-driven runtime, seeded schedulers.
	MustRegister(Scenario{
		Name:        "brb-n16",
		Description: "Bracha reliable broadcast on the event runtime, n=16 f=5, sender 3 broadcasting 1",
		Config:      Config{Protocol: BRB, N: 16, F: 5, Sender: 3, SenderInput: types.One, Sched: SchedRandom},
	})
	MustRegister(Scenario{
		Name:        "aba-n16",
		Description: "common-coin binary agreement on the event runtime, n=16 f=5, mixed inputs, random scheduler",
		Config:      Config{Protocol: ABA, N: 16, F: 5, Sched: SchedRandom},
	})
	MustRegister(Scenario{
		Name:        "aba-adv-n16",
		Description: "common-coin binary agreement under the adversarial-delay scheduler, n=16 f=5",
		Config:      Config{Protocol: ABA, N: 16, F: 5, Sched: SchedAdvDelay},
	})
	MustRegister(Scenario{
		Name:        "acs-n16",
		Description: "BKR agreement on a common subset, n=16 f=5, random scheduler",
		Config:      Config{Protocol: ACS, N: 16, F: 5, Sched: SchedRandom},
	})
	MustRegister(Scenario{
		Name:        "acs-crash-n16",
		Description: "BKR common subset with f crash-faulty nodes under the adversarial-delay scheduler, n=16 f=5",
		Config:      Config{Protocol: ACS, N: 16, F: 5, Sched: SchedAdvDelay, Crashes: 5},
	})
}
