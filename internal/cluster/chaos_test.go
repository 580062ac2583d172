package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
)

// chaosBase is the n = 24 core config the Δ = 1 cross-validations run.
var chaosBase = scenario.Config{Protocol: scenario.Core, N: 24, F: 7, Lambda: 8, MaxIters: 12}

// TestChaosLiveMatchesSimDropOnly is the headline cross-validation claim:
// a Δ=1 chaos run — drops on seed-chosen faulty senders, decided per
// (round, from, to) by the shared netsim.Faults.Decide — executes the exact
// schedule the simulator runs, so every protocol-visible fact matches bit
// for bit, seed by seed.
func TestChaosLiveMatchesSimDropOnly(t *testing.T) {
	for seed := byte(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := chaosBase
			cfg.Net, cfg.OmissionRate = scenario.NetChaos, 0.25
			cfg.Seed[0] = seed
			sim, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameExecution(t, runChan(t, cfg, Options{}), sim)
		})
	}
}

// TestChaosLiveMatchesSimCrash cross-validates the crash/restart window:
// the victim (the first seed-chosen faulty node) goes dark for the same
// rounds on both runtimes, so the executions still match exactly.
func TestChaosLiveMatchesSimCrash(t *testing.T) {
	for seed := byte(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := chaosBase
			cfg.Net, cfg.CrashFrom, cfg.CrashRounds = scenario.NetChaos, 2, 4
			cfg.Seed[0] = seed
			sim, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameExecution(t, runChan(t, cfg, Options{}), sim)
		})
	}
}

// TestChaosLiveMatchesOmissionScenario checks the seed-derivation bridge
// from the other side: a drop-only chaos run must reproduce the simulator's
// *standalone* NetOmission model — same derived seed, same faulty set, same
// per-link decisions — not just the chaos lowering of the schedule.
func TestChaosLiveMatchesOmissionScenario(t *testing.T) {
	cfg := chaosBase
	cfg.Seed[0] = 42
	cfg.OmissionRate = 0.25
	simCfg := cfg
	simCfg.Net = scenario.NetOmission
	sim, err := scenario.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Net = scenario.NetChaos
	assertSameExecution(t, runChan(t, cfg, Options{}), sim)
}

// TestNetModelsLiveMatchSim runs one config through scenario.Run and
// through cluster.Run over chan at Δ = 1 for every model that drops: the
// Result and the canonical trace must be identical.
func TestNetModelsLiveMatchSim(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*scenario.Config)
	}{
		{"omission", func(c *scenario.Config) { c.Net, c.OmissionRate = scenario.NetOmission, 0.25 }},
		{"chaos-drop", func(c *scenario.Config) { c.Net, c.OmissionRate = scenario.NetChaos, 0.3 }},
		{"chaos-crash", func(c *scenario.Config) { c.Net, c.CrashFrom, c.CrashRounds = scenario.NetChaos, 1, 3 }},
		{"chaos-drop-crash", func(c *scenario.Config) {
			c.Net, c.OmissionRate, c.CrashFrom, c.CrashRounds = scenario.NetChaos, 0.3, 1, 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosBase
			tc.set(&cfg)
			cfg.Seed[0] = 9
			simRec := obs.NewRecorder(0)
			cfg.Tracer = simRec
			sim, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			liveRec := obs.NewRecorder(0)
			cfg.Tracer = nil
			live := runChan(t, cfg, Options{Tracer: liveRec})
			assertSameResult(t, live, sim)
			var simTrace, liveTrace bytes.Buffer
			if err := simRec.WriteJSONL(&simTrace); err != nil {
				t.Fatal(err)
			}
			if err := liveRec.WriteJSONL(&liveTrace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(simTrace.Bytes(), liveTrace.Bytes()) {
				t.Errorf("canonical traces differ: sim %d bytes, live %d bytes", simTrace.Len(), liveTrace.Len())
			}
		})
	}
}

// TestChaosDeltaTwoSafety runs the full chaos menu — drops, deterministic
// delays, reorders, and a timed partition — under the Δ=2 synchronizer on
// the chan mesh. Schedules no longer match the simulator round for round
// (real-time delays have no lockstep counterpart), so the claim is the
// paper's: agreement and validity hold under any Δ-respecting schedule.
func TestChaosDeltaTwoSafety(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 8, MaxIters: 12,
		Net: scenario.NetChaos, Delta: 2, OmissionRate: 0.2, PartitionRounds: 4}
	opts := Options{RoundInterval: 3 * time.Millisecond, RoundTimeout: 30 * time.Second, Reorder: 0.3}
	for seed := byte(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := cfg
			cfg.Seed[0] = seed
			live := runChan(t, cfg, opts)
			if live.Consistency != nil || live.Validity != nil {
				t.Fatalf("safety violated: consistency=%v validity=%v", live.Consistency, live.Validity)
			}
			sim, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Consistency != nil || sim.Validity != nil {
				t.Fatalf("simulated safety violated: consistency=%v validity=%v", sim.Consistency, sim.Validity)
			}
		})
	}
}

// TestChaosOverTCPCluster drives a chaos schedule over real sockets: a
// 4-node TCP mesh with Δ=2 delays and reorders injected below the framing
// layer. Safety must hold and the run must complete.
func TestChaosOverTCPCluster(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3,
		Net: scenario.NetChaos, Delta: 2, OmissionRate: 0.25, OmissionFaulty: 1}
	cfg.Seed[0] = 7
	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	opts := Options{RoundInterval: 5 * time.Millisecond, RoundTimeout: 30 * time.Second, Reorder: 0.3}
	live, err := Run(ctx, cfg, netw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if live.Consistency != nil || live.Validity != nil {
		t.Fatalf("safety violated: consistency=%v validity=%v", live.Consistency, live.Validity)
	}
}

// TestChaosDelaysScaleWithInterval: prepare hands the injection layer the
// config's one lowering — the chaos Δ with its jitter spread and the
// partition at N/2 — and the synchronizer's interval, which turns the
// schedule's round delays into holds (the transport tests pin the holds).
func TestChaosDelaysScaleWithInterval(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 8, Net: scenario.NetChaos, Delta: 3, PartitionRounds: 2}
	p, err := prepare(cfg, Options{RoundInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	spec := p.chaos
	if spec.Interval != 10*time.Millisecond || spec.Faults.Delta != 3 || spec.Faults.Spread != netsim.SpreadJitter {
		t.Fatalf("spec (interval %v, Δ %d, spread %d), want (10ms, 3, jitter)", spec.Interval, spec.Faults.Delta, spec.Faults.Spread)
	}
	if fs := spec.Faults; int(fs.Cut) != cfg.N/2 || fs.CutFrom != 0 || fs.CutUntil != 2 {
		t.Fatalf("partition (%d, [%d, %d)), want cut 8 rounds [0, 2)", fs.Cut, fs.CutFrom, fs.CutUntil)
	}
	if p.opts.Delta != 3 {
		t.Fatalf("synchronizer Δ %d, want the config's 3", p.opts.Delta)
	}
}

// TestChaosOptionGuards pins the configuration errors that keep injected
// runs honest: time-based injection without a soft round deadline would
// stall the all-ack barrier, a synchronizer budgeted below the model's Δ
// would let injected delays outrun the buffer, and the injection layer's
// live-only rules hold for every model, delta-one included.
func TestChaosOptionGuards(t *testing.T) {
	base := scenario.Config{Protocol: scenario.Core, N: 8, F: 2, Lambda: 4}
	netw, err := transport.NewChanNetwork(base.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	for _, tc := range []struct {
		name string
		set  func(*scenario.Config)
		opts Options
		want string
	}{
		{"reorder without interval", func(c *scenario.Config) { c.Net, c.Delta = scenario.NetChaos, 2 }, Options{Reorder: 0.5}, "RoundInterval"},
		{"under-budgeted synchronizer", func(c *scenario.Config) { c.Net, c.Delta, c.OmissionRate = scenario.NetChaos, 3, 0.1 }, Options{Delta: 2}, "budgeted"},
		{"reorder at delta one", func(c *scenario.Config) {}, Options{Reorder: 0.5, RoundInterval: time.Millisecond}, "Δ ≥ 2"},
		{"partition at delta one", func(c *scenario.Config) { c.Net, c.PartitionRounds = scenario.NetChaos, 2 }, Options{}, "Δ ≥ 2"},
	} {
		cfg := base
		tc.set(&cfg)
		if _, err := Run(context.Background(), cfg, netw, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// laggedNetwork wraps a network so every node pauses for a seed-random
// duration before each multicast — per-node scheduling skew, the fault the
// synchronizer (not the protocol) must absorb.
type laggedNetwork struct {
	transport.Network
	eps []transport.Transport
}

type laggedTransport struct {
	transport.Transport
	mu     sync.Mutex
	rng    *rand.Rand
	maxLag time.Duration
}

func (l *laggedTransport) lag() {
	l.mu.Lock()
	d := time.Duration(l.rng.Int64N(int64(l.maxLag)))
	l.mu.Unlock()
	time.Sleep(d)
}

func (l *laggedTransport) Multicast(env transport.Envelope) error {
	l.lag()
	return l.Transport.Multicast(env)
}

func newLaggedNetwork(inner transport.Network, seed uint64, maxLag time.Duration) *laggedNetwork {
	eps := make([]transport.Transport, len(inner.Endpoints()))
	for i, ep := range inner.Endpoints() {
		eps[i] = &laggedTransport{
			Transport: ep,
			rng:       rand.New(rand.NewPCG(seed, uint64(i))),
			maxLag:    maxLag,
		}
	}
	return &laggedNetwork{Network: inner, eps: eps}
}

func (l *laggedNetwork) Endpoints() []transport.Transport { return l.eps }

// TestDeltaSynchronizerTorture shakes the Δ-budgeted synchronizer with
// randomized per-node scheduling delays: 32 core nodes on the chan mesh,
// each pausing a seed-random duration every round, under Δ ∈ {1, 2, 3} and
// nine seeds each (27 runs). Soft deadlines fire, nodes skew apart up to
// the Δ cap, early traffic gets buffered — and agreement plus validity must
// hold every single time. The paper's claim under test is exactly this:
// Δ-synchrony is an assumption about the network, not about the nodes
// stepping in lockstep.
func TestDeltaSynchronizerTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run skipped in -short mode")
	}
	cfg := scenario.Config{Protocol: scenario.Core, N: 32, F: 9, Lambda: 10, MaxIters: 12}
	for _, delta := range []int{1, 2, 3} {
		for seed := byte(1); seed <= 9; seed++ {
			t.Run(fmt.Sprintf("delta-%d-seed-%d", delta, seed), func(t *testing.T) {
				cfg := cfg
				cfg.Seed[0] = seed
				inner, err := transport.NewChanNetwork(cfg.N)
				if err != nil {
					t.Fatal(err)
				}
				defer inner.Close()
				netw := newLaggedNetwork(inner, uint64(seed)*1000+uint64(delta), 2*time.Millisecond)
				opts := Options{
					Delta:         delta,
					RoundInterval: 3 * time.Millisecond,
					RoundTimeout:  30 * time.Second,
				}
				rep, err := Run(context.Background(), cfg, netw, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Consistency != nil || rep.Validity != nil {
					t.Fatalf("safety violated: consistency=%v validity=%v", rep.Consistency, rep.Validity)
				}
				if rep.Termination != nil {
					t.Fatalf("termination failed under scheduling skew alone: %v", rep.Termination)
				}
			})
		}
	}
}

// TestTortureLockstepAnchor re-anchors the torture family: with the same
// explicit options but no scheduling skew and no soft deadline, a Δ=1 run
// must remain bit-identical to the lockstep simulator — the equivalence the
// skewed runs deliberately depart from.
func TestTortureLockstepAnchor(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 32, F: 9, Lambda: 10, MaxIters: 12}
	cfg.Seed[0] = 3
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	live, err := Run(context.Background(), cfg, netw, Options{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameExecution(t, live, sim)
}
