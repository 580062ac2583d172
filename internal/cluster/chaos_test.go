package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/scenario"
	"ccba/internal/transport"
)

// runChaosChan executes cfg live on a fresh chan network with the chaos
// declaration injected.
func runChaosChan(t *testing.T, cfg scenario.Config, chaos scenario.ChaosConfig, opts Options) *Report {
	t.Helper()
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	opts.Chaos = &chaos
	rep, err := Run(context.Background(), cfg, netw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosLiveMatchesSimDropOnly is the headline cross-validation claim:
// a Δ=1 delay-free chaos run — drops on seed-chosen faulty senders, decided
// per (round, from, to) by the shared netsim.Faults.Decide — executes the
// exact schedule the simulator runs, so every protocol-visible fact matches
// bit for bit, seed by seed.
func TestChaosLiveMatchesSimDropOnly(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 24, F: 7, Lambda: 8, MaxIters: 12}
	chaos := scenario.ChaosConfig{DropRate: 0.25}
	for seed := byte(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := cfg
			cfg.Seed[0] = seed
			sim, err := chaos.SimRun(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := runChaosChan(t, cfg, chaos, Options{})
			assertSameExecution(t, live, sim)
		})
	}
}

// TestChaosLiveMatchesSimCrash cross-validates the crash/restart window:
// the victim (the first seed-chosen faulty node) goes dark for the same
// rounds on both runtimes, so the executions still match exactly.
func TestChaosLiveMatchesSimCrash(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 24, F: 7, Lambda: 8, MaxIters: 12}
	chaos := scenario.ChaosConfig{CrashFrom: 2, CrashRounds: 4}
	for seed := byte(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := cfg
			cfg.Seed[0] = seed
			sim, err := chaos.SimRun(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := runChaosChan(t, cfg, chaos, Options{})
			assertSameExecution(t, live, sim)
		})
	}
}

// TestChaosLiveMatchesOmissionScenario checks the seed-derivation bridge
// from the other side: a drop-only chaos run must reproduce the simulator's
// *standalone* NetOmission model — same derived seed, same faulty set, same
// per-link decisions — not just the chaos lowering of the schedule.
func TestChaosLiveMatchesOmissionScenario(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 24, F: 7, Lambda: 8, MaxIters: 12}
	cfg.Seed[0] = 42
	simCfg := cfg
	simCfg.Net = scenario.NetOmission
	simCfg.OmissionRate = 0.25
	sim, err := scenario.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	live := runChaosChan(t, cfg, scenario.ChaosConfig{DropRate: 0.25}, Options{})
	assertSameExecution(t, live, sim)
}

// TestChaosDeltaTwoSafety runs the full chaos menu — drops, deterministic
// delays, reorders, and a timed partition — under the Δ=2 synchronizer on
// the chan mesh. Schedules no longer match the simulator round for round
// (real-time delays have no lockstep counterpart), so the claim is the
// paper's: agreement and validity hold under any Δ-respecting schedule.
func TestChaosDeltaTwoSafety(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 8, MaxIters: 12}
	chaos := scenario.ChaosConfig{Delta: 2, DropRate: 0.2, Reorder: 0.3, PartitionRounds: 4}
	opts := Options{RoundInterval: 3 * time.Millisecond, RoundTimeout: 30 * time.Second}
	for seed := byte(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := cfg
			cfg.Seed[0] = seed
			live := runChaosChan(t, cfg, chaos, opts)
			if live.Consistency != nil || live.Validity != nil {
				t.Fatalf("safety violated: consistency=%v validity=%v", live.Consistency, live.Validity)
			}
			sim, err := chaos.SimRun(context.Background(), cfg)
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
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3}
	cfg.Seed[0] = 7
	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	chaos := scenario.ChaosConfig{Delta: 2, DropRate: 0.25, Faulty: 1, Reorder: 0.3}
	opts := Options{RoundInterval: 5 * time.Millisecond, RoundTimeout: 30 * time.Second, Chaos: &chaos}
	live, err := Run(ctx, cfg, netw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if live.Consistency != nil || live.Validity != nil {
		t.Fatalf("safety violated: consistency=%v validity=%v", live.Consistency, live.Validity)
	}
}

// TestChaosOptionGuards pins the configuration errors that keep chaos runs
// honest: time-based injection without a soft round deadline would stall
// the all-ack barrier, and a synchronizer budgeted below the schedule's Δ
// would let injected delays outrun the buffer.
func TestChaosOptionGuards(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 8, F: 2, Lambda: 4}
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()

	_, err = Run(context.Background(), cfg, netw,
		Options{Chaos: &scenario.ChaosConfig{Delta: 2, Reorder: 0.5}})
	if err == nil || !strings.Contains(err.Error(), "RoundInterval") {
		t.Fatalf("delayed markers without a round interval accepted: %v", err)
	}

	_, err = Run(context.Background(), cfg, netw,
		Options{Delta: 2, Chaos: &scenario.ChaosConfig{Delta: 3, DropRate: 0.1}})
	if err == nil || !strings.Contains(err.Error(), "budgeted") {
		t.Fatalf("under-budgeted synchronizer accepted: %v", err)
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
