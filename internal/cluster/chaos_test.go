package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
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

// netModelCases declares every network model the equivalence runs: the
// classic models, and the chaos composite's faults alone and together.
// delta-one runs at Δ = 1 only. The models that only delay — delta, jitter
// and partition — hold nothing at Δ = 1, so both runtimes refuse them
// there, and so does a chaos partition.
var netModelCases = []struct {
	name  string
	set   func(*scenario.Config)
	delta []int
}{
	{"delta-one", func(c *scenario.Config) {}, []int{1}},
	{"delta", func(c *scenario.Config) { c.Net = scenario.NetWorstCase }, []int{1, 2, 3}},
	{"jitter", func(c *scenario.Config) { c.Net = scenario.NetJitter }, []int{1, 2, 3}},
	{"omission", func(c *scenario.Config) { c.Net, c.OmissionRate = scenario.NetOmission, 0.25 }, []int{1, 2, 3}},
	{"partition", func(c *scenario.Config) { c.Net = scenario.NetPartition }, []int{1, 2, 3}},
	{"chaos-drop", func(c *scenario.Config) { c.Net, c.OmissionRate = scenario.NetChaos, 0.3 }, []int{1, 2, 3}},
	{"chaos-crash", func(c *scenario.Config) { c.Net, c.CrashFrom, c.CrashRounds = scenario.NetChaos, 1, 3 }, []int{1, 2, 3}},
	{"chaos-drop-crash", func(c *scenario.Config) {
		c.Net, c.OmissionRate, c.CrashFrom, c.CrashRounds = scenario.NetChaos, 0.3, 1, 3
	}, []int{1, 2, 3}},
	{"chaos-all", func(c *scenario.Config) {
		c.Net, c.OmissionRate, c.CrashFrom, c.CrashRounds, c.PartitionRounds = scenario.NetChaos, 0.3, 1, 3, 4
	}, []int{2, 3}},
}

// TestNetModelsLiveMatchSim runs one config through scenario.Run and
// through cluster.Run, for every network model at Δ ∈ {1, 2, 3} over chan
// and for the chaos composite over a 4-node loopback TCP mesh: the Result
// and the canonical trace must be identical, or, for a delay-only model at
// Δ = 1, both runtimes must refuse the config in the same words. A live
// node files each frame for the round the simulator delivers it in, so
// delays, drops and partitions reach both runtimes alike.
func TestNetModelsLiveMatchSim(t *testing.T) {
	for _, tc := range netModelCases {
		for _, delta := range tc.delta {
			name := tc.name
			if delta > 1 {
				name = fmt.Sprintf("%s-delta%d", tc.name, delta)
			}
			t.Run(name, func(t *testing.T) {
				cfg := chaosBase
				tc.set(&cfg)
				if delta > 1 {
					cfg.Delta = delta
				}
				cfg.Seed[0] = 9
				if _, simErr := scenario.Run(cfg); simErr != nil {
					if delta != 1 || !strings.Contains(simErr.Error(), "only delays") {
						t.Fatal(simErr)
					}
					netw, err := transport.NewChanNetwork(cfg.N)
					if err != nil {
						t.Fatal(err)
					}
					defer netw.Close()
					if _, err := Run(context.Background(), cfg, netw, Options{}); err == nil || err.Error() != simErr.Error() {
						t.Fatalf("live error %v, simulator error %q", err, simErr)
					}
					return
				}
				assertLiveTraceMatchesSim(t, cfg, func(opts Options) *Report { return runChan(t, cfg, opts) })
			})
		}
	}
	t.Run("tcp-chaos-all-delta2", func(t *testing.T) {
		cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3, MaxIters: 12,
			Net: scenario.NetChaos, Delta: 2, OmissionRate: 0.4, CrashFrom: 1, CrashRounds: 2, PartitionRounds: 3}
		cfg.Seed[0] = 7
		assertLiveTraceMatchesSim(t, cfg, func(opts Options) *Report {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer netw.Close()
			opts.RoundTimeout = 30 * time.Second
			live, err := Run(ctx, cfg, netw, opts)
			if err != nil {
				t.Fatal(err)
			}
			return live
		})
	})
}

// assertLiveTraceMatchesSim runs cfg on the simulator and through live
// (which runs it with the given options) with a trace recorder each, and
// requires equal Results and byte-identical canonical traces.
func assertLiveTraceMatchesSim(t *testing.T, cfg scenario.Config, live func(Options) *Report) {
	t.Helper()
	simRec := obs.NewRecorder(0)
	cfg.Tracer = simRec
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveRec := obs.NewRecorder(0)
	assertSameResult(t, live(Options{Tracer: liveRec}), sim)
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
}

// TestChaosDeltaTwoSafety runs the full chaos menu — drops, per-link
// jitter, and a timed partition — under Δ = 2 on the chan mesh: each seed
// is the simulator's execution exactly.
func TestChaosDeltaTwoSafety(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 8, MaxIters: 12,
		Net: scenario.NetChaos, Delta: 2, OmissionRate: 0.2, PartitionRounds: 4}
	for seed := byte(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := cfg
			cfg.Seed[0] = seed
			sim, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, runChan(t, cfg, Options{}), sim)
		})
	}
}

// TestChaosOverTCPCluster drives a chaos schedule over real sockets: a
// 4-node TCP mesh with Δ=2 delays and drops, whose per-link markers
// interleave as the network pleases. The run must be the simulator's.
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
	live, err := Run(ctx, cfg, netw, Options{RoundTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, live, sim)
}

// TestChaosDelaysAreRounds: prepare keeps the config's one lowering — the
// chaos Δ with its jitter spread, the partition at N/2 and the faulty mask,
// already in the form Validate returns — since a delay is a number of
// rounds; delta-one keeps no model at all.
func TestChaosDelaysAreRounds(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 8, Net: scenario.NetChaos, Delta: 3,
		OmissionRate: 0.3, PartitionRounds: 2}
	p, err := prepare(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := p.net
	if fs.Delta != 3 || fs.Spread != netsim.SpreadJitter {
		t.Fatalf("model (Δ %d, spread %d), want (3, jitter)", fs.Delta, fs.Spread)
	}
	if int(fs.Cut) != cfg.N/2 || fs.CutFrom != 0 || fs.CutUntil != 2 {
		t.Fatalf("partition (%d, [%d, %d)), want cut 8 rounds [0, 2)", fs.Cut, fs.CutFrom, fs.CutUntil)
	}
	if mask, err := fs.Validate(cfg.N, cfg.F); err != nil || !reflect.DeepEqual(mask, fs.Faulty) {
		t.Fatalf("faulty mask %v, Validate's %v (%v)", fs.Faulty, mask, err)
	}
	if lockstep, err := prepare(chaosBase, Options{}); err != nil || lockstep.net != nil {
		t.Fatalf("delta-one plan keeps a network model: %+v, %v", lockstep.net, err)
	}
}

// linkDelay is the rounds a round-r frame from from takes to reach to under
// p's schedule, as to's runner files it, or 0 when the schedule drops it.
func linkDelay(p *plan, round int, from, to types.NodeID) int {
	at, ok := (&runner{plan: p, self: to}).arrival(uint32(round), from)
	if !ok {
		return 0
	}
	return int(at) - round
}

// TestChaosDropMatchesSimulatorDecision checks the recipient's rule link by
// link against Decide across rate drops, a crash window, a partition hold
// and Δ = 3 jitter: a faulty sender's dropped link is lost, any other delay
// is Decide's, and a self-link takes one round. The sender's trace carries
// one fault event per dropped link, with Decide's kind, numbered per
// (round, sender) in (send, recipient) order.
func TestChaosDropMatchesSimulatorDecision(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 8, Net: scenario.NetChaos, Delta: 3,
		OmissionRate: 0.3, CrashFrom: 5, CrashRounds: 7, PartitionRounds: 10}
	cfg.Seed[0] = 7
	rec := obs.NewRecorder(0)
	p, err := prepare(cfg, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	fs := p.net
	seen := map[string]int{}
	for r := 0; r < 24; r++ {
		for from := types.NodeID(0); int(from) < cfg.N; from++ {
			// Two multicasts and a unicast to node 3 per sender and round.
			seq, sender := 0, p.newRunner(from, nil)
			for _, to := range []types.NodeID{types.Broadcast, types.Broadcast, 3} {
				sender.traceDrops(r, to, &seq)
			}
			for to := types.NodeID(0); int(to) < cfg.N; to++ {
				got := linkDelay(p, r, from, to)
				d, kind := fs.Decide(r, from, to)
				var want int
				switch {
				case from == to:
					want = 1
				case d == netsim.Drop && fs.Faulty[from]:
					want = 0
					seen[kind.String()]++
				case d == netsim.Drop:
					t.Fatalf("round %d: Decide drops honest sender %d's link to %d", r, from, to)
				default:
					want = d
					if want > 1 {
						seen["hold"]++
					}
				}
				if got != want {
					t.Fatalf("round %d %d→%d: delay %d, want %d (Decide %d, %s)", r, from, to, got, want, d, kind)
				}
			}
		}
	}
	if seen["drop"] == 0 || seen["crash"] == 0 || seen["hold"] == 0 {
		t.Fatalf("rate drops, the crash window or delays never exercised: %v", seen)
	}
	want := map[[3]int]int{} // (round, from, seq) → to, for every dropped link in send order
	for r := 0; r < 24; r++ {
		for from := types.NodeID(0); int(from) < cfg.N; from++ {
			seq := 0
			for _, to := range []types.NodeID{types.Broadcast, types.Broadcast, 3} {
				for j := 0; j < cfg.N; j++ {
					if (to == types.Broadcast || int(to) == j) && linkDelay(p, r, from, types.NodeID(j)) == 0 {
						want[[3]int{r, int(from), seq}] = j
						seq++
					}
				}
			}
		}
	}
	events := rec.Events()
	if len(events) != len(want) {
		t.Fatalf("%d fault events, want one per dropped link: %d", len(events), len(want))
	}
	for _, e := range events {
		_, kind := fs.Decide(int(e.Round), types.NodeID(e.Node), types.NodeID(e.A))
		if to, ok := want[[3]int{int(e.Round), int(e.Node), int(e.Seq)}]; e.Kind != obs.EvFault || !ok || int(e.A) != to || obs.FaultKind(e.B) != kind {
			t.Fatalf("traced %+v, want a fault to %d (ok %v) with Decide's kind %s", e, to, ok, kind)
		}
	}
}

// TestChaosCrashWindow: a crash window is total outbound data omission for
// its rounds; before and after it, the victim's frames flow.
func TestChaosCrashWindow(t *testing.T) {
	p := &plan{cfg: scenario.Config{N: 2}, net: &netsim.Faults{Delta: 1, Key: 42, Faulty: []bool{false, true}, Crash: 1, CrashFrom: 2, CrashUntil: 5}}
	for r := 0; r < 8; r++ {
		if got, want := linkDelay(p, r, 1, 0) > 0, r < 2 || r >= 5; got != want {
			t.Fatalf("round %d delivered=%v, want %v (crash window [2,5))", r, got, want)
		}
		if linkDelay(p, r, 1, 1) != 1 || linkDelay(p, r, 0, 1) != 1 {
			t.Fatalf("round %d: the self-link or the honest node's link lost its one-round delivery", r)
		}
	}
}

// TestChaosPowerBoundary: a faulty sender at drop rate 1 loses every link
// but its self-link, while an honest sender's frames all arrive next round.
// That Decide drops no honest link under any schedule Validate accepts is
// netsim's TestFaultsPowerBoundary.
func TestChaosPowerBoundary(t *testing.T) {
	p := &plan{cfg: scenario.Config{N: 3}, net: &netsim.Faults{Delta: 2, Key: 1, Faulty: []bool{true, false, false}, Rate: 1}}
	for r := 0; r < 8; r++ {
		for to := types.NodeID(0); to < 3; to++ {
			want := 0
			if to == 0 {
				want = 1
			}
			if got := linkDelay(p, r, 0, to); got != want {
				t.Fatalf("round %d: faulty 0→%d delay %d, want %d", r, to, got, want)
			}
			if got := linkDelay(p, r, 1, to); got != 1 {
				t.Fatalf("round %d: honest 1→%d delay %d, want 1", r, to, got)
			}
		}
	}
}

// TestChaosOptionGuards pins the configuration errors that keep a live run
// honest: a declared fault that could not act is rejected, as the
// simulator rejects it.
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
		want string
	}{
		{"partition at delta one", func(c *scenario.Config) { c.Net, c.PartitionRounds = scenario.NetChaos, 2 }, "Δ ≥ 2"},
		{"drops without a faulty set", func(c *scenario.Config) { c.Net, c.F, c.OmissionRate = scenario.NetChaos, 0, 0.1 }, "faulty"},
		// Refused by Normalized, in the config's words, before its lowering
		// could default a one-node faulty set past F = 0.
		{"crash window without a budget", func(c *scenario.Config) { c.Net, c.F, c.CrashRounds = scenario.NetChaos, 0, 2 }, "a crash window (CrashRounds=2) crashes a faulty sender and needs F ≥ 1, got F=0"},
	} {
		cfg := base
		tc.set(&cfg)
		if _, err := Run(context.Background(), cfg, netw, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
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

// TestDeltaSynchronizerTorture shakes the synchronizer with randomized
// per-node scheduling delays: 32 core nodes on the chan mesh, each pausing
// a seed-random duration before every multicast, under Δ = 1 (delta-one)
// and Δ ∈ {2, 3} (jitter at that Δ), nine seeds each (27 runs). Nodes
// reach each barrier in a different order every run, and each run must
// still be the simulator's: Δ-synchrony is an assumption about the
// network, not about the nodes stepping in lockstep, and a node leaves a
// round only once all n have synced.
func TestDeltaSynchronizerTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run skipped in -short mode")
	}
	base := scenario.Config{Protocol: scenario.Core, N: 32, F: 9, Lambda: 10, MaxIters: 12}
	for _, delta := range []int{1, 2, 3} {
		for seed := byte(1); seed <= 9; seed++ {
			t.Run(fmt.Sprintf("delta-%d-seed-%d", delta, seed), func(t *testing.T) {
				cfg := base
				if delta > 1 {
					cfg.Net, cfg.Delta = scenario.NetJitter, delta
				}
				cfg.Seed[0] = seed
				sim, err := scenario.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				inner, err := transport.NewChanNetwork(cfg.N)
				if err != nil {
					t.Fatal(err)
				}
				defer inner.Close()
				netw := newLaggedNetwork(inner, uint64(seed)*1000+uint64(delta), 2*time.Millisecond)
				live, err := Run(context.Background(), cfg, netw, Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, live, sim)
			})
		}
	}
}

// TestTortureLockstepAnchor re-anchors the torture family: with no
// scheduling skew, a Δ=1 run is bit-identical to the lockstep simulator,
// its per-node metrics included.
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
	live, err := Run(context.Background(), cfg, netw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameExecution(t, live, sim)
}
