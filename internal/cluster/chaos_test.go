package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// chaosBase is the n = 24 core config the plan tests start from.
var chaosBase = scenario.Config{Protocol: scenario.Core, N: 24, F: 7, Lambda: 8, MaxIters: 12}

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
