package transport_test

// The network model — drops, crash windows, delays and partitions — is
// applied by the live round loop to the frames a transport carries: the
// transport itself is lossless and every frame is sent, and the recipient
// files it for the round the model delivers it in, or loses it. These tests
// drive the model end to end over chan and TCP networks and check what a
// recipient reads against what was sent, from the run's trace.

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// linkKey counts traffic on one (round, sender, recipient) link.
type linkKey struct{ round, from, to int32 }

// traffic tallies a trace: sends per link (a multicast counts once on every
// link, the self-link included), deliveries per link keyed by the round
// they were read in, the rounds each node ran, and the senders the network
// dropped traffic of.
type traffic struct {
	n         int
	sent      map[linkKey]int
	delivered map[linkKey]int
	live      map[[2]int32]bool // (round, node)
	dropped   map[int32]int     // sender → fault events
}

func tally(n int, events []obs.Event) traffic {
	tr := traffic{n: n, sent: map[linkKey]int{}, delivered: map[linkKey]int{}, live: map[[2]int32]bool{}, dropped: map[int32]int{}}
	for _, e := range events {
		switch e.Kind {
		case obs.EvSend:
			if e.A == int32(types.Broadcast) {
				for j := int32(0); j < int32(n); j++ {
					tr.sent[linkKey{e.Round, e.Node, j}]++
				}
			} else {
				tr.sent[linkKey{e.Round, e.Node, e.A}]++
			}
		case obs.EvDeliver:
			tr.delivered[linkKey{e.Round, e.A, e.Node}]++
		case obs.EvRoundStart:
			tr.live[[2]int32{e.Round, e.Node}] = true
		case obs.EvFault:
			tr.dropped[e.Node]++
		}
	}
	return tr
}

// between sums a per-link tally over rounds [lo, hi] of one link.
func between(m map[linkKey]int, from, to, lo, hi int32) int {
	s := 0
	for r := lo; r <= hi; r++ {
		s += m[linkKey{r, from, to}]
	}
	return s
}

// runTraced runs cfg live over netw on the all-ack barrier with a trace
// recorder and returns the report and the recorded events.
func runTraced(t *testing.T, cfg scenario.Config, netw transport.Network, opts cluster.Options) (*cluster.Report, []obs.Event) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec := obs.NewRecorder(0)
	opts.Tracer = rec
	rep, err := cluster.Run(ctx, cfg, netw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistency != nil || rep.Validity != nil {
		t.Fatalf("safety violated: consistency=%v validity=%v", rep.Consistency, rep.Validity)
	}
	return rep, rec.Events()
}

// TestChaosPowerBoundary: at drop rate 1 over a chan network, a faulty
// sender's data reaches no one but itself, while every honest sender's
// data reaches every live recipient in the next round — the network may
// drop only a faulty sender's links. Sync markers never meet the model:
// the all-ack barrier, which needs every node's marker every round, lets
// the run finish.
func TestChaosPowerBoundary(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 8, F: 2, Lambda: 4, MaxIters: 12,
		Net: scenario.NetChaos, OmissionRate: 1}
	cfg.Seed[0] = 3
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	_, events := runTraced(t, cfg, netw, cluster.Options{})
	tr := tally(cfg.N, events)
	if len(tr.dropped) == 0 || len(tr.dropped) > cfg.F {
		t.Fatalf("%d senders lost traffic, want 1..F=%d: %v", len(tr.dropped), cfg.F, tr.dropped)
	}
	checked, lost := 0, 0
	for k, sent := range tr.sent {
		if !tr.live[[2]int32{k.round + 1, k.to}] {
			continue // the recipient no longer reads
		}
		want := sent
		if tr.dropped[k.from] > 0 && k.from != k.to {
			want = 0
			lost += sent
		}
		if got := tr.delivered[linkKey{k.round + 1, k.from, k.to}]; got != want {
			t.Fatalf("round %d %d→%d: %d sent, %d delivered, want %d (faulty sender: %v)",
				k.round, k.from, k.to, sent, got, want, tr.dropped[k.from] > 0)
		}
		checked++
	}
	if checked == 0 || lost == 0 {
		t.Fatalf("%d links checked, %d faulty frames lost: the boundary was never exercised", checked, lost)
	}
}

// TestChaosDelayReorderLosesNothing: a chaos model of delays alone — Δ = 3
// jitter, so one link's later frames may overtake its earlier ones, and a
// partition holding cross links to Δ — loses no frame over chan or TCP.
// On every link, nothing is delivered that was not sent, and every frame a
// recipient was still reading for Δ rounds after its send was delivered.
func TestChaosDelayReorderLosesNothing(t *testing.T) {
	const delta = 3
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3, MaxIters: 12,
		Net: scenario.NetChaos, Delta: delta, PartitionRounds: 4}
	cfg.Seed[0] = 5
	for _, tc := range []struct {
		name string
		netw func(t *testing.T) transport.Network
	}{
		{"chan", func(t *testing.T) transport.Network {
			netw, err := transport.NewChanNetwork(cfg.N)
			if err != nil {
				t.Fatal(err)
			}
			return netw
		}},
		{"tcp", func(t *testing.T) transport.Network {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return netw
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			netw := tc.netw(t)
			defer netw.Close()
			_, events := runTraced(t, cfg, netw, cluster.Options{RoundTimeout: 30 * time.Second})
			tr := tally(cfg.N, events)
			if len(tr.dropped) != 0 {
				t.Fatalf("a delay-only model dropped traffic: %v", tr.dropped)
			}
			last := int32(0)
			for k := range tr.live {
				last = max(last, k[0])
			}
			held := false
			for from := int32(0); from < int32(cfg.N); from++ {
				for to := int32(0); to < int32(cfg.N); to++ {
					// Frames sent up to round r are due by r + Δ, and only
					// frames sent before round r can be read in it.
					for r := int32(0); r <= last; r++ {
						sent, got := between(tr.sent, from, to, 0, r-1), between(tr.delivered, from, to, 0, r)
						if got > sent {
							t.Fatalf("%d→%d: %d delivered by round %d, only %d sent before it", from, to, got, r, sent)
						}
						if tr.live[[2]int32{r, to}] && got < between(tr.sent, from, to, 0, r-delta) {
							t.Fatalf("%d→%d: %d delivered by round %d, want the %d sent by round %d",
								from, to, got, r, between(tr.sent, from, to, 0, r-delta), r-delta)
						}
						if got < sent && tr.live[[2]int32{r, to}] {
							held = true
						}
					}
				}
			}
			if !held {
				t.Fatal("no frame was ever held past a round: the model delayed nothing")
			}
		})
	}
}

// countingNetwork counts every frame its endpoints put on the wire.
type countingNetwork struct {
	transport.Network
	eps    []transport.Transport
	frames atomic.Int64
}

type countingTransport struct {
	transport.Transport
	frames *atomic.Int64
}

func (c *countingTransport) Send(to types.NodeID, env transport.Envelope) error {
	c.frames.Add(1)
	return c.Transport.Send(to, env)
}

func (c *countingTransport) Multicast(env transport.Envelope) error {
	c.frames.Add(1)
	return c.Transport.Multicast(env)
}

func newCountingNetwork(t *testing.T, n int) *countingNetwork {
	inner, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	c := &countingNetwork{Network: inner}
	for _, ep := range inner.Endpoints() {
		c.eps = append(c.eps, &countingTransport{Transport: ep, frames: &c.frames})
	}
	return c
}

func (c *countingNetwork) Endpoints() []transport.Transport { return c.eps }

// TestChaosSpecValidate: the chaos spec — the config's network model — is
// validated before a live run puts a single frame on the transport. A valid spec runs; an invalid one is
// refused with its reason and the network stays silent.
func TestChaosSpecValidate(t *testing.T) {
	base := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3, MaxIters: 12, Net: scenario.NetChaos}
	cases := []struct {
		name string
		set  func(*scenario.Config)
		want string // substring of the error, "" for valid
	}{
		{"lockstep", func(c *scenario.Config) { c.Net = scenario.NetDeltaOne }, ""},
		{"negative-delta", func(c *scenario.Config) { c.Delta = -1 }, "negative"},
		{"drops", func(c *scenario.Config) { c.OmissionRate = 0.5 }, ""},
		{"budget", func(c *scenario.Config) { c.OmissionRate, c.OmissionFaulty = 0.5, 2 }, "exceeds F"},
		{"rate", func(c *scenario.Config) { c.OmissionRate = 1.5 }, "outside"},
		{"drop-no-faulty", func(c *scenario.Config) { c.F, c.OmissionRate = 0, 0.5 }, "faulty"},
		{"partition-delta", func(c *scenario.Config) { c.PartitionRounds = 2 }, "Δ ≥ 2"},
		{"crash-empty", func(c *scenario.Config) { c.CrashFrom = 2 }, "crash window"},
		{"crash-ok", func(c *scenario.Config) { c.CrashRounds = 2 }, ""},
		{"partition-ok", func(c *scenario.Config) { c.Delta, c.PartitionRounds, c.OmissionRate = 2, 3, 0.2 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			netw := newCountingNetwork(t, cfg.N)
			defer netw.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_, err := cluster.Run(ctx, cfg, netw, cluster.Options{})
			frames := netw.frames.Load()
			if tc.want == "" {
				if err != nil || frames == 0 {
					t.Fatalf("valid spec: error %v after %d frames", err, frames)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
			if frames != 0 {
				t.Fatalf("refused spec put %d frames on the transport", frames)
			}
			// A config the live runtime refuses, the simulator refuses in
			// the same words: both validate the caller's config once.
			if _, simErr := scenario.Run(cfg); simErr == nil || simErr.Error() != err.Error() {
				t.Fatalf("live error %q, simulator error %v", err, simErr)
			}
		})
	}
}
