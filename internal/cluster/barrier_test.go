package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// The chatty test protocols: every node multicasts one message and unicasts
// one to its successor in each of chattyRounds rounds, reads nothing, then
// halts — so the traffic is known exactly, every message sent is delivered
// to a node that still steps, and the decoder can count its calls.
const (
	chattyProtocol = scenario.Protocol("cluster-test-chatty")
	// Node 3's Step blocks until the test closes chattyStall.
	chattyStallProtocol = scenario.Protocol("cluster-test-chatty-stall")
	// Node 2's first multicast encodes to bytes the decoder rejects.
	chattyPoisonProtocol = scenario.Protocol("cluster-test-chatty-poison")

	chattyRounds = 5
	chattyPoison = ^uint64(0)
)

var (
	chattyDecodes, chattyRejects atomic.Int64
	chattyStall                  chan struct{}
)

type chattyMsg struct{ V uint64 }

func (m chattyMsg) Kind() wire.Kind { return 1 }
func (m chattyMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U64(m.V)
	return w.Buf
}
func (m chattyMsg) Size() int { return 8 }

func decodeChatty(buf []byte) (wire.Message, error) {
	chattyDecodes.Add(1)
	if len(buf) == 0 || buf[0] != 1 {
		return nil, fmt.Errorf("chatty message: %w", wire.ErrMalformed)
	}
	r := wire.NewReader(buf[1:])
	m := chattyMsg{V: r.U64()}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if m.V == chattyPoison {
		chattyRejects.Add(1)
		return nil, fmt.Errorf("chatty message: poisoned: %w", wire.ErrMalformed)
	}
	return m, nil
}

type chattyNode struct {
	id, n  int
	round  int
	stall  <-chan struct{}
	poison bool
}

func (c *chattyNode) Step(round int, _ []netsim.Delivered) []netsim.Send {
	if c.stall != nil {
		<-c.stall
	}
	c.round = round + 1
	if round >= chattyRounds {
		return nil
	}
	v := uint64(round)
	if c.poison && round == 0 {
		v = chattyPoison
	}
	return []netsim.Send{
		netsim.Multicast(chattyMsg{V: v}),
		netsim.Unicast(types.NodeID((c.id+1)%c.n), chattyMsg{V: uint64(round)}),
	}
}
func (c *chattyNode) Output() (types.Bit, bool) { return types.Zero, c.Halted() }
func (c *chattyNode) Halted() bool              { return c.round > chattyRounds }

func init() {
	for _, p := range []scenario.Protocol{chattyProtocol, chattyStallProtocol, chattyPoisonProtocol} {
		scenario.RegisterProtocol(p, func(cfg scenario.Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
			nodes := make([]netsim.Node, cfg.N)
			for i := range nodes {
				node := &chattyNode{id: i, n: cfg.N, poison: p == chattyPoisonProtocol && i == 2}
				if p == chattyStallProtocol && i == 3 {
					node.stall = chattyStall
				}
				nodes[i] = node
			}
			return nodes, nil, chattyRounds + 2, nil
		})
		scenario.RegisterDecoder(p, decodeChatty)
	}
}

// TestBarrierStallNamesMissingNode: a run that cannot finish says why. Node
// 3 never reaches the round-0 barrier; with the aggregated marker no peer
// holds a single per-link marker to count, so the timeout error asks the
// chan network's tally who has not arrived and names the node.
func TestBarrierStallNamesMissingNode(t *testing.T) {
	const timeout = 200 * time.Millisecond
	chattyStall = make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(chattyStall) }) }
	t.Cleanup(release)
	// Run waits for every node goroutine, so the stuck Step must end for it
	// to return: well after every peer's barrier has timed out.
	timer := time.AfterFunc(5*timeout, release)
	defer timer.Stop()

	netw, err := transport.NewChanNetwork(6)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	start := time.Now()
	_, err = Run(context.Background(), scenario.Config{Protocol: chattyStallProtocol, N: 6, F: 1}, netw, Options{RoundTimeout: timeout})
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Run took %v to report the stall", took)
	}
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run with a stalled node: %v, want a barrier timeout", err)
	}
	if !strings.Contains(err.Error(), "round 0 barrier") || !strings.Contains(err.Error(), "waiting for 1 of 6: node 3") {
		t.Fatalf("stall diagnosis does not name the missing node: %v", err)
	}
}

// TestBarrierStallListIsCapped: a stall that is most of the cluster lists
// the first eight missing ids and says there are more.
func TestBarrierStallListIsCapped(t *testing.T) {
	netw, err := transport.NewChanNetwork(12)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	ep := netw.Endpoints()[11]
	if err := ep.Multicast(transport.Envelope{Kind: transport.EnvSync, From: 11, Round: 7}); err != nil {
		t.Fatal(err)
	}
	r := &runner{plan: &plan{cfg: scenario.Config{N: 12}}, tr: ep}
	const want = "waiting for 11 of 12: node 0 node 1 node 2 node 3 node 4 node 5 node 6 node 7 …"
	if got := r.barrierStall(7); got != want {
		t.Fatalf("barrierStall = %q, want %q", got, want)
	}
	// A round nobody has opened, or a transport with no tally to ask (chaos
	// wrappers, TCP), falls back to the per-link marker count.
	if got := r.barrierStall(8); got != "0/12 peers" {
		t.Fatalf("barrierStall of an unopened round = %q", got)
	}
}

// TestDecodeOncePerMulticast pins who decodes a shared payload. On the chan
// network the recipients of a multicast share one decode, so the decoder
// runs once per distinct payload sent (multicasts + unicasts); over TCP
// every delivery arrives as its own bytes and is decoded on its own.
func TestDecodeOncePerMulticast(t *testing.T) {
	const n = 5
	cfg := scenario.Config{Protocol: chattyProtocol, N: n, F: 1}
	run := func(t *testing.T, netw transport.Network) int64 {
		t.Helper()
		defer netw.Close()
		chattyDecodes.Store(0)
		rep, err := Run(context.Background(), cfg, netw, Options{RoundTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		// The counts below assume every message sent was also delivered.
		if want := netsim.Count(chattyRounds * n); rep.Result.Metrics.HonestMulticasts != want {
			t.Fatalf("%d multicasts, want %d", rep.Result.Metrics.HonestMulticasts, want)
		}
		if rep.Rounds != chattyRounds+1 {
			t.Fatalf("%d rounds, want %d", rep.Rounds, chattyRounds+1)
		}
		return chattyDecodes.Load()
	}
	t.Run("chan", func(t *testing.T) {
		netw, err := transport.NewChanNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := run(t, netw), int64(chattyRounds*n*2); got != want {
			t.Fatalf("%d decodes, want %d: one per multicast plus one per unicast", got, want)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(n), transport.TCPOptions{})
		if err != nil {
			t.Skipf("no loopback mesh here: %v", err)
		}
		if got, want := run(t, netw), int64(chattyRounds*n*(n+1)); got != want {
			t.Fatalf("%d decodes, want %d: one per delivery", got, want)
		}
	})
}

// TestMalformedMulticastFailsEveryReceiver: sharing the decode shares the
// error too. Each node runs under its own context (RunNode, no common
// cancel), so every one of them must reach node 2's poisoned round-0
// multicast and fail on it by name — and the payload is parsed once.
func TestMalformedMulticastFailsEveryReceiver(t *testing.T) {
	const n = 5
	netw, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	chattyRejects.Store(0)
	cfg := scenario.Config{Protocol: chattyPoisonProtocol, N: n, F: 1}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, ep := range netw.Endpoints() {
		wg.Add(1)
		go func(i int, ep transport.Transport) {
			defer wg.Done()
			_, errs[i] = RunNode(context.Background(), cfg, ep, Options{RoundTimeout: 30 * time.Second})
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "round 0: message 0/0 from node 2") || !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("node %d: %v, want the named decode error", i, err)
		}
	}
	if got := chattyRejects.Load(); got != 1 {
		t.Errorf("poisoned payload parsed %d times, want once", got)
	}
}

// TestDeadlineAdvanceOverAggregatedBarrier keeps the twenty seeds that once
// ran a soft round deadline over a plain chan network, where a node's
// advance raced the one weight-n marker. Deadline advance is gone: a node
// leaves round r only on that marker, so at Δ = 2 (jitter) every seed must
// be the simulator's execution, frames held a round included.
func TestDeadlineAdvanceOverAggregatedBarrier(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 32, F: 9, Lambda: 10, MaxIters: 12,
		Net: scenario.NetJitter, Delta: 2}
	for seed := byte(1); seed <= 20; seed++ {
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
