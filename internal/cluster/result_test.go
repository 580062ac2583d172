package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
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

// runEveryNode drives each endpoint of netw through RunNode concurrently —
// the multi-process route, minus the processes — and returns the reports.
func runEveryNode(t *testing.T, ctx context.Context, cfg scenario.Config, netw transport.Network, opts Options) []*Report {
	t.Helper()
	reports := make([]*Report, netw.N())
	errs := make([]error, netw.N())
	var wg sync.WaitGroup
	for i, ep := range netw.Endpoints() {
		wg.Add(1)
		go func(i int, ep transport.Transport) {
			defer wg.Done()
			reports[i], errs[i] = RunNode(ctx, cfg, ep, opts)
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return reports
}

// TestRunNodeMatchesRun pins that the two assembly routes agree: the Report
// every RunNode builds from the exchanged records equals, field for field,
// the one Run builds from its goroutines' records on a fresh network of the
// same config.
func TestRunNodeMatchesRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	chanNet := func(t *testing.T, n int) transport.Network {
		netw, err := transport.NewChanNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		return netw
	}
	tcpNet := func(t *testing.T, n int) transport.Network {
		netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(n), transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return netw
	}
	cases := []struct {
		name string
		cfg  scenario.Config
		net  func(*testing.T, int) transport.Network
	}{
		{"quadratic-chan", scenario.Config{Protocol: scenario.Quadratic, N: 7, F: 3}, chanNet},
		// Real crypto: ideal F_mine cannot span RunNode's per-node suites.
		{"core-real-tcp", scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3, Crypto: scenario.Real}, tcpNet},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed[0] = 9
			opts := Options{RoundTimeout: 30 * time.Second}

			exchanged := tc.net(t, cfg.N)
			defer exchanged.Close()
			reports := runEveryNode(t, ctx, cfg, exchanged, opts)

			inProcess := tc.net(t, cfg.N)
			defer inProcess.Close()
			want, err := Run(ctx, cfg, inProcess, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Ok() {
				t.Fatalf("Run violations: %v %v %v", want.Consistency, want.Validity, want.Termination)
			}
			for i, got := range reports {
				if !reflect.DeepEqual(got.Result, want.Result) {
					t.Errorf("node %d: RunNode result %+v, Run result %+v", i, got.Result, want.Result)
				}
				if !slices.Equal(got.PerNode, want.PerNode) {
					t.Errorf("node %d: RunNode per-node metrics %+v, Run %+v", i, got.PerNode, want.PerNode)
				}
			}
		})
	}
}

// resultCounter wraps an endpoint and counts the result records it sends.
type resultCounter struct {
	transport.Transport
	sent *atomic.Int64
}

func (c resultCounter) Send(to types.NodeID, env transport.Envelope) error {
	c.count(env)
	return c.Transport.Send(to, env)
}

func (c resultCounter) Multicast(env transport.Envelope) error {
	c.count(env)
	return c.Transport.Multicast(env)
}

func (c resultCounter) count(env transport.Envelope) {
	if env.Kind == transport.EnvResult {
		c.sent.Add(1)
	}
}

type countingNetwork struct {
	transport.Network
	eps []transport.Transport
}

func (c countingNetwork) Endpoints() []transport.Transport { return c.eps }

func newCountingNetwork(t *testing.T, n int, sent *atomic.Int64) countingNetwork {
	t.Helper()
	inner, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	eps := make([]transport.Transport, n)
	for i, ep := range inner.Endpoints() {
		eps[i] = resultCounter{Transport: ep, sent: sent}
	}
	return countingNetwork{Network: inner, eps: eps}
}

// TestRunExchangesNoResults: Run holds every node in one process, so it
// assembles the Report from the records its goroutines return and no result
// record touches the transport. RunNode over the same kind of network
// multicasts exactly one per node, which shows the counter sees them.
func TestRunExchangesNoResults(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Quadratic, N: 5, F: 2}
	var sent atomic.Int64
	rep, err := Run(context.Background(), cfg, newCountingNetwork(t, cfg.N, &sent), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
	if got := sent.Load(); got != 0 {
		t.Fatalf("Run sent %d result records, want none", got)
	}
	runEveryNode(t, context.Background(), cfg, newCountingNetwork(t, cfg.N, &sent), Options{})
	if got := sent.Load(); got != int64(cfg.N) {
		t.Fatalf("RunNode sent %d result records, want one multicast per node (%d)", got, cfg.N)
	}
}

func TestResultRecordRoundTrip(t *testing.T) {
	for _, rec := range []resultRecord{
		{output: types.NoBit},
		{output: types.One, decided: true, halted: true, metrics: netsim.Metrics{
			HonestMulticasts: 3, HonestMulticastBytes: 480, HonestMessages: 600, HonestMessageBytes: math.MaxInt,
		}},
		{output: types.Zero, decided: true, metrics: netsim.Metrics{HonestMessages: 1, HonestMessageBytes: 160}},
	} {
		got, err := decodeResult(encodeResult(rec))
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip of %+v gave %+v", rec, got)
		}
	}
}

// craftedResult encodes a record field by field, so a test can put values
// on the wire that encodeResult never would.
func craftedResult(decided, halted uint8, counters [4]uint64) []byte {
	w := wire.Writer{}
	w.Bit(types.One)
	w.U8(decided)
	w.U8(halted)
	for _, c := range counters {
		w.U64(c)
	}
	return w.Buf
}

// TestMalformedResultFailsClosed: a peer's record with a flag byte other
// than 0 or 1, or a counter the platform int cannot hold, fails the
// exchange with an error naming that peer instead of entering the totals.
func TestMalformedResultFailsClosed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"flag-2", craftedResult(2, 1, [4]uint64{1, 2, 3, 4}), "decided flag"},
		{"halted-flag-2", craftedResult(1, 2, [4]uint64{1, 2, 3, 4}), "halted flag"},
		{"counter-2^63", craftedResult(1, 1, [4]uint64{1, 2, 1 << 63, 4}), "metrics counter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeResult(tc.payload); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decodeResult: %v, want a malformed %q", err, tc.want)
			}
			netw, err := transport.NewChanNetwork(2)
			if err != nil {
				t.Fatal(err)
			}
			defer netw.Close()
			peer := netw.Endpoints()[1]
			if err := peer.Multicast(transport.Envelope{Kind: transport.EnvResult, From: 1, Payload: tc.payload}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			r := &runner{plan: &plan{cfg: scenario.Config{N: 2}}, tr: netw.Endpoints()[0]}
			_, err = r.exchangeResults(ctx, resultRecord{output: types.One, decided: true, halted: true}, 3)
			if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "result from node 1: ") {
				t.Fatalf("exchange with a malformed record: %v, want the named decode error", err)
			}
		})
	}
}
