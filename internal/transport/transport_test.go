package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ccba/internal/types"
	"ccba/internal/wire"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	f := func(kind uint8, from, round, seq uint32, halted bool, payload []byte) bool {
		k := EnvKind(kind%4) + EnvData
		e := Envelope{
			Kind: k, From: types.NodeID(from), Round: round, Seq: seq,
			Halted: halted, Payload: payload,
		}
		buf := AppendEnvelope(nil, e)
		if len(buf) != e.EncodedSize() {
			t.Fatalf("EncodedSize %d but encoding is %d bytes", e.EncodedSize(), len(buf))
		}
		got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Kind != e.Kind || got.From != e.From || got.Round != e.Round ||
			got.Seq != e.Seq || got.Halted != e.Halted || !bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("round trip: sent %+v got %+v", e, got)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEnvelopeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0}, // kind 0 invalid
		{9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},     // kind 9 invalid
		{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF},              // bad flags, truncated payload
		AppendEnvelope(nil, Envelope{Kind: EnvData})[:5],           // truncated header
		append(AppendEnvelope(nil, Envelope{Kind: EnvData}), 0xAB), // trailing byte
	}
	for i, buf := range cases {
		if _, err := DecodeEnvelope(buf); err == nil {
			t.Errorf("case %d: decode of % x succeeded", i, buf)
		}
	}
}

func TestParseFrame(t *testing.T) {
	payload := []byte("round-tagged envelope bytes")
	buf := AppendFrame(nil, payload)
	buf = AppendFrame(buf, nil) // empty frame is legal at the framing layer
	got, rest, err := ParseFrame(buf)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ParseFrame: %v, payload % x", err, got)
	}
	got, rest, err = ParseFrame(rest)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %v, payload % x", err, got)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// Truncated prefixes and bodies are retryable, oversized is fatal.
	if _, _, err := ParseFrame(buf[:3]); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("short prefix: %v", err)
	}
	if _, _, err := ParseFrame(buf[:len(payload)]); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("short body: %v", err)
	}
	huge := AppendFrame(nil, nil)
	huge[0], huge[1] = 0xFF, 0xFF
	if _, _, err := ParseFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestChanNetworkPerLinkFIFO(t *testing.T) {
	const n, msgs = 4, 100
	netw, err := NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	eps := netw.Endpoints()

	// Every node sends a numbered stream to node 0 concurrently.
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 0; s < msgs; s++ {
				env := Envelope{Kind: EnvData, From: types.NodeID(i), Seq: uint32(s)}
				if err := eps[i].Send(0, env); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	next := make([]uint32, n)
	for k := 0; k < (n-1)*msgs; k++ {
		env, err := eps[0].Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if env.Seq != next[env.From] {
			t.Fatalf("sender %d: got seq %d, want %d (FIFO per link)", env.From, env.Seq, next[env.From])
		}
		next[env.From]++
	}
}

func TestChanNetworkRecvCancellation(t *testing.T) {
	netw, err := NewChanNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := netw.Endpoints()[0].Recv(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv returned %v, want context.Canceled", err)
	}
}

func TestChanNetworkCloseDrainsThenErrClosed(t *testing.T) {
	netw, err := NewChanNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	ep := netw.Endpoints()[0]
	if err := netw.Endpoints()[1].Send(0, Envelope{Kind: EnvData, From: 1}); err != nil {
		t.Fatal(err)
	}
	netw.Close()
	// Queued envelopes remain readable after close; then ErrClosed.
	if _, err := ep.Recv(context.Background()); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if _, err := ep.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain Recv: %v, want ErrClosed", err)
	}
	if err := ep.Send(1, Envelope{Kind: EnvData}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to closed: %v, want ErrClosed", err)
	}
}

func TestChanNetworkUnknownNode(t *testing.T) {
	netw, err := NewChanNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	if err := netw.Endpoints()[0].Send(7, Envelope{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send(7) = %v, want ErrUnknownNode", err)
	}
}

func TestTCPNetworkMeshExchange(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	netw, err := NewTCPNetwork(ctx, LoopbackAddrs(3), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	eps := netw.Endpoints()

	// Each node multicasts one payload (self included) and a unicast chain
	// i → (i+1)%3; everyone must receive exactly 3 multicast copies + 1
	// unicast, with payload bytes intact.
	for i, ep := range eps {
		payload := []byte(fmt.Sprintf("mcast-from-%d", i))
		for j := range eps {
			env := Envelope{Kind: EnvData, From: types.NodeID(i), Round: 1, Seq: 0, Payload: payload}
			if err := ep.Send(types.NodeID(j), env); err != nil {
				t.Fatal(err)
			}
		}
		uni := Envelope{Kind: EnvData, From: types.NodeID(i), Round: 1, Seq: 1,
			Payload: []byte(fmt.Sprintf("uni-from-%d", i))}
		if err := ep.Send(types.NodeID((i+1)%3), uni); err != nil {
			t.Fatal(err)
		}
	}
	for j, ep := range eps {
		got := map[string]int{}
		for k := 0; k < 4; k++ {
			env, err := ep.Recv(ctx)
			if err != nil {
				t.Fatalf("node %d recv %d: %v", j, k, err)
			}
			got[string(env.Payload)]++
		}
		for i := 0; i < 3; i++ {
			if got[fmt.Sprintf("mcast-from-%d", i)] != 1 {
				t.Fatalf("node %d multicast copies: %v", j, got)
			}
		}
		if got[fmt.Sprintf("uni-from-%d", (j+2)%3)] != 1 {
			t.Fatalf("node %d unicast: %v", j, got)
		}
	}
}

func TestTCPRejectsBogusInbound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	netw, err := NewTCPNetwork(ctx, LoopbackAddrs(2), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	ep := netw.Endpoints()[0].(*TCPEndpoint)

	// A connection that opens with garbage instead of a hello is dropped
	// without disturbing the mesh.
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2, 3})
	conn.Close()

	if err := netw.Endpoints()[1].Send(0, Envelope{Kind: EnvSync, From: 1, Round: 9}); err != nil {
		t.Fatal(err)
	}
	env, err := ep.Recv(ctx)
	if err != nil || env.Round != 9 || env.From != 1 {
		t.Fatalf("mesh disturbed: %+v, %v", env, err)
	}
}

func TestTCPSendWithoutConnect(t *testing.T) {
	ep, err := ListenTCP(0, 2, "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send(1, Envelope{Kind: EnvData, From: 0}); err == nil {
		t.Fatal("Send before Connect succeeded")
	}
	// Self-sends need no connection.
	if err := ep.Send(0, Envelope{Kind: EnvData, From: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDialRetryTimesOut(t *testing.T) {
	ep, err := ListenTCP(0, 2, "127.0.0.1:0", TCPOptions{DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Nobody listens on the second address; Connect must give up quickly.
	err = ep.Connect(context.Background(), []string{ep.Addr(), "127.0.0.1:1"})
	if err == nil {
		t.Fatal("Connect to a dead peer succeeded")
	}
}

// TestChanBarrierOrder drives the aggregated barrier the way n free-running
// nodes would: every sender multicasts a random number of round-r data
// envelopes, then its round-r sync, for 50 rounds, with no receive-side
// pacing. Every mailbox must receive exactly one EnvBarrier per round and
// nothing else — no data envelope travels on its own, and n markers per
// round cross the mesh, not n². Each barrier's log must hold exactly that
// round's multicasts: one run per sender that sent any, in seq order, the
// runs in sender order — the lockstep engine's (sender, seq) inbox.
func TestChanBarrierOrder(t *testing.T) {
	const n, rounds = 16, 50
	netw, err := NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	eps := netw.Endpoints()

	// The schedule: data[i][r] envelopes from sender i in round r, and the
	// round from which sender i reports halted.
	rng := rand.New(rand.NewPCG(18, 0))
	var data [n][rounds]int
	var haltFrom [n]int
	var wantHalted [rounds]uint32
	for i := 0; i < n; i++ {
		haltFrom[i] = rng.IntN(rounds + 10)
		for r := 0; r < rounds; r++ {
			data[i][r] = rng.IntN(4)
			if r >= haltFrom[i] {
				wantHalted[r]++
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from := types.NodeID(i)
			for r := 0; r < rounds; r++ {
				for s := 0; s < data[i][r]; s++ {
					if err := eps[i].Multicast(Envelope{Kind: EnvData, From: from, Round: uint32(r), Seq: uint32(s)}); err != nil {
						t.Errorf("sender %d: data: %v", i, err)
						return
					}
				}
				if err := eps[i].Multicast(Envelope{Kind: EnvSync, From: from, Round: uint32(r), Halted: r >= haltFrom[i]}); err != nil {
					t.Errorf("sender %d: sync: %v", i, err)
					return
				}
			}
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var marked [rounds]bool
			for k := 0; k < rounds; k++ {
				env, err := eps[j].Recv(ctx)
				if err != nil {
					t.Errorf("mailbox %d: after %d barriers: %v", j, k, err)
					return
				}
				if env.Kind != EnvBarrier {
					t.Errorf("mailbox %d: %d-kind envelope; multicast data and syncs must not be fanned out", j, env.Kind)
					return
				}
				if marked[env.Round] {
					t.Errorf("mailbox %d: second round-%d marker", j, env.Round)
					return
				}
				marked[env.Round] = true
				if env.Seq != wantHalted[env.Round] {
					t.Errorf("mailbox %d: round-%d marker counts %d halted, want %d", j, env.Round, env.Seq, wantHalted[env.Round])
				}
				if !slices.IsSortedFunc(env.Runs, bySender) {
					t.Errorf("mailbox %d: round-%d log is not in sender order", j, env.Round)
				}
				sent := make([]int, n)
				for i := range sent {
					sent[i] = data[i][env.Round]
				}
				if err := checkRoundLog(env.Runs, env.Round, sent); err != nil {
					t.Errorf("mailbox %d: %v", j, err)
				}
			}
			if slices.Contains(marked[:], false) {
				t.Errorf("mailbox %d: rounds marked: %v", j, marked)
			}
		}(j)
	}
	wg.Wait()
}

// checkRoundLog checks that runs is exactly round's multicasts when node i
// sent sent[i] of them: one run per node that sent any, each run the node's
// envelopes with seqs 0, 1, … in order.
func checkRoundLog(runs [][]Envelope, round uint32, sent []int) error {
	sorted := slices.Clone(runs)
	slices.SortFunc(sorted, func(a, b []Envelope) int { return int(a[0].From) - int(b[0].From) })
	var want []types.NodeID
	for i, k := range sent {
		if k > 0 {
			want = append(want, types.NodeID(i))
		}
	}
	if len(sorted) != len(want) {
		return fmt.Errorf("round-%d log has %d runs, want %d (senders %v)", round, len(sorted), len(want), want)
	}
	for k, run := range sorted {
		from := want[k]
		if run[0].From != from || len(run) != sent[from] {
			return fmt.Errorf("round-%d log: run %d is %d envelopes from node %d, want %d from node %d", round, k, len(run), run[0].From, sent[from], from)
		}
		for s, env := range run {
			if env.Kind != EnvData || env.From != from || env.Round != round || env.Seq != uint32(s) {
				return fmt.Errorf("round-%d log: node %d's run holds %+v at position %d", round, from, env, s)
			}
		}
	}
	return nil
}

// TestChanMailboxTrafficStaysPerMailbox: only the round loop's multicasts
// ride the log. A unicast data envelope lands in its one recipient's
// mailbox, a multicast EnvResult in every mailbox, the sender's included,
// and a data multicast whose sender has not synced is in nobody's.
func TestChanMailboxTrafficStaysPerMailbox(t *testing.T) {
	const n = 3
	netw, err := NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	eps := netw.Endpoints()
	if err := eps[1].Multicast(Envelope{Kind: EnvData, From: 1, Round: 2, Seq: 0, Payload: []byte("mcast")}); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Send(2, Envelope{Kind: EnvData, From: 1, Round: 2, Seq: 1, Payload: []byte("uni")}); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Multicast(Envelope{Kind: EnvResult, From: 1, Round: 9, Payload: []byte("rec")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for j, ep := range eps {
		want := []string{fmt.Sprintf("%d:rec", EnvResult)}
		if j == 2 {
			want = []string{fmt.Sprintf("%d:uni", EnvData), fmt.Sprintf("%d:rec", EnvResult)}
		}
		var got []string
		for len(got) < len(want) {
			env, err := ep.Recv(ctx)
			if err != nil {
				t.Fatalf("mailbox %d: %v", j, err)
			}
			got = append(got, fmt.Sprintf("%d:%s", env.Kind, env.Payload))
		}
		if !slices.Equal(got, want) {
			t.Errorf("mailbox %d received %v, want %v", j, got, want)
		}
		// The unsynced multicast is the sender's alone: a receiver that
		// stops waiting finds nothing more.
		done, stop := context.WithCancel(context.Background())
		stop()
		if env, err := ep.Recv(done); !errors.Is(err, context.Canceled) {
			t.Errorf("mailbox %d: an unsynced multicast surfaced as %+v (err %v)", j, env, err)
		}
	}
	// The sender's next round may not start before its sync publishes the
	// run it holds.
	if err := eps[1].Multicast(Envelope{Kind: EnvData, From: 1, Round: 3}); err == nil {
		t.Fatal("round-3 data accepted while round 2's run is unpublished")
	}
}

// A unicast EnvSync is a per-link marker and must land as itself, not at
// the tally: only Multicast goes through it.
func TestChanUnicastSyncStaysPerLink(t *testing.T) {
	netw, err := NewChanNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	eps := netw.Endpoints()
	for i, ep := range eps {
		if err := ep.Send(0, Envelope{Kind: EnvSync, From: types.NodeID(i), Round: 4, Halted: i == 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range eps {
		env, err := eps[0].Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if env.Kind != EnvSync || env.From != types.NodeID(i) || env.Round != 4 || env.Halted != (i == 2) {
			t.Fatalf("marker %d arrived as %+v", i, env)
		}
	}
	// Three unicasts to one node complete no round: the tally never saw them.
	if missing := eps[0].(*chanEndpoint).BarrierMissing(4); missing != nil {
		t.Fatalf("unicast syncs reached the tally: round 4 open, missing %v", missing)
	}
}

// The aggregated marker exists only in process: the wire decoder rejects
// its kind, so a TCP peer cannot forge "all n nodes have synced".
func TestDecodeEnvelopeRejectsBarrierKind(t *testing.T) {
	buf := AppendEnvelope(nil, Envelope{Kind: EnvBarrier, From: 1, Round: 2, Seq: 3})
	if _, err := DecodeEnvelope(buf); err == nil {
		t.Fatal("DecodeEnvelope accepted an EnvBarrier frame")
	}
}

// TestDecodeCellSharesOneDecode: concurrent recipients of one cell get one
// decode of the payload between them — value or error alike — while an
// envelope without a cell decodes on every call.
func TestDecodeCellSharesOneDecode(t *testing.T) {
	var calls atomic.Int64
	decode := func(buf []byte) (string, error) {
		calls.Add(1)
		if len(buf) == 0 {
			return "", errors.New("empty payload")
		}
		return string(buf), nil
	}
	for _, tc := range []struct {
		payload []byte
		want    string
		fails   bool
	}{{payload: []byte("abc"), want: "abc"}, {payload: nil, fails: true}} {
		calls.Store(0)
		env := Envelope{Kind: EnvData, Payload: tc.payload, Cell: new(DecodeCell)}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Decode(env, decode)
				if got != tc.want || (err != nil) != tc.fails {
					t.Errorf("shared decode of %q: %q, %v", tc.payload, got, err)
				}
			}()
		}
		wg.Wait()
		if calls.Load() != 1 {
			t.Errorf("payload %q: %d decodes across 8 sharers, want 1", tc.payload, calls.Load())
		}
		env.Cell = nil
		for i := 0; i < 3; i++ {
			Decode(env, decode) //nolint:errcheck // counting calls only
		}
		if calls.Load() != 4 {
			t.Errorf("payload %q: %d decodes after 3 cell-less calls, want 4", tc.payload, calls.Load())
		}
	}
}
