package transport

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/types"
)

// ---------------------------------------------------------------------------
// TCP startup robustness and hello hardening.

// A mesh whose listeners come up staggered (last one 600ms late) must still
// connect: the dial path retries with backoff instead of failing fast.
func TestTCPStaggeredStart(t *testing.T) {
	const n = 4
	// Reserve concrete ports so late starters have known addresses.
	addrs := make([]string, n)
	for i := range addrs {
		ls, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ls.Addr().String()
		ls.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	eps := make([]*TCPEndpoint, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 200 * time.Millisecond) // staggered binds
			ep, err := ListenTCP(types.NodeID(i), n, addrs[i], TCPOptions{DialTimeout: 15 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			eps[i] = ep
			errs[i] = ep.Connect(ctx, addrs)
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Full exchange proves every link of the staggered mesh is live.
	for i, ep := range eps {
		if err := ep.Multicast(Envelope{Kind: EnvSync, From: types.NodeID(i), Round: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, ep := range eps {
		seen := 0
		for seen < n {
			env, err := ep.Recv(ctx)
			if err != nil {
				t.Fatalf("node %d after %d syncs: %v", i, seen, err)
			}
			if env.Kind == EnvSync {
				seen++
			}
		}
	}
}

// A peer whose listener is down when Connect starts (crashed and
// restarting, or simply last to boot) must be picked up by the backoff
// retries once it binds — Connect may not fail fast.
func TestTCPConnectRetriesWhileListenerDown(t *testing.T) {
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ls.Addr().String()
	ls.Close() // reserve the address, leave the port dark

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	dialer, err := ListenTCP(0, 2, "127.0.0.1:0", TCPOptions{DialTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()

	connectErr := make(chan error, 1)
	go func() { connectErr <- dialer.Connect(ctx, []string{dialer.Addr(), addr}) }()

	// Let several refused dials accumulate before the peer comes back.
	time.Sleep(400 * time.Millisecond)
	real, err := ListenTCP(1, 2, addr, TCPOptions{})
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer real.Close()

	if err := <-connectErr; err != nil {
		t.Fatalf("Connect did not survive a late listener: %v", err)
	}
	if err := dialer.Send(1, Envelope{Kind: EnvData, From: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	env, err := real.Recv(ctx)
	if err != nil || env.Round != 1 || env.From != 0 {
		t.Fatalf("exchange after late bind: %+v, %v", env, err)
	}
}

// Malformed hellos are rejected with a descriptive reason, not a silent
// drop or a hang.
func TestTCPHelloRejections(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ep, err := ListenTCP(0, 2, "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"oversized", AppendFrame(nil, make([]byte, MaxHelloFrame+1)), "frame exceeds"},
		{"garbage", AppendFrame(nil, []byte{1, 2, 3}), "hello"},
		{"bad-magic", func() []byte {
			env := Envelope{Kind: EnvHello, From: 1, Payload: []byte("not-the-magic-xx")}
			return AppendFrame(nil, AppendEnvelope(nil, env))
		}(), "payload is"},
		{"wrong-kind", func() []byte {
			return AppendFrame(nil, AppendEnvelope(nil, Envelope{Kind: EnvData, From: 1}))
		}(), "kind"},
		{"out-of-range", func() []byte {
			frame := HelloFrame(7, 2)
			return frame
		}(), "node 7"},
		{"size-mismatch", func() []byte {
			return HelloFrame(1, 5) // dialer thinks the mesh has 5 nodes
		}(), "cluster of 5"},
	}
	for _, tc := range cases {
		prev := ep.HandshakeError()
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(tc.frame)
		var got error
		for i := 0; i < 200; i++ {
			if got = ep.HandshakeError(); got != nil && got != prev {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		conn.Close()
		if got == nil || got == prev || !strings.Contains(got.Error(), tc.want) {
			t.Fatalf("%s: handshake error %v, want substring %q", tc.name, got, tc.want)
		}
	}

	// And a valid hello still opens the link.
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(HelloFrame(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(marshalFrame(Envelope{Kind: EnvData, From: 1, Round: 4})); err != nil {
		t.Fatal(err)
	}
	env, err := ep.Recv(ctx)
	if err != nil || env.Round != 4 {
		t.Fatalf("valid hello path broken: %+v, %v", env, err)
	}
}
