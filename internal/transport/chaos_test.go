package transport

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/netsim"
	"ccba/internal/types"
)

func chaosPair(t *testing.T, n int, spec ChaosSpec) Network {
	t.Helper()
	inner, err := NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	netw, err := NewChaosNetwork(inner, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netw.Close() })
	return netw
}

// Chaos drops must reproduce the simulator's omission decisions exactly:
// same folded key, same (round, from, to) hash, one fate per link-round.
func TestChaosDropMatchesSimulatorDecision(t *testing.T) {
	seed := [32]byte{7, 7, 7}
	key := netsim.FoldSeed(seed)
	spec := ChaosSpec{Key: key, Delta: 1, Faulty: []types.NodeID{0}, DropRate: 0.5}
	netw := chaosPair(t, 2, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sender := netw.Endpoints()[0]
	receiver := netw.Endpoints()[1]
	const rounds = 64
	for r := 0; r < rounds; r++ {
		env := Envelope{Kind: EnvData, From: 0, Round: uint32(r), Payload: []byte{byte(r)}}
		if err := sender.Send(1, env); err != nil {
			t.Fatal(err)
		}
		// The sync marker is never dropped, so it bounds the round.
		if err := sender.Send(1, Envelope{Kind: EnvSync, From: 0, Round: uint32(r)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[int]bool)
	for r := 0; r < rounds; r++ {
		for {
			env, err := receiver.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if env.Kind == EnvData {
				got[int(env.Round)] = true
				continue
			}
			break // the round's sync
		}
	}
	dropped := 0
	for r := 0; r < rounds; r++ {
		wantDrop := netsim.LinkDrop(key, r, 0, 1, spec.DropRate)
		if wantDrop {
			dropped++
		}
		if got[r] == wantDrop {
			t.Fatalf("round %d: delivered=%v, simulator drop decision=%v", r, got[r], wantDrop)
		}
	}
	if dropped == 0 || dropped == rounds {
		t.Fatalf("degenerate drop pattern: %d/%d — seed choice broken", dropped, rounds)
	}
}

// Honest senders are outside the faulty set: nothing of theirs may be lost,
// and sync markers survive even on faulty links.
func TestChaosPowerBoundary(t *testing.T) {
	seed := [32]byte{1}
	spec := ChaosSpec{Key: netsim.FoldSeed(seed), Delta: 1, Faulty: []types.NodeID{0}, DropRate: 1}
	netw := chaosPair(t, 3, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Node 0 is faulty with certain drops: its data never arrives, its syncs
	// always do. Node 1 is honest: everything arrives.
	for r := 0; r < 8; r++ {
		for _, from := range []types.NodeID{0, 1} {
			ep := netw.Endpoints()[from]
			if err := ep.Send(2, Envelope{Kind: EnvData, From: from, Round: uint32(r)}); err != nil {
				t.Fatal(err)
			}
			if err := ep.Send(2, Envelope{Kind: EnvSync, From: from, Round: uint32(r)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var data0, data1, sync0, sync1 int
	deadline, cancel2 := context.WithTimeout(ctx, 2*time.Second)
	defer cancel2()
	for {
		env, err := netw.Endpoints()[2].Recv(deadline)
		if err != nil {
			break // drained
		}
		switch {
		case env.Kind == EnvData && env.From == 0:
			data0++
		case env.Kind == EnvData && env.From == 1:
			data1++
		case env.Kind == EnvSync && env.From == 0:
			sync0++
		case env.Kind == EnvSync && env.From == 1:
			sync1++
		}
		if sync0 == 8 && sync1 == 8 && data1 == 8 {
			break
		}
	}
	if data0 != 0 {
		t.Fatalf("faulty sender at rate 1 delivered %d data frames", data0)
	}
	if data1 != 8 || sync0 != 8 || sync1 != 8 {
		t.Fatalf("honest traffic lost: data1=%d sync0=%d sync1=%d (want 8 each)", data1, sync0, sync1)
	}
}

// A crash window is total outbound data omission for its rounds — before and
// after, the node's frames flow.
func TestChaosCrashWindow(t *testing.T) {
	spec := ChaosSpec{
		Key: 42, Delta: 1,
		Faulty:    []types.NodeID{1},
		CrashNode: 1, CrashFrom: 2, CrashUntil: 5,
	}
	netw := chaosPair(t, 2, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ep := netw.Endpoints()[1]
	for r := 0; r < 8; r++ {
		if err := ep.Send(0, Envelope{Kind: EnvData, From: 1, Round: uint32(r)}); err != nil {
			t.Fatal(err)
		}
		if err := ep.Send(0, Envelope{Kind: EnvSync, From: 1, Round: uint32(r)}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]bool{}
	for r := 0; r < 8; r++ {
		for {
			env, err := netw.Endpoints()[0].Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if env.Kind == EnvData {
				got[int(env.Round)] = true
				continue
			}
			break
		}
	}
	for r := 0; r < 8; r++ {
		want := r < 2 || r >= 5
		if got[r] != want {
			t.Fatalf("round %d delivered=%v, want %v (crash window [2,5))", r, got[r], want)
		}
	}
}

// Delays and reorders shift arrival times but lose nothing: every data frame
// an honest sender emits is eventually delivered.
func TestChaosDelayReorderLosesNothing(t *testing.T) {
	spec := ChaosSpec{
		Key: 9, Delta: 2,
		MaxDelay:    2 * time.Millisecond,
		ReorderRate: 0.5,
	}
	netw := chaosPair(t, 2, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ep := netw.Endpoints()[0]
	const rounds, perRound = 10, 4
	for r := 0; r < rounds; r++ {
		for s := 0; s < perRound; s++ {
			env := Envelope{Kind: EnvData, From: 0, Round: uint32(r), Seq: uint32(s)}
			if err := ep.Send(1, env); err != nil {
				t.Fatal(err)
			}
		}
		if err := ep.Send(1, Envelope{Kind: EnvSync, From: 0, Round: uint32(r)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.Send(1, Envelope{Kind: EnvResult, From: 0}); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint32]bool{}
	syncs := 0
	for len(seen) < rounds*perRound || syncs < rounds {
		env, err := netw.Endpoints()[1].Recv(ctx)
		if err != nil {
			t.Fatalf("after %d data / %d syncs: %v", len(seen), syncs, err)
		}
		switch env.Kind {
		case EnvData:
			seen[[2]uint32{env.Round, env.Seq}] = true
		case EnvSync:
			syncs++
		}
	}
}

// The spec validation enforces the simulator's power boundary.
func TestChaosSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ChaosSpec
		want string // substring of the error, "" for valid
	}{
		{"empty", ChaosSpec{}, ""},
		{"drops", ChaosSpec{Delta: 1, Faulty: []types.NodeID{0, 1}, DropRate: 0.5}, ""},
		{"budget", ChaosSpec{Faulty: []types.NodeID{0, 1, 2}, DropRate: 0.5}, "budget"},
		{"rate", ChaosSpec{Faulty: []types.NodeID{0}, DropRate: 1.5}, "outside"},
		{"drop-no-faulty", ChaosSpec{DropRate: 0.5}, "faulty"},
		{"reorder-delta", ChaosSpec{Delta: 1, ReorderRate: 0.5}, "Δ ≥ 2"},
		{"partition-delta", ChaosSpec{Delta: 1, PartitionCut: 2, PartitionUntil: 3}, "Δ ≥ 2"},
		{"partition-cut", ChaosSpec{Delta: 2, PartitionCut: 9, PartitionUntil: 3}, "split"},
		{"crash-not-faulty", ChaosSpec{Delta: 1, Faulty: []types.NodeID{0}, DropRate: 0.1, CrashNode: 3, CrashUntil: 2}, "faulty set"},
		{"crash-ok", ChaosSpec{Delta: 1, Faulty: []types.NodeID{3}, CrashNode: 3, CrashUntil: 2}, ""},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(4, 2)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// The chaos layer composes with the TCP mesh the same way it does with the
// chan network — injection is below the protocol surface, above the socket.
func TestChaosOverTCP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	inner, err := NewTCPNetwork(ctx, LoopbackAddrs(2), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := ChaosSpec{Key: 5, Delta: 1, Faulty: []types.NodeID{0}, DropRate: 1}
	netw, err := NewChaosNetwork(inner, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()

	ep := netw.Endpoints()[0]
	if err := ep.Send(1, Envelope{Kind: EnvData, From: 0, Round: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, Envelope{Kind: EnvSync, From: 0, Round: 3}); err != nil {
		t.Fatal(err)
	}
	env, err := netw.Endpoints()[1].Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != EnvSync || env.Round != 3 {
		t.Fatalf("expected only the sync to survive a rate-1 faulty link, got %+v", env)
	}
}

// A lone chan endpoint cannot be chaos-wrapped: its per-link markers would
// bypass the barrier tally the network's endpoints share. Wrapping the whole
// network is the supported shape, and its per-link markers complete a round.
func TestWrapChaosRefusesLoneChanEndpoint(t *testing.T) {
	inner, err := NewChanNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	spec := ChaosSpec{Key: 1, Delta: 1}
	if _, err := WrapChaos(inner.Endpoints()[1], spec); err == nil || !strings.Contains(err.Error(), "NewChaosNetwork") {
		t.Fatalf("WrapChaos on a chan endpoint: %v, want a construction error", err)
	}

	netw, err := NewChaosNetwork(inner, spec)
	if err != nil {
		t.Fatalf("NewChaosNetwork on a chan network: %v", err)
	}
	for i, ep := range netw.Endpoints() {
		if _, ok := ep.(*chaosEndpoint); !ok {
			t.Fatalf("endpoint %d is %T, want it chaos-wrapped", i, ep)
		}
		if err := ep.Multicast(Envelope{Kind: EnvSync, From: types.NodeID(i), Round: 0}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, ep := range netw.Endpoints() {
		for seen := 0; seen < 3; seen++ {
			env, err := ep.Recv(ctx)
			if err != nil {
				t.Fatalf("node %d after %d markers: %v", i, seen, err)
			}
			if env.Kind != EnvSync {
				t.Fatalf("node %d got a %d-kind envelope, want per-link EnvSync markers", i, env.Kind)
			}
		}
	}
}

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

// Every decision is a pure function of (key, coordinates): two runs of the
// same spec produce the same drops.
func TestChaosDeterminism(t *testing.T) {
	spec := ChaosSpec{Key: 77, Delta: 1, Faulty: []types.NodeID{0}, DropRate: 0.4}
	pattern := func() string {
		netw := chaosPair(t, 2, spec)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ep := netw.Endpoints()[0]
		for r := 0; r < 32; r++ {
			ep.Send(1, Envelope{Kind: EnvData, From: 0, Round: uint32(r)})
			ep.Send(1, Envelope{Kind: EnvSync, From: 0, Round: uint32(r)})
		}
		var b strings.Builder
		for r := 0; r < 32; r++ {
			delivered := false
			for {
				env, err := netw.Endpoints()[1].Recv(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if env.Kind == EnvData {
					delivered = true
					continue
				}
				break
			}
			fmt.Fprintf(&b, "%v,", delivered)
		}
		return b.String()
	}
	if a, b := pattern(), pattern(); a != b {
		t.Fatalf("same spec, different schedules:\n%s\n%s", a, b)
	}
}
