package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"ccba"
	"ccba/internal/attest"
	"ccba/internal/cluster"
	"ccba/internal/core"
	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/sig"
	"ccba/internal/crypto/vrf"
	"ccba/internal/fmine"
	"ccba/internal/harness"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Isolated layer timings: each calls one layer's public functions directly,
// with inputs shaped like the workloads' (n=1000 committees of about 40, a
// certificate-bearing core message, a 200-endpoint mesh), a fixed number of
// times. They cost the same on every workload, so a traced run of any
// workload carries the whole table.

// layerSeed keys every isolated timing; the layers are timed on fixed
// inputs, independent of -seed, so their numbers compare across runs.
var layerSeed = harness.Seed("bench", "layers", 0)

// timePer runs fn (which performs calls calls) three times and returns the
// median wall time per call in nanoseconds.
func timePer(calls int, fn func()) float64 {
	var ns []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0))/float64(calls))
	}
	return median(ns)
}

// nullMsg is a 9-byte wire message (8 payload bytes + kind tag): the
// smallest realistic unit of traffic, so the null protocols measure the
// machinery around a message rather than the message.
type nullMsg struct{ V uint64 }

const nullKind wire.Kind = 1

func (m nullMsg) Kind() wire.Kind { return nullKind }
func (m nullMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U64(m.V)
	return w.Buf
}
func (m nullMsg) Size() int { return 8 }

func decodeNull(buf []byte) (wire.Message, error) {
	if len(buf) == 0 || wire.Kind(buf[0]) != nullKind {
		return nil, fmt.Errorf("bench: null message: %w", wire.ErrMalformed)
	}
	r := wire.NewReader(buf[1:])
	m := nullMsg{V: r.U64()}
	return m, r.Finish()
}

// nullNode multicasts one nullMsg per round for a fixed number of rounds,
// reads nothing, then halts: a round of n such nodes costs what the runtime
// charges for n multicasts and n² deliveries, and nothing else.
type nullNode struct {
	rounds int
	round  int
}

func (n *nullNode) Step(round int, _ []netsim.Delivered) []netsim.Send {
	n.round = round + 1
	if round >= n.rounds {
		return nil
	}
	return []netsim.Send{netsim.Multicast(nullMsg{V: uint64(round)})}
}
func (n *nullNode) Output() (types.Bit, bool) { return types.Zero, n.Halted() }
func (n *nullNode) Halted() bool              { return n.round > n.rounds }

const (
	nullProtocol scenario.Protocol = "bench-null"
	nullRounds                     = 24
)

func nullNodes(n, rounds int) []netsim.Node {
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		nodes[i] = &nullNode{rounds: rounds}
	}
	return nodes
}

func registerNullProtocol() {
	scenario.RegisterProtocol(nullProtocol, func(cfg scenario.Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		return nullNodes(cfg.N, nullRounds), nil, nullRounds + 2, nil
	})
	scenario.RegisterDecoder(nullProtocol, decodeNull)
}

// nullAsync floods the event runtime: every node multicasts on Start and
// again after each n deliveries, for a fixed number of generations.
type nullAsync struct {
	n, gens  int
	got, gen int
}

func (a *nullAsync) Start() []netsim.Send {
	return []netsim.Send{netsim.Multicast(nullMsg{})}
}
func (a *nullAsync) Deliver(netsim.Delivered) []netsim.Send {
	a.got++
	if a.got%a.n == 0 && a.gen < a.gens {
		a.gen++
		return []netsim.Send{netsim.Multicast(nullMsg{V: uint64(a.gen)})}
	}
	return nil
}
func (a *nullAsync) Output() (types.Bit, bool) { return types.Zero, a.Halted() }
func (a *nullAsync) Halted() bool              { return a.got >= a.n*(a.gens+1) }

// layerTable collects the isolated timings. fail records the first way a
// layer answered wrongly or could not be driven (a valid ticket rejected, a
// message that does not decode, a runtime that would not start): the timing
// is then meaningless and the traced pass fails. Timed closures call it,
// some of them concurrently.
type layerTable struct {
	v     map[string]float64
	notes map[string]string
	mu    sync.Mutex
	err   error
}

func (t *layerTable) set(metric string, value float64, note string) {
	t.v[metric] = value
	if note != "" {
		t.notes[metric] = note
	}
}

func (t *layerTable) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil && err != nil {
		t.err = err
	}
}

func (t *layerTable) reject(what string) { t.fail(fmt.Errorf("bench: %s", what)) }

// The shapes the isolated timings share with the workloads: the dense
// workloads' node count and expected committee size.
const (
	layerN      = 1000
	layerLambda = 40
)

// isolatedLayers fills v with every isolated per-layer metric.
func isolatedLayers(v map[string]float64, notes map[string]string) error {
	t := &layerTable{v: v, notes: notes}
	t.netsimNull()
	t.fmineIdeal()
	t.realCrypto()
	t.attestSets()
	t.codecAndTransport()
	t.clusterNull()
	t.asyncTrack()
	t.harnessAndObs()
	return t.err
}

// netsimNull: the three engines on null traffic.
func (t *layerTable) netsimNull() {
	const rounds = 60
	for _, eng := range []struct {
		metric string
		sparse bool
	}{{"netsim.null_round_us", false}, {"netsim.null_round_sparse_us", true}} {
		ns := timePer(rounds, func() {
			rt, err := netsim.NewRuntime(netsim.Config{N: layerN, MaxRounds: rounds + 2, Sparse: eng.sparse}, nullNodes(layerN, rounds), nil)
			if err != nil {
				t.fail(err)
				return
			}
			rt.Run()
		})
		t.set(eng.metric, ns/1e3, fmt.Sprintf("n=%d stub nodes, one 9-byte multicast each per round", layerN))
	}

	const n, gens = 32, 200
	deliveries := n * n * (gens + 1)
	ns := timePer(deliveries, func() {
		nodes := make([]netsim.AsyncNode, n)
		for i := range nodes {
			nodes[i] = &nullAsync{n: n, gens: gens}
		}
		rt, err := netsim.NewEventRuntime(netsim.EventConfig{N: n, F: 10, Seed: layerSeed, Sched: netsim.SchedRandom}, nodes)
		if err != nil {
			t.fail(err)
			return
		}
		if res := rt.Run(); res.Rounds != deliveries {
			t.fail(fmt.Errorf("bench: event null run delivered %d, want %d", res.Rounds, deliveries))
		}
	})
	t.set("netsim.event_null_delivery_ns", ns, fmt.Sprintf("n=%d stub nodes, random scheduler, %d deliveries", n, deliveries))
}

// fmineIdeal: first-attempt mining, and verification of won tickets by one
// goroutine and by GOMAXPROCS goroutines sharing the *Ideal the way sparse
// shards do.
func (t *layerTable) fmineIdeal() {
	type ticket struct {
		tag   fmine.Tag
		id    types.NodeID
		proof []byte
	}
	var tags []fmine.Tag
	for iter := uint32(1); iter <= 10; iter++ {
		tags = append(tags, core.VoteTag(iter, types.Zero), core.VoteTag(iter, types.One))
	}
	var ideal *fmine.Ideal
	var tickets []ticket
	mine := timePer(len(tags)*layerN, func() {
		ideal = fmine.NewIdeal(layerSeed, core.Probabilities(layerN, layerLambda))
		tickets = tickets[:0]
		for _, tag := range tags {
			for id := 0; id < layerN; id++ {
				if proof, ok := ideal.Miner(types.NodeID(id)).Mine(tag); ok {
					tickets = append(tickets, ticket{tag, types.NodeID(id), proof})
				}
			}
		}
	})
	t.set("fmine.ideal_mine_ns", mine, fmt.Sprintf("first attempt per (tag, node): %d tags x %d nodes, %d tickets won", len(tags), layerN, len(tickets)))

	const verifiers = 400 // each ticket is verified once per simulated receiver
	verifier := ideal.Verifier()
	verifyAll := func(times int) {
		for k := 0; k < times; k++ {
			for _, tk := range tickets {
				if !verifier.Verify(tk.tag, tk.id, tk.proof) {
					t.reject("fmine.Ideal rejected a ticket it mined")
				}
			}
		}
	}
	calls := verifiers * len(tickets)
	serial := timePer(calls, func() { verifyAll(verifiers) })
	// The per-call latency each goroutine sees is wall x procs / calls:
	// equal to serial when nothing is contended.
	procs := runtime.GOMAXPROCS(0)
	par := float64(procs) * timePer(calls, func() {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				verifyAll(verifiers / procs)
			}()
		}
		wg.Wait()
	})
	t.set("fmine.ideal_verify_ns", serial, fmt.Sprintf("%d verifies of won tickets, one goroutine", calls))
	t.set("fmine.ideal_verify_par_ns", par, fmt.Sprintf("same verifies from %d goroutines on one shared *Ideal, per-call latency", procs))
	t.set("fmine.ideal_verify_par_ratio", par/serial, fmt.Sprintf("%.1f ns parallel / %.1f ns serial; 1.0 = no contention", par, serial))
}

// realCrypto: trusted setup, the VRF, F_mine over it, and the signature
// verify cache.
func (t *layerTable) realCrypto() {
	const n = layerN
	var pub *pki.Public
	var secrets []pki.Secret
	t.set("pki.setup_ms", timePer(1, func() { pub, secrets = pki.Setup(n, layerSeed) })/1e6, fmt.Sprintf("n=%d", n))

	msg := core.VoteTag(1, types.One).Encode()
	proofs := make([][]byte, n)
	t.set("vrf.eval_us", timePer(n, func() {
		for i := range secrets {
			_, proofs[i] = vrf.Eval(secrets[i].VrfSK, msg)
		}
	})/1e3, "")
	t.set("vrf.verify_us", timePer(n, func() {
		for i := range proofs {
			if _, ok := vrf.Verify(pub.VRFKey(types.NodeID(i)), msg, proofs[i]); !ok {
				t.reject("vrf.Verify rejected a proof vrf.Eval made")
			}
		}
	})/1e3, "")

	always := func(fmine.Tag) float64 { return 1 } // every attempt wins: n tickets per tag
	tagA, tagB := core.VoteTag(2, types.Zero), core.VoteTag(2, types.One)
	var real *fmine.Real
	tickets := make([][]byte, n)
	t.set("fmine.real_mine_us", timePer(n, func() {
		real = fmine.NewReal(pub, secrets, always)
		for id := range tickets {
			tickets[id], _ = real.Miner(types.NodeID(id)).Mine(tagA)
		}
	})/1e3, "")
	verifier := real.Verifier()
	verifyAll := func() {
		for id, proof := range tickets {
			if !verifier.Verify(tagA, types.NodeID(id), proof) {
				t.reject("fmine.Real rejected a ticket it mined")
			}
		}
	}
	t0 := time.Now()
	verifyAll() // first sight of each ticket: a full Ed25519 verification, once
	t.set("fmine.real_verify_us", float64(time.Since(t0))/float64(n)/1e3, fmt.Sprintf("first verification of %d tickets (cache misses)", n))
	const again = 50
	t.set("fmine.real_verify_cached_ns", timePer(again*n, func() {
		for k := 0; k < again; k++ {
			verifyAll()
		}
	}), "")
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	t.set("fmine.real_mine_batch_us_per_id", timePer(n, func() { real.MineBatch(tagB, ids) })/1e3, "")

	cache := sig.NewCache()
	sigs := make([][]byte, 64)
	for i := range sigs {
		sigs[i] = sig.Sign(secrets[i].SigSK, msg)
		cache.Verify(pub.SigKey(types.NodeID(i)), msg, sigs[i])
	}
	const rep = 400
	t.set("sig.verify_cached_ns", timePer(rep*len(sigs), func() {
		for k := 0; k < rep; k++ {
			for i := range sigs {
				if !cache.Verify(pub.SigKey(types.NodeID(i)), msg, sigs[i]) {
					t.reject("sig.Cache rejected a valid signature")
				}
			}
		}
	}), "")
}

// attestSets: committee-sized attestation sets, owned and interned.
func (t *layerTable) attestSets() {
	const sets = 2000
	proof := make([]byte, fmine.IdealProofSize)
	fill := func(in *attest.Interner) {
		for s := 0; s < sets; s++ {
			var set attest.Set
			set.Bind(in) // nil: owned storage
			for id := 0; id < layerLambda; id++ {
				set.Add(types.NodeID(id*7), proof)
			}
		}
	}
	t.set("attest.add_ns", timePer(sets*layerLambda, func() { fill(nil) }),
		fmt.Sprintf("%d sets x %d adds, owned storage", sets, layerLambda))
	t.set("attest.add_interned_ns", timePer(sets*layerLambda, func() { fill(attest.NewInterner()) }),
		"same adds bound to one interner: identical histories share storage")
}

// codecAndTransport: a certificate-bearing core message through the wire
// codec, the envelope codec and framing, then envelopes through the chan and
// TCP transports.
func (t *layerTable) codecAndTransport() {
	proof := make([]byte, fmine.IdealProofSize)
	cert := attest.Certificate{Iter: 3, Bit: types.One}
	for id := 0; id < layerLambda; id++ {
		cert.Atts = append(cert.Atts, attest.Attestation{ID: types.NodeID(id * 7), Proof: proof})
	}
	msg := core.CommitMsg{Iter: 3, B: types.One, Cert: cert, Elig: proof}
	payload := wire.Marshal(msg)

	const reps = 20000
	t.set("wire.marshal_ns", timePer(reps, func() {
		for i := 0; i < reps; i++ {
			payload = wire.Marshal(msg)
		}
	}), fmt.Sprintf("core commit message with a %d-attestation certificate, %d bytes", layerLambda, len(payload)))
	t.set("wire.decode_ns", timePer(reps, func() {
		for i := 0; i < reps; i++ {
			if _, err := core.Decode(payload); err != nil {
				t.fail(err)
			}
		}
	}), "")

	env := transport.Envelope{Kind: transport.EnvData, Round: 3, Seq: 1, Payload: payload}
	buf := transport.AppendEnvelope(nil, env)
	t.set("transport.envelope_encode_ns", timePer(reps, func() {
		for i := 0; i < reps; i++ {
			buf = transport.AppendEnvelope(buf[:0], env)
		}
	}), "")
	t.set("transport.envelope_decode_ns", timePer(reps, func() {
		for i := 0; i < reps; i++ {
			if _, err := transport.DecodeEnvelope(buf); err != nil {
				t.fail(err)
			}
		}
	}), "")
	frame := transport.AppendFrame(nil, buf)
	t.set("transport.frame_ns", timePer(reps, func() {
		for i := 0; i < reps; i++ {
			frame = transport.AppendFrame(frame[:0], buf)
			if _, _, err := transport.ParseFrame(frame); err != nil {
				t.fail(err)
			}
		}
	}), "AppendFrame + ParseFrame of one encoded envelope")

	hop, err := hopTime(func() (transport.Network, error) { return transport.NewChanNetwork(2) }, env, 20000)
	t.fail(err)
	t.set("transport.chan_hop_us", hop/1e3, "2-endpoint ping-pong, half a round trip")

	hop, err = hopTime(func() (transport.Network, error) {
		return transport.NewTCPNetwork(context.Background(), transport.LoopbackAddrs(2), transport.TCPOptions{})
	}, env, 2000)
	if err != nil {
		// No loopback sockets here (a sealed sandbox): the metric feeds no
		// workload, so it is reported unmeasured rather than failing the run.
		fmt.Fprintf(os.Stderr, "bench: transport.tcp_hop_us not measured: %v\n", err)
		hop = 0
	}
	t.set("transport.tcp_hop_us", hop/1e3, "2 loopback endpoints, 2 connections; feeds no workload yet")

	const mesh, casts = 200, 500
	t.set("transport.chan_mcast_us", timePer(casts, func() {
		net, err := transport.NewChanNetwork(mesh)
		if err != nil {
			t.fail(err)
			return
		}
		defer net.Close()
		ep := net.Endpoints()[0]
		for i := 0; i < casts; i++ {
			if err := ep.Multicast(env); err != nil {
				t.fail(err)
			}
		}
	})/1e3, fmt.Sprintf("one sender, %d mailboxes", mesh))
}

// clusterNull: the cluster's barrier and fan-out on null traffic.
func (t *layerTable) clusterNull() {
	const n = 200
	ns := timePer(nullRounds, func() {
		net, err := transport.NewChanNetwork(n)
		if err != nil {
			t.fail(err)
			return
		}
		defer net.Close()
		if _, err := cluster.Run(context.Background(), scenario.Config{Protocol: nullProtocol, N: n, Seed: layerSeed}, net, cluster.Options{}); err != nil {
			t.fail(fmt.Errorf("cluster null protocol: %w", err))
		}
	})
	t.set("cluster.null_round_us", ns/1e3, fmt.Sprintf("n=%d stub nodes over the chan transport, %d rounds: barrier + fan-out per round", n, nullRounds))
}

// asyncTrack: one BRB and one ABA instance at the ACS workload's size, and
// how much the ACS composition costs over its 32 of each.
func (t *layerTable) asyncTrack() {
	instance := func(p scenario.Protocol, trials int) (ms, decide float64) {
		var walls, rounds []float64
		for trial := 0; trial < trials; trial++ {
			cfg := scenario.Config{Protocol: p, N: 32, F: 10, Sched: scenario.SchedRandom,
				Seed: harness.SeedFrom(layerSeed, "bench", string(p), trial)}
			t0 := time.Now()
			rep, err := ccba.Run(cfg)
			if _, err := judge(rep, err); err != nil {
				t.fail(fmt.Errorf("%s instance: %w", p, err))
				return 0, 0
			}
			walls = append(walls, float64(time.Since(t0))/1e6)
			rounds = append(rounds, float64(rep.Async.DecideRound))
		}
		return median(walls), mean(rounds)
	}
	brbMS, _ := instance(scenario.BRB, 9)
	abaMS, abaRounds := instance(scenario.ABA, 9)
	acsMS, _ := instance(scenario.ACS, 3)
	const each = "n=32 f=10 random scheduler, median of 9 ccba.Run calls"
	t.set("brb.instance_ms", brbMS, each)
	t.set("aba.instance_ms", abaMS, each)
	t.set("aba.decide_round_mean", abaRounds, "")
	t.set("acs.compose_ratio", acsMS/(32*(brbMS+abaMS)),
		fmt.Sprintf("%.1f ms ACS op / (32 x (%.3f ms BRB + %.3f ms ABA))", acsMS, brbMS, abaMS))
}

// harnessAndObs: the trial harness on empty trials, and one trace emission.
func (t *layerTable) harnessAndObs() {
	const trials = 5000
	t.set("harness.null_trial_us", timePer(trials, func() {
		_, err := harness.Run(harness.Options{Name: "bench", Scenario: "null", Trials: trials},
			func(harness.Trial) (struct{}, error) { return struct{}{}, nil })
		t.fail(err)
	})/1e3, "")

	const emits = 1_000_000
	sink := obs.NewSink(obs.NewRecorder(1 << 16))
	t.set("obs.emit_ns", timePer(emits, func() {
		for i := 0; i < emits; i++ {
			sink.Send(i>>10, types.NodeID(i&1023), i&7, types.Broadcast, 64)
		}
	}), "Sink.Send into a 65536-event ring Recorder")
}

// hopTime measures half a round trip between two endpoints of a fresh
// 2-node network, in nanoseconds.
func hopTime(open func() (transport.Network, error), env transport.Envelope, trips int) (float64, error) {
	net, err := open()
	if err != nil {
		return 0, err
	}
	defer net.Close()
	a, b := net.Endpoints()[0], net.Endpoints()[1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < 3*trips; i++ {
			got, err := b.Recv(ctx)
			if err == nil {
				got.From = b.Self() // TCP readers drop frames not from the connection's peer
				err = b.Send(a.Self(), got)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var pingErr error
	ns := timePer(2*trips, func() {
		env.From = a.Self()
		for i := 0; i < trips && pingErr == nil; i++ {
			if pingErr = a.Send(b.Self(), env); pingErr == nil {
				_, pingErr = a.Recv(ctx)
			}
		}
	})
	if pingErr != nil {
		cancel()
		<-echoErr
		return 0, pingErr
	}
	return ns, <-echoErr
}
