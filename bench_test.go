package ccba

// The benchmark harness regenerates every experiment table (E1–E10 in
// DESIGN.md §3, one benchmark per table) and measures the substrate hot
// paths. Run:
//
//	go test -bench=. -benchmem
//
// The En benchmarks report the headline quantity of their experiment as a
// custom metric so regressions in the *reproduced result* — not just the
// runtime — are visible.

import (
	"context"
	"testing"
	"time"

	"ccba/internal/cluster"
	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/sig"
	"ccba/internal/crypto/vrf"
	"ccba/internal/experiments"
	"ccba/internal/fmine"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// --- One benchmark per experiment table -----------------------------------

func BenchmarkE1StrongAdaptiveLowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1StrongAdaptive(experiments.Opts{Trials: 3})
		if err != nil {
			b.Fatal(err)
		}
		cheapViolations := res.Rows[0].ViolationRate
		b.ReportMetric(cheapViolations, "violation-rate")
	}
}

func BenchmarkE2MulticastComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2MulticastComplexity(experiments.Opts{Trials: 1}, 512)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: core multicasts at the largest n (flat in n ⇒ ~O(λ²)).
		var last experiments.E2Row
		for _, r := range res.Rows {
			if r.Protocol == "core (subquadratic)" {
				last = r
			}
		}
		b.ReportMetric(last.Multicasts, "multicasts@n=512")
		b.ReportMetric(last.Rounds, "rounds")
	}
}

func BenchmarkE3NoSetupAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3NoSetup(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].Corruptions, "corruptions")
		b.ReportMetric(res.Rows[len(res.Rows)-1].ViolationRate, "violation-rate")
	}
}

func BenchmarkE4TerminatePropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4TerminatePropagation(experiments.Opts{Trials: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PSpreadLE1, "P[spread<=1]")
	}
}

func BenchmarkE5CommitteeConcentration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5CommitteeConcentration(experiments.Opts{Trials: 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].PCorruptQuorum, "P[corrupt-quorum]@λ=160")
	}
}

func BenchmarkE6GoodIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6GoodIteration(experiments.Opts{Trials: 500})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].PGood, "P[good-iteration]")
	}
}

func BenchmarkE7SafetyTrials(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E7SafetyTrials(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalViolations), "violations")
	}
}

func BenchmarkE8BitSpecificAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E8BitSpecificAblation(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].AttackBroke), "strawman-broken")
		b.ReportMetric(float64(res.Rows[2].AttackBroke), "bit-specific-broken")
	}
}

func BenchmarkE9ProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9ProtocolComparison(experiments.Opts{Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
		viol := 0
		for _, r := range res.Rows {
			viol += r.Violations
		}
		b.ReportMetric(float64(viol), "violations")
	}
}

func BenchmarkE10PhaseKing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10PhaseKing(experiments.Opts{Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.SampledMulticasts, "sampled-multicasts@n=256")
	}
}

func BenchmarkE11ResilienceFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11ResilienceFrontier(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		viol := 0
		for _, r := range res.Rows {
			viol += r.SafetyViolations
		}
		b.ReportMetric(float64(viol), "safety-violations")
	}
}

func BenchmarkE12NetworkModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E12NetworkModels(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		viol := 0
		for _, r := range res.Rows {
			viol += r.SafetyViol
		}
		b.ReportMetric(float64(viol), "safety-violations")
	}
}

// --- Protocol end-to-end benchmarks ----------------------------------------

func benchProtocol(b *testing.B, cfg Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed[29] = byte(i)
		c.Seed[28] = byte(i >> 8)
		rep, err := Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Ok() {
			b.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
		}
	}
}

func BenchmarkCoreIdealN200(b *testing.B) {
	benchProtocol(b, Config{Protocol: Core, N: 200, F: 60, Lambda: 40})
}

func BenchmarkCoreIdealN1000(b *testing.B) {
	benchProtocol(b, Config{Protocol: Core, N: 1000, F: 300, Lambda: 40})
}

func BenchmarkCoreIdealN1000Sparse(b *testing.B) {
	benchProtocol(b, Config{Protocol: Core, N: 1000, F: 300, Lambda: 40, Sparse: true})
}

// The large-N scaling point of Sparse runs (E13's middle
// sweep entry); ~0.5 s per op, so use -benchtime=3x locally.
func BenchmarkCoreIdealN10kSparse(b *testing.B) {
	benchProtocol(b, Config{Protocol: Core, N: 10_000, F: 3_000, Lambda: 40, Sparse: true})
}

func BenchmarkCoreRealN200(b *testing.B) {
	benchProtocol(b, Config{Protocol: Core, N: 200, F: 60, Lambda: 40, Crypto: Real})
}

func BenchmarkQuadraticN101(b *testing.B) {
	benchProtocol(b, Config{Protocol: Quadratic, N: 101, F: 50})
}

func BenchmarkDolevStrongN48(b *testing.B) {
	benchProtocol(b, Config{Protocol: DolevStrong, N: 48, F: 16, SenderInput: One})
}

func BenchmarkPhaseKingSampledN400(b *testing.B) {
	benchProtocol(b, Config{Protocol: PhaseKingSampled, N: 400, F: 80, Lambda: 30, Epochs: 12})
}

// ACS on the event runtime: the async_acs_n32 workload's shape under each
// scheduler, then wider. A multicast's fan-out is the event queue's width,
// and no bench/ workload runs above n = 32. n = 128 is ~17M deliveries, past
// the default delivery cap, and takes seconds per op: use -benchtime=1x.
func BenchmarkACSN32Random(b *testing.B) {
	benchProtocol(b, Config{Protocol: ACS, N: 32, F: 10, Sched: SchedRandom})
}

func BenchmarkACSN32FIFO(b *testing.B) {
	benchProtocol(b, Config{Protocol: ACS, N: 32, F: 10, Sched: SchedFIFO})
}

func BenchmarkACSN32AdvDelay(b *testing.B) {
	benchProtocol(b, Config{Protocol: ACS, N: 32, F: 10, Sched: SchedAdvDelay})
}

func BenchmarkACSN64Random(b *testing.B) {
	benchProtocol(b, Config{Protocol: ACS, N: 64, F: 21, Sched: SchedRandom})
}

func BenchmarkACSN128Random(b *testing.B) {
	benchProtocol(b, Config{Protocol: ACS, N: 128, F: 42, Sched: SchedRandom, MaxDeliveries: 1 << 25})
}

// benchCluster runs cfg live once per op, on a fresh in-process chan network
// or, with tcp set, a loopback TCP mesh, injecting the config's network
// model. A consistency or validity violation fails the benchmark; a
// termination failure fails it only under the delta-one model, because
// under drops and delay stalling is the degradation a chaos case measures.
func benchCluster(b *testing.B, cfg Config, tcp bool, opts cluster.Options) {
	b.Helper()
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed[29] = byte(i)
		c.Seed[28] = byte(i >> 8)
		var netw transport.Network
		var err error
		if tcp {
			netw, err = transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(c.N), transport.TCPOptions{})
		} else {
			netw, err = transport.NewChanNetwork(c.N)
		}
		if err != nil {
			b.Fatal(err)
		}
		rep, err := cluster.Run(ctx, c, netw, opts)
		netw.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Consistency != nil || rep.Validity != nil || (cfg.Net == "" && rep.Termination != nil) {
			b.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
		}
	}
}

// The cluster_chan_n200 workload's shape: cluster.Run over a fresh chan
// network per op, so the live runtime's barrier, hand-off and delivery cost
// can be profiled without the bench/ module, e.g.
//
//	go test -run '^$' -bench ClusterChan -cpuprofile cpu.prof .
func BenchmarkClusterChanN200(b *testing.B) {
	benchCluster(b, Config{Protocol: Core, N: 200, F: 60, Lambda: 40}, false, cluster.Options{})
}

// The live runtime under the chaos model, applied in each node's round
// loop (DESIGN.md §7): 25 % drops at Δ = 1, then Δ = 2 with drops and
// per-link jitter on the chan and the TCP network. Every run is the
// simulator's execution of its config. CI runs the three with -bench Chaos.
func BenchmarkChaosChanCoreN32Drop25(b *testing.B) {
	benchCluster(b, Config{Protocol: Core, N: 32, F: 9, Lambda: 10, MaxIters: 12, Net: NetChaos, OmissionRate: 0.25}, false,
		cluster.Options{})
}

func BenchmarkChaosChanCoreN32Delta2(b *testing.B) {
	benchCluster(b, Config{Protocol: Core, N: 32, F: 9, Lambda: 10, MaxIters: 12, Net: NetChaos, Delta: 2, OmissionRate: 0.2}, false,
		cluster.Options{RoundTimeout: 60 * time.Second})
}

func BenchmarkChaosTCPCoreN8Delta2(b *testing.B) {
	benchCluster(b, Config{Protocol: Core, N: 8, F: 2, Lambda: 4, MaxIters: 12, Net: NetChaos, Delta: 2, OmissionRate: 0.25}, true,
		cluster.Options{RoundTimeout: 60 * time.Second})
}

// --- Substrate micro-benchmarks --------------------------------------------

func BenchmarkVRFEval(b *testing.B) {
	var seed [32]byte
	_, sk := sig.KeyFromSeed(seed)
	msg := []byte("ACK/iter=7/bit=1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vrf.Eval(sk, msg)
	}
}

func BenchmarkVRFVerify(b *testing.B) {
	var seed [32]byte
	pk, sk := sig.KeyFromSeed(seed)
	msg := []byte("ACK/iter=7/bit=1")
	_, proof := vrf.Eval(sk, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := vrf.Verify(pk, msg, proof); !ok {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkFmineIdealMine(b *testing.B) {
	f := fmine.NewIdeal([32]byte{1}, func(fmine.Tag) float64 { return 0.2 })
	m := f.Miner(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Mine(fmine.Tag{Domain: "bench", Type: 1, Iter: uint32(i), Bit: types.Zero})
	}
}

func BenchmarkFmineRealMine(b *testing.B) {
	pub, secrets := pki.Setup(4, [32]byte{1})
	f := fmine.NewReal(pub, secrets, func(fmine.Tag) float64 { return 0.2 })
	m := f.Miner(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Mine(fmine.Tag{Domain: "bench", Type: 1, Iter: uint32(i), Bit: types.Zero})
	}
}

func BenchmarkPKISetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var seed [32]byte
		seed[0] = byte(i)
		pki.Setup(100, seed)
	}
}

// --- Trial-sweep benchmarks -------------------------------------------------
//
// The harness multiplies PR 1's per-run speedups by core count; these two
// benchmarks measure the same 16-trial sweep serially and on a full worker
// pool, so BENCH_PR2.json records the parallel speedup on the host that ran
// it.

func benchTrialSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := Config{Protocol: Core, N: 200, F: 60, Lambda: 40}
	for i := 0; i < b.N; i++ {
		cfg.Seed[27] = byte(i)
		st, err := RunTrialsOpts(cfg, TrialOpts{Trials: 16, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if st.Violations != 0 {
			b.Fatalf("%d violations", st.Violations)
		}
	}
}

func BenchmarkTrialSweepCoreN200Serial(b *testing.B) { benchTrialSweep(b, 1) }

func BenchmarkTrialSweepCoreN200Parallel(b *testing.B) { benchTrialSweep(b, 0) }
