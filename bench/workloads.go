package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/harness"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
)

// runtimeKind says which of the repository's runtimes executes a workload;
// it decides what one op calls and what "steps" counts.
type runtimeKind int

const (
	// simLockstep: ccba.Run on netsim.Runtime (dense or sparse engine).
	simLockstep runtimeKind = iota
	// simEvent: ccba.Run on netsim.EventRuntime (the asynchronous track).
	simEvent
	// clusterChan: cluster.Run over a fresh transport.ChanNetwork.
	clusterChan
)

// workload is one fixed input shape. Size fields are data, not code, so the
// tests can run the same six shapes at n=50.
type workload struct {
	Name string
	Why  string
	Kind runtimeKind
	// S is the schedule length: ops per lap. Chosen once so a lap takes
	// about two seconds on the recording host; never scaled at run time,
	// so a run's work is a function of its arguments alone.
	S int
	// Seg is how many consecutive ops the time statistic treats as one
	// segment (run.go, fastest): enough ops to span a few collector cycles,
	// about a quarter of a second of work.
	Seg int
	// Cfg is the agreement instance's shape; Seed is filled per op.
	Cfg scenario.Config
	// Adversary names a registered adversary built fresh for every op
	// (adversaries carry per-execution state); "" is passive.
	Adversary string
	// Delay is the message-delay statement echoed in the output.
	Delay string
}

const instantDelay = "instant delivery (no injected delay): latency is processor time only"

// workloads is the benchmark's fixed set. The why strings are what
// BENCHMARK.json records; bench/README.md carries the long form.
var workloads = []workload{
	{
		Name: "dense_core_n1000", Kind: simLockstep, S: 36, Seg: 6,
		Why:   "canonical cmd/ba run: dense lockstep engine + core state machine + ideal F_mine + attest, n=1000 f=300 lambda=40, S=36 ops/lap",
		Cfg:   scenario.Config{Protocol: scenario.Core, N: 1000, F: 300, Lambda: 40},
		Delay: "simulator, delta=1 lockstep, " + instantDelay,
	},
	{
		Name: "dense_faults_n1000", Kind: simLockstep, S: 28, Seg: 4,
		Why: "same engine on its other path: delta=2 omission net (rate 0.25, 100 faulty senders) + vote-flip adversary, so a lockstep-only gain that costs the scheduled path shows, S=28",
		Cfg: scenario.Config{Protocol: scenario.Core, N: 1000, F: 300, Lambda: 40,
			Net: scenario.NetOmission, Delta: 2, OmissionRate: 0.25, OmissionFaulty: 100},
		Adversary: "flip",
		Delay:     "simulator, delta=2 omission schedule in rounds, " + instantDelay,
	},
	{
		Name: "sparse_core_n10k", Kind: simLockstep, S: 3, Seg: 1,
		Why:   "sparse engine at the default SparseWorkers=0: shard merge, interned attestations and the shared fmine.Ideal verify lock (ROADMAP item A contention), n=10000 f=3000, S=3",
		Cfg:   scenario.Config{Protocol: scenario.Core, N: 10_000, F: 3000, Lambda: 40, Sparse: true},
		Delay: "simulator, delta=1 lockstep, " + instantDelay,
	},
	{
		Name: "real_core_n1000", Kind: simLockstep, S: 6, Seg: 1,
		Why:   "real crypto: pki.Setup keygen, Ed25519 VRF mine/verify and the verify cache dominate, the engine does little; crypto changes move only this, n=1000 f=300, S=6",
		Cfg:   scenario.Config{Protocol: scenario.Core, N: 1000, F: 300, Lambda: 40, Crypto: scenario.Real},
		Delay: "simulator, delta=1 lockstep, " + instantDelay,
	},
	{
		Name: "cluster_chan_n200", Kind: clusterChan, S: 12, Seg: 2,
		Why:   "live cluster over the in-process chan transport: codec, envelope framing, mailboxes and the all-ack barrier with 200 node goroutines, counts bit-identical to the simulator, n=200 f=60, S=12",
		Cfg:   scenario.Config{Protocol: scenario.Core, N: 200, F: 60, Lambda: 40},
		Delay: "chan cluster, all-ack barrier, no chaos, " + instantDelay,
	},
	{
		Name: "async_acs_n32", Kind: simEvent, S: 8, Seg: 1,
		Why:   "event runtime heap + BRB + ABA + ACS under the random scheduler; shares no engine code with the other five, so it is the bypass for lockstep changes, n=32 f=10, S=8",
		Cfg:   scenario.Config{Protocol: scenario.ACS, N: 32, F: 10, Sched: scenario.SchedRandom},
		Delay: "event runtime, seeded random delivery order, " + instantDelay,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// baseSeed widens a seed number into the harness's base-seed type.
func baseSeed(seed uint64) [32]byte {
	var b [32]byte
	binary.BigEndian.PutUint64(b[24:], seed)
	return b
}

// corpusSeed is the base every workload's per-op seeds derive from. It is a
// constant, not the -seed argument: the Definitions 6–7 counts and the steps
// per op are gated exactly, so every run of a workload has to execute the
// same S agreement instances whatever seed it is given (a few dozen
// instances with geometric round counts move their own mean by 10–20 % from
// one base to the next).
const corpusSeed = 1

// schedule derives the workload's S per-op seeds. The programs under test
// only ever see the configs built from these.
func (w *workload) schedule() [][32]byte {
	base := baseSeed(corpusSeed)
	out := make([][32]byte, w.S)
	for i := range out {
		out[i] = harness.SeedFrom(base, "bench", w.Name, i)
	}
	return out
}

// lapOrder is what -seed decides: the order in which every lap of the run
// executes the schedule's ops, a permutation of [0, S) sorted by a per-op
// key derived from the seed. -seed feeds nothing but harness.SeedFrom.
func (w *workload) lapOrder(seed uint64) []int {
	base := baseSeed(seed)
	keys := make([][32]byte, w.S)
	order := make([]int, w.S)
	for i := range order {
		keys[i] = harness.SeedFrom(base, "bench/order", w.Name, i)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(keys[order[a]][:], keys[order[b]][:]) < 0
	})
	return order
}

// opConfig builds op i's input: the workload's shape with the op's seed and
// a fresh adversary.
func (w *workload) opConfig(seed [32]byte) (scenario.Config, error) {
	cfg := w.Cfg
	cfg.Seed = seed
	if w.Adversary != "" {
		adv, err := scenario.NewAdversary(w.Adversary, cfg, 0)
		if err != nil {
			return cfg, err
		}
		cfg.Adversary = adv
	}
	return cfg, nil
}

// runOp executes one complete agreement instance — build nodes, run,
// evaluate the three checkers — the way a user of the library would.
func (w *workload) runOp(cfg scenario.Config) (*scenario.Report, error) {
	return w.runOpTracing(cfg, nil)
}

// runOpTracing is runOp with the runtime's own event tracer attached (nil:
// tracing off, the library's default).
func (w *workload) runOpTracing(cfg scenario.Config, tracer obs.Tracer) (*scenario.Report, error) {
	if w.Kind != clusterChan {
		cfg.Tracer = tracer
		return ccba.Run(cfg)
	}
	net, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	rep, err := cluster.Run(context.Background(), cfg, net, cluster.Options{Tracer: tracer})
	if err != nil {
		return nil, err
	}
	return rep.Report, nil
}

// outcome is what one op is judged and accounted by.
type outcome struct {
	// Digest covers everything protocol-visible: outputs, decided flags,
	// steps and the four Definitions 6–7 counters.
	Digest  [32]byte
	Metrics netsim.Metrics
	Steps   int
}

// judge turns a finished op into its outcome; the error reports an op that
// failed outright or broke one of the paper's three properties.
func judge(rep *scenario.Report, err error) (outcome, error) {
	if err != nil {
		return outcome{}, err
	}
	o := outcome{Metrics: rep.Metrics, Steps: rep.Rounds, Digest: resultDigest(rep.Result)}
	switch {
	case rep.Consistency != nil:
		return o, fmt.Errorf("consistency: %w", rep.Consistency)
	case rep.Validity != nil:
		return o, fmt.Errorf("validity: %w", rep.Validity)
	case rep.Termination != nil:
		return o, fmt.Errorf("termination: %w", rep.Termination)
	}
	return o, nil
}

// resultDigest hashes the protocol-visible part of a result.
func resultDigest(res *netsim.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	put(len(res.Outputs))
	for i, b := range res.Outputs {
		decided := byte(0)
		if res.Decided[i] {
			decided = 1
		}
		h.Write([]byte{byte(b), decided})
	}
	put(res.Rounds)
	put(res.Metrics.HonestMulticasts)
	put(res.Metrics.HonestMulticastBytes)
	put(res.Metrics.HonestMessages)
	put(res.Metrics.HonestMessageBytes)
	var out [32]byte
	h.Sum(out[:0])
	return out
}
