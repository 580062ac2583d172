// Command bench runs the end-to-end protocol benchmarks and emits a
// machine-readable JSON report (ns/op, B/op, allocs/op per benchmark), so
// the performance trajectory of the simulator can be tracked across PRs:
//
//	go run ./cmd/bench -out BENCH_PR1.json
//	go run ./cmd/bench -benchtime 5 -only CoreIdealN1000
//
// The benchmark set mirrors the protocol benchmarks in bench_test.go; each
// case runs complete executions with per-iteration seed variation, exactly
// like `go test -bench`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/transport"
)

// benchCase is one tracked benchmark configuration. AllowViolations is for
// the adversarial network-model cases: under worst-case Δ-delay a lockstep
// protocol is expected to stall (that stall is what the case measures), so
// a termination violation is the workload, not a failure. Heavy cases (the
// million-node stretch point) are skipped unless named by -only, so the
// default run stays minutes, not hours.
type benchCase struct {
	Name            string
	Cfg             ccba.Config
	AllowViolations bool
	Heavy           bool
}

// cases mirrors the protocol benchmarks of bench_test.go. Keep the two
// lists in sync: this one feeds the tracked JSON artifacts.
//
// The two CoreIdealN1000Delta* cases bracket the scheduling layer:
// DeltaOne must keep the PR1 zero-allocation fast path (allocs/op on par
// with CoreIdealN1000), while delta=3 worst-case runs the general
// per-link scheduler at full fan-out to iteration exhaustion.
// The CoreIdeal*Sparse cases track the large-N node representation:
// N1000Sparse sits next to CoreIdealN1000 so its overhead at ordinary
// sizes stays visible, N10k/N100k are the scaling points the E13
// experiment sweeps — map-backed runs have no tracked cases there because
// Sparse is the supported way to run them.
var cases = []benchCase{
	{Name: "CoreIdealN200", Cfg: ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40}},
	{Name: "CoreIdealN1000", Cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40}},
	{Name: "CoreIdealN1000Sparse", Cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40, Sparse: true}},
	{Name: "CoreIdealN10kSparse", Cfg: ccba.Config{Protocol: ccba.Core, N: 10_000, F: 3_000, Lambda: 40, Sparse: true}},
	{Name: "CoreRealN10kSparse", Cfg: ccba.Config{Protocol: ccba.Core, N: 10_000, F: 3_000, Lambda: 40, Crypto: ccba.Real, Sparse: true}},
	{Name: "CoreIdealN100kSparse", Cfg: ccba.Config{Protocol: ccba.Core, N: 100_000, F: 30_000, Lambda: 40, Sparse: true}},
	// The E13 stretch point; run explicitly with -only N1MSparse. One
	// execution takes minutes, so it is excluded from the default set.
	{Name: "CoreIdealN1MSparse", Cfg: ccba.Config{Protocol: ccba.Core, N: 1_000_000, F: 300_000, Lambda: 40, Sparse: true}, Heavy: true},
	{Name: "CoreIdealN1000DeltaOne", Cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40, Net: ccba.NetDeltaOne, Delta: 1}},
	{Name: "CoreIdealN1000Delta3Worst", Cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40, MaxIters: 12, Net: ccba.NetWorstCase, Delta: 3}, AllowViolations: true},
	{Name: "CoreIdealN200Omission25", Cfg: ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40, Net: ccba.NetOmission, OmissionRate: 0.25}, AllowViolations: true},
	{Name: "CoreRealN200", Cfg: ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40, Crypto: ccba.Real}},
	{Name: "QuadraticN101", Cfg: ccba.Config{Protocol: ccba.Quadratic, N: 101, F: 50}},
	{Name: "DolevStrongN48", Cfg: ccba.Config{Protocol: ccba.DolevStrong, N: 48, F: 16, SenderInput: ccba.One}},
	{Name: "PhaseKingSampledN400", Cfg: ccba.Config{Protocol: ccba.PhaseKingSampled, N: 400, F: 80, Lambda: 30, Epochs: 12}},
}

// sweepCase is one tracked trial-sweep configuration: the same 16-trial
// sweep measured serially and on the full worker pool records the harness's
// parallel speedup on whatever host ran the benchmark.
type sweepCase struct {
	Name    string
	Cfg     ccba.Config
	Trials  int
	Workers int // 0 = GOMAXPROCS
}

var sweepCases = []sweepCase{
	{"TrialSweepCoreN200T16W1", ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40}, 16, 1},
	{"TrialSweepCoreN200T16Wmax", ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40}, 16, 0},
	{"TrialSweepPhaseKingSampledN400T16W1", ccba.Config{Protocol: ccba.PhaseKingSampled, N: 400, F: 80, Lambda: 30, Epochs: 12}, 16, 1},
	{"TrialSweepPhaseKingSampledN400T16Wmax", ccba.Config{Protocol: ccba.PhaseKingSampled, N: 400, F: 80, Lambda: 30, Epochs: 12}, 16, 0},
}

// clusterCase is one tracked live-cluster throughput configuration: the
// same protocol executions as the simulator cases, but run on the cluster
// runtime — Instances concurrent agreement instances per op, each on its
// own network. Transport "" is the in-process chan mesh; "tcp" a loopback
// socket mesh. A non-nil Chaos injects that fault schedule at the
// transport, measuring the runtime under deterministic adversity; those
// cases allow violations because liveness under drops is the measured
// degradation, not a failure (safety violations still fail the run).
type clusterCase struct {
	Name            string
	Cfg             ccba.Config
	Instances       int
	Transport       string
	Chaos           *ccba.ChaosConfig
	Opts            cluster.Options
	AllowViolations bool
}

var clusterCases = []clusterCase{
	{Name: "ClusterChanCoreN64", Cfg: ccba.Config{Protocol: ccba.Core, N: 64, F: 19, Lambda: 14}, Instances: 1},
	{Name: "ClusterChanCoreN200", Cfg: ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40}, Instances: 1},
	{Name: "ClusterChanCoreN32x8", Cfg: ccba.Config{Protocol: ccba.Core, N: 32, F: 9, Lambda: 10}, Instances: 8},
	{Name: "ClusterChanQuadraticN31", Cfg: ccba.Config{Protocol: ccba.Quadratic, N: 31, F: 15}, Instances: 1},
	{Name: "ChaosChanCoreN32Drop25", Cfg: ccba.Config{Protocol: ccba.Core, N: 32, F: 9, Lambda: 10, MaxIters: 12},
		Instances: 1, Chaos: &ccba.ChaosConfig{DropRate: 0.25}, AllowViolations: true},
	{Name: "ChaosChanCoreN32Delta2", Cfg: ccba.Config{Protocol: ccba.Core, N: 32, F: 9, Lambda: 10, MaxIters: 12},
		Instances: 1, Chaos: &ccba.ChaosConfig{Delta: 2, DropRate: 0.2, Reorder: 0.2},
		Opts: cluster.Options{RoundInterval: 2 * time.Millisecond, RoundTimeout: 60 * time.Second}, AllowViolations: true},
	{Name: "ChaosTCPCoreN8Delta2", Cfg: ccba.Config{Protocol: ccba.Core, N: 8, F: 2, Lambda: 4, MaxIters: 12},
		Instances: 1, Transport: "tcp", Chaos: &ccba.ChaosConfig{Delta: 2, DropRate: 0.25, Reorder: 0.2},
		Opts: cluster.Options{RoundInterval: 2 * time.Millisecond, RoundTimeout: 60 * time.Second}, AllowViolations: true},
}

// Result is one benchmark measurement. The cluster cases additionally
// report throughput: agreement instances per second, and classical messages
// per second through the transport (derived from the instances-per-sec rate
// and a fixed-seed calibration of messages per instance).
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GOMAXPROCS and Workers pin the parallelism the case ran with: the
	// round engine steps nodes on min(GOMAXPROCS, n) workers, and Workers
	// is the resolved trial-pool size of a sweep case (0 elsewhere), so
	// speedup comparisons across hosts and PRs need no side-channel.
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers,omitempty"`
	// PeakHeapBytes is the maximum live heap (runtime.ReadMemStats
	// HeapAlloc, sampled throughout the run) — the memory-wall axis the
	// large-N work optimises, which allocation totals don't show.
	PeakHeapBytes   uint64  `json:"peak_heap_bytes,omitempty"`
	InstancesPerSec float64 `json:"instances_per_sec,omitempty"`
	MsgsPerSec      float64 `json:"msgs_per_sec,omitempty"`
	// Intern is the attestation intern table's sharing telemetry from a
	// fixed-seed calibration run — sparse cases only, where interning
	// defaults on. Like the cluster msgs/sec calibration, the fixed seed
	// keeps the tracked counts comparable across PRs.
	Intern *ccba.InternStats `json:"intern,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Date       string   `json:"date"`
	Notes      []string `json:"notes,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out       = fs.String("out", "", "write the JSON report to this file (default stdout)")
		benchtime = fs.Int("benchtime", 0, "fixed iteration count per benchmark (default: testing's ~1s auto-scaling)")
		only      = fs.String("only", "", "comma-separated benchmark name substrings to run")
		notes     = fs.String("notes", "", "semicolon-separated annotations recorded in the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	maxprocs := runtime.GOMAXPROCS(0)
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: maxprocs,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if *notes != "" {
		rep.Notes = strings.Split(*notes, ";")
	}

	for _, c := range cases {
		if *only == "" && c.Heavy {
			continue // stretch points run only when named explicitly
		}
		if *only != "" && !matches(c.Name, *only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", c.Name)
		intern, err := calibrateIntern(c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		r, peak := measure(singleRunBody(c.Cfg, c.AllowViolations), *benchtime)
		rep.Results = append(rep.Results, Result{
			Name:          c.Name,
			Iterations:    r.N,
			NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:    r.AllocedBytesPerOp(),
			AllocsPerOp:   r.AllocsPerOp(),
			GOMAXPROCS:    maxprocs,
			PeakHeapBytes: peak,
			Intern:        intern,
		})
	}

	for _, c := range sweepCases {
		if *only != "" && !matches(c.Name, *only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", c.Name)
		workers := c.Workers
		if workers <= 0 {
			workers = maxprocs
		}
		r, peak := measure(sweepBody(c), *benchtime)
		rep.Results = append(rep.Results, Result{
			Name:          c.Name,
			Iterations:    r.N,
			NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:    r.AllocedBytesPerOp(),
			AllocsPerOp:   r.AllocsPerOp(),
			GOMAXPROCS:    maxprocs,
			Workers:       workers,
			PeakHeapBytes: peak,
		})
	}

	for _, c := range clusterCases {
		if *only != "" && !matches(c.Name, *only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", c.Name)
		msgsPerInstance, err := calibrateCluster(c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		r, peak := measure(clusterBody(c), *benchtime)
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		res := Result{
			Name:          c.Name,
			Iterations:    r.N,
			NsPerOp:       nsPerOp,
			BytesPerOp:    r.AllocedBytesPerOp(),
			AllocsPerOp:   r.AllocsPerOp(),
			GOMAXPROCS:    maxprocs,
			PeakHeapBytes: peak,
		}
		if nsPerOp > 0 {
			res.InstancesPerSec = float64(c.Instances) * 1e9 / nsPerOp
			res.MsgsPerSec = res.InstancesPerSec * msgsPerInstance
		}
		rep.Results = append(rep.Results, res)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

func matches(name, only string) bool {
	for _, s := range strings.Split(only, ",") {
		if s != "" && strings.Contains(strings.ToLower(name), strings.ToLower(s)) {
			return true
		}
	}
	return false
}

// singleRunBody measures complete protocol executions, varying the seed per
// iteration exactly like bench_test.go so results stay comparable with
// `go test -bench`.
func singleRunBody(cfg ccba.Config, allowViolations bool) func(i int) error {
	return func(i int) error {
		c := cfg
		c.Seed[29] = byte(i)
		c.Seed[28] = byte(i >> 8)
		rep, err := ccba.Run(c)
		if err != nil {
			return err
		}
		if !rep.Ok() && !allowViolations {
			return fmt.Errorf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
		}
		return nil
	}
}

// runCluster executes cfg once on a fresh cluster over the case's
// transport, injecting the case's chaos schedule when one is declared.
func runCluster(c clusterCase, cfg ccba.Config) (*cluster.Report, error) {
	ctx := context.Background()
	var netw transport.Network
	var err error
	if c.Transport == "tcp" {
		netw, err = transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	} else {
		netw, err = transport.NewChanNetwork(cfg.N)
	}
	if err != nil {
		return nil, err
	}
	defer netw.Close()
	if c.Chaos != nil {
		return cluster.RunChaos(ctx, cfg, netw, *c.Chaos, c.Opts)
	}
	return cluster.Run(ctx, cfg, netw, c.Opts)
}

// calibrateIntern runs one fixed-seed execution of a sparse case and
// returns the report's intern-table sharing stats; nil for dense cases,
// which do not intern. The extra run is what keeps the measured loop free
// of report plumbing.
func calibrateIntern(c benchCase) (*ccba.InternStats, error) {
	if !c.Cfg.Sparse {
		return nil, nil
	}
	rep, err := ccba.Run(c.Cfg)
	if err != nil {
		return nil, err
	}
	if !rep.Ok() && !c.AllowViolations {
		return nil, fmt.Errorf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
	return rep.Intern, nil
}

// calibrateCluster measures the classical message count of one fixed-seed
// instance, from which the msgs/sec rate is derived. Seed variation moves
// the count a little between iterations; the fixed-seed figure keeps the
// tracked rate comparable across PRs.
func calibrateCluster(c clusterCase) (float64, error) {
	rep, err := runCluster(c, c.Cfg)
	if err != nil {
		return 0, err
	}
	return float64(rep.Result.Metrics.HonestMessages), nil
}

// clusterBody measures Instances concurrent live agreement instances per
// iteration, each on its own chan network with per-iteration seed
// variation.
func clusterBody(c clusterCase) func(i int) error {
	return func(i int) error {
		errs := make([]error, c.Instances)
		var wg sync.WaitGroup
		for k := 0; k < c.Instances; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				cfg := c.Cfg
				cfg.Seed[29] = byte(i)
				cfg.Seed[28] = byte(i >> 8)
				cfg.Seed[27] = byte(k)
				rep, err := runCluster(c, cfg)
				if err == nil && !rep.Ok() {
					v := rep.Consistency != nil || rep.Validity != nil || (!c.AllowViolations && rep.Termination != nil)
					if v {
						err = fmt.Errorf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
					}
				}
				errs[k] = err
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// sweepBody measures one harness trial sweep per iteration.
func sweepBody(c sweepCase) func(i int) error {
	return func(i int) error {
		cfg := c.Cfg
		cfg.Seed[27] = byte(i)
		st, err := ccba.RunTrialsOpts(cfg, ccba.TrialOpts{Trials: c.Trials, Workers: c.Workers})
		if err != nil {
			return err
		}
		if st.Violations != 0 {
			return fmt.Errorf("%d violations", st.Violations)
		}
		return nil
	}
}

// heapSampler tracks the maximum live heap (MemStats.HeapAlloc) seen while
// a measurement runs, by polling on a short ticker. Peak heap is the axis
// the large-N memory work moves — a run can allocate terabytes cumulatively
// (bytes_per_op) while never holding more than a few hundred megabytes
// live, and only the latter decides whether a million-node run fits.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	runtime.GC() // reset the live-heap baseline to this case's state
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

// finish stops sampling, takes one final reading, and returns the peak.
func (s *heapSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	return s.peak
}

// measure runs iteration under the testing harness (or a fixed iteration
// count when benchtime is set; testing.Benchmark has no iteration knob, so
// that path times the loop directly and reports through the same type),
// sampling peak live heap across the whole measurement. The sampler's
// 10 ms ReadMemStats polls cost well under a percent of any tracked case.
func measure(iteration func(i int) error, iters int) (testing.BenchmarkResult, uint64) {
	sampler := startHeapSampler()
	if iters > 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := iteration(i); err != nil {
				fmt.Fprintf(os.Stderr, "bench: run failed: %v\n", err)
				os.Exit(1)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return testing.BenchmarkResult{
			N:         iters,
			T:         elapsed,
			MemAllocs: after.Mallocs - before.Mallocs,
			MemBytes:  after.TotalAlloc - before.TotalAlloc,
		}, sampler.finish()
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := iteration(i); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r, sampler.finish()
}
