package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ccba/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Self time is a span's duration minus what its children cover, and
// children that overlap — steps of parallel shards — are covered once.
func TestSelfTimeCoversOverlapOnce(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []interval
		self     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping shards", []interval{{110, 150}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}, {125, 140}}, 20},
		{"unsorted and touching", []interval{{150, 160}, {140, 150}}, 80},
		{"clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"identical twins", []interval{{120, 140}, {120, 140}}, 80},
		{"outside entirely", []interval{{0, 50}, {250, 300}}, 100},
	}
	for _, c := range cases {
		if got := (parent.End - parent.Start) - covered(c.children, parent.Start, parent.End); got != c.self {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.self)
		}
	}
}

func TestAggregateSpanSeparatesBusyFromCovered(t *testing.T) {
	log := newSpanLog()
	parent := span{ID: 1, Op: 7, Start: 0, End: 100}
	agg := log.aggregate("core.step", parent, []interval{{0, 40}, {20, 60}, {80, 90}})
	if agg.Calls != 3 || agg.BusyNS != 90 || agg.CoveredNS != 70 || agg.Parent != 1 || agg.Op != 7 {
		t.Errorf("aggregate = %+v, want 3 calls, 90 busy, 70 covered under parent 1 op 7", agg)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 90: 46, 100: 50} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The selfcheck must judge spreads the way the accepting driver does:
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct{ in, want []float64 }{
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, []float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.2, 9.5, 4.4, 7.7}, []float64{2.65, 4.4, 8.6}},
		{[]float64{5, 1, 9, 3, 7, 2}, []float64{1.75, 4, 7.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

// Per-op seeds are part of the benchmark's definition: if the derivation
// moved, every recorded number would silently describe different inputs.
func TestSeedDerivationStable(t *testing.T) {
	w, _ := lookupWorkload("dense_core_n1000")
	sched := w.schedule()
	got := hex.EncodeToString(sched[0][:])
	const want = "cb7912b8d5440bc5145d76c2a8ef846c20dd9b5a0bbcd0002b8aec9bafaef48d"
	if got != want {
		t.Errorf("op 0's seed = %s, want %s", got, want)
	}
	if len(sched) != w.S || sched[0] == sched[1] {
		t.Errorf("schedule of %d ops, first two equal: %v", len(sched), sched[0] == sched[1])
	}
	other, _ := lookupWorkload("dense_faults_n1000")
	if other.schedule()[0] == sched[0] {
		t.Error("two workloads share a schedule")
	}
}

// -seed decides the order of a lap and nothing else: every order is a
// permutation of the schedule, the same seed gives the same one, and
// different seeds give different ones.
func TestLapOrderIsASeededPermutation(t *testing.T) {
	w, _ := lookupWorkload("dense_core_n1000")
	a, b, c := w.lapOrder(1), w.lapOrder(1), w.lapOrder(2)
	seen := make([]bool, w.S)
	for _, i := range a {
		if i < 0 || i >= w.S || seen[i] {
			t.Fatalf("lapOrder(1) = %v is not a permutation of [0, %d)", a, w.S)
		}
		seen[i] = true
	}
	if len(a) != w.S || !slices.Equal(a, b) {
		t.Errorf("lapOrder(1) twice: %v then %v", a, b)
	}
	if slices.Equal(a, c) {
		t.Errorf("seeds 1 and 2 gave the same order %v", a)
	}
}

// A segment is charged its fastest lap, segment by segment.
func TestFastestTakesEachSegmentsBestLap(t *testing.T) {
	laps := [][]float64{
		{1, 1, 9, 9, 5},
		{3, 3, 2, 2, 4},
	}
	// Segments of 2: {0,1} best 2 (lap 0), {2,3} best 4 (lap 1), {4} best 4.
	if got := fastest(laps, 2); !near(got, 10.0/5) {
		t.Errorf("fastest(seg 2) = %v, want 2", got)
	}
	// One segment: the faster whole lap, 14.
	if got := fastest(laps, 5); !near(got, 14.0/5) {
		t.Errorf("fastest(seg 5) = %v, want 2.8", got)
	}
	if got := fastest(laps[:1], 1); !near(got, 5) {
		t.Errorf("one lap: %v, want its mean 5", got)
	}
}

// An op's high-water mark is the mean of its three largest readings.
func TestHighWaterIsTheMeanOfTheTopThree(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{4, 8}, 6},
		{[]float64{9, 1, 7, 8, 2}, 8},
	} {
		if got := highWater(c.in); !near(got, c.want) {
			t.Errorf("highWater(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The limits BENCHMARK.json is refused for, checked where the names live.
func TestSpecIsWellFormed(t *testing.T) {
	s := spec()
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range s.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if len(specJSON()) > 64<<10 {
		t.Error("BENCHMARK.json over 64 KiB")
	}
}

// The names the binary prints are the names the driver expects.
func TestBenchmarkJSONIsTheSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("../BENCHMARK.json differs from `bench -spec`; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
}

// tiny shrinks a workload to smoke-test size: same shape, n=50, two ops.
func tiny(w workload) *workload {
	w.S, w.Seg = 2, 1
	w.Cfg.N, w.Cfg.F = 50, 15
	if w.Cfg.OmissionFaulty > 0 {
		w.Cfg.OmissionFaulty = 5
	}
	if w.Kind == simEvent {
		w.Cfg.N, w.Cfg.F = 16, 5
	}
	return &w
}

// All six workloads at n=50: no op fails, every end-to-end metric is
// printed under its BENCHMARK.json name, and two invocations agree exactly
// on everything that is not a time or an allocation, whatever their seeds.
func TestTinySmokeAllWorkloads(t *testing.T) {
	exact := []string{"comm_multicasts_per_op", "comm_mcast_kb_per_op", "comm_msgs_per_op", "steps_per_op", "ok_share"}
	for _, full := range workloads {
		w := tiny(full)
		a, b := runEndToEnd(w, 1, 1), runEndToEnd(w, 2, 1)
		for _, r := range []*report{a, b} {
			if r.failed != 0 || r.attempts != (warmupLaps+1+memoryLaps)*w.S {
				t.Errorf("%s: %d of %d ops failed: %v", w.Name, r.failed, r.attempts, r.failures)
			}
		}
		if a.digest != b.digest {
			t.Errorf("%s: result digests differ across invocations", w.Name)
		}
		for _, m := range exact {
			if a.values[m] != b.values[m] || a.values[m] <= 0 {
				t.Errorf("%s: %s = %v then %v", w.Name, m, a.values[m], b.values[m])
			}
		}
		var out bytes.Buffer
		if err := a.print(&out, endToEnd); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
		}
		if !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.Name, line)
		}
		for _, d := range endToEnd {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit || got.Value == 0 {
				t.Errorf("%s: result line has %s = %+v", w.Name, d.Name, got)
			}
		}
	}
}

// The traced ops are the same executions as the untraced ones: the runner
// compares every repeated op with its first result, so a decorated op that
// drifted from the plain one fails here, on every runtime.
func TestTracedOpsReproduceUntracedResults(t *testing.T) {
	registerBenchProtocols()
	for _, full := range workloads {
		w := tiny(full)
		r := newRunner(w, 1)
		p := &tracedPass{w: w, log: newSpanLog()}
		r.lap(p.baseline)
		r.lap(p.timed(0))
		p.counter = &eventCounter{}
		r.lap(p.counted)
		if r.failed != 0 || r.attempts != 3*w.S {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, r.failed, r.attempts, r.failures)
		}
		if w.Kind != simEvent && (mean(p.stepCalls) == 0 || mean(p.buildNS) == 0) {
			t.Errorf("%s: %v steps timed, build span %v ns", w.Name, mean(p.stepCalls), mean(p.buildNS))
		}
		if p.counter.count(obs.EvSend) == 0 {
			t.Errorf("%s: the event counter saw no sends", w.Name)
		}
	}
}

// One whole traced pass: every per-layer metric is produced, and the spans
// are written where asked.
func TestTinyTracedPassEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the isolated layer timings")
	}
	full, _ := lookupWorkload("cluster_chan_n200")
	dir := t.TempDir()
	rep, err := runTraced(tiny(*full), 1, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Errorf("%d traced ops failed: %v", rep.failed, rep.failures)
	}
	var out bytes.Buffer
	if err := rep.print(&out, perLayer); err != nil {
		t.Error(err)
	}
	for _, m := range []string{"cluster.run_ms", "cluster.sim_ratio", "core.step_ms", "fmine.ideal_verify_par_ratio", "cluster.null_round_us"} {
		if rep.values[m] <= 0 {
			t.Errorf("%s = %v", m, rep.values[m])
		}
	}
	if _, err := os.Stat(dir + "/trace-cluster_chan_n200.json"); err != nil {
		t.Errorf("spans not written: %v", err)
	}
}
