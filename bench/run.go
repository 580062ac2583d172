package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"ccba/internal/scenario"
)

// Lap plan of an untraced run. A lap runs the workload's S ops once, back to
// back, in the order -seed chose; every lap of a run does byte-identical
// work, so counts repeat exactly from lap to lap (and, the schedule being a
// constant of the workload, from run to run) and a time is taken over the
// laps' repeats of the same work (fastest, below). Every op after the first
// lap must reproduce its first-lap result, which checks determinism without
// spending a lap on it.
const (
	warmupLaps = 2
	memoryLaps = 1
	// lapSeconds is the nominal lap length S was sized for; -seconds is
	// converted to a whole number of measured laps with it, so the amount
	// of work is a function of the arguments alone, never of a clock.
	lapSeconds = 2
)

// measuredLaps converts the -seconds argument into measured laps.
func measuredLaps(seconds int) int {
	if n := seconds / lapSeconds; n > 1 {
		return n
	}
	return 1
}

// opCost is what one op was charged: process-wide counter differences
// across the op. Ops run one at a time, so everything the process spent
// between the two readings — node goroutines, shard workers, the collector's
// background workers — belongs to the op.
type opCost struct {
	wallMS  float64
	cpuMS   float64
	mallocs float64
	allocMB float64
	gcs     float64
	gcCPUMS float64
}

// opFunc executes one op of the schedule on its generated config.
type opFunc func(cfg scenario.Config) (*scenario.Report, error)

// runner drives one workload's schedule and keeps the correctness ledger:
// every op of every lap is judged by the paper's three checkers and, from
// the second lap on, compared with the same op's first-lap result, so a run
// that stops being a pure function of (config, seed) fails instead of
// averaging out.
type runner struct {
	w        *workload
	seeds    [][32]byte // seeds[i] is op i of the schedule
	order    []int      // the order a lap executes the ops in
	first    []outcome  // first[i] is op i's first-lap result
	laps     int
	attempts int
	failed   int
	failures []string
}

func newRunner(w *workload, seed uint64) *runner {
	return &runner{w: w, seeds: w.schedule(), order: w.lapOrder(seed), first: make([]outcome, w.S)}
}

func (r *runner) fail(i int, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("lap %d op %d: %v", r.laps, i, err))
	}
}

// lap runs the schedule once through exec and returns each op's cost in
// execution order — the same order every lap, so position k is the same op
// in all of them.
func (r *runner) lap(exec opFunc) []opCost {
	costs := make([]opCost, 0, r.w.S)
	before := readCounters()
	for _, i := range r.order {
		cfg, err := r.w.opConfig(r.seeds[i])
		var rep *scenario.Report
		if err == nil {
			rep, err = exec(cfg)
		}
		after := readCounters()
		costs = append(costs, opCost{
			wallMS:  after.begun.Sub(before.done).Seconds() * 1e3,
			cpuMS:   (after.cpu - before.cpu) * 1e3,
			mallocs: float64(after.mallocs - before.mallocs),
			allocMB: float64(after.bytes-before.bytes) / 1e6,
			gcs:     float64(after.gcs - before.gcs),
			gcCPUMS: (after.gcCPU - before.gcCPU) * 1e3,
		})

		r.attempts++
		out, err := judge(rep, err)
		switch {
		case err != nil:
			r.fail(i, err)
		case r.laps == 0:
			r.first[i] = out
		case out.Digest != r.first[i].Digest:
			r.fail(i, fmt.Errorf("result differs from the first lap's for the same seed (digest %x vs %x)",
				out.Digest[:6], r.first[i].Digest[:6]))
		}
		// The judging above is the benchmark's own work; the next op's
		// cost starts after it.
		before = readCounters()
	}
	r.laps++
	return costs
}

// scheduleDigest hashes the first-lap outcomes in schedule order: one line
// that changes whenever anything protocol-visible does.
func scheduleDigest(outs []outcome) string {
	var all []byte
	for i := range outs {
		all = append(all, outs[i].Digest[:]...)
	}
	digest := sha256.Sum256(all)
	return hex.EncodeToString(digest[:])
}

// report is everything a run prints.
type report struct {
	workload *workload
	seed     uint64
	plan     string    // the lap plan, in words
	lapWalls []float64 // every lap's wall seconds, in execution order
	values   map[string]float64
	notes    map[string]string
	digest   string
	attempts int
	failed   int
	failures []string
}

// pluck maps xs through f.
func pluck[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func lapWall(costs []opCost) float64 {
	return sum(pluck(costs, func(c opCost) float64 { return c.wallMS })) / 1e3
}

// fastest is the statistic of every time metric. A lap is cut into segments
// of seg consecutive ops; every lap ran every segment, doing identical work,
// and the segment is charged the least any lap spent on it: whatever else
// the host was doing can only have added time. The result is the segments'
// sum per op. A segment spans several collector cycles (workload.Seg), so
// the collector's share is in the figure whichever lap wins.
func fastest(laps [][]float64, seg int) float64 {
	ops := len(laps[0])
	var total float64
	for at := 0; at < ops; at += seg {
		end := min(at+seg, ops)
		best := math.Inf(1)
		for _, lap := range laps {
			best = min(best, sum(lap[at:end]))
		}
		total += best
	}
	return total / float64(ops)
}

// eachLap plucks f from every op of every lap.
func eachLap(laps [][]opCost, f func(opCost) float64) [][]float64 {
	out := make([][]float64, len(laps))
	for l, lap := range laps {
		out[l] = pluck(lap, f)
	}
	return out
}

// lapMean is the statistic of the allocation counts: f summed over all
// measured ops, per op.
func lapMean(laps [][]opCost, f func(opCost) float64) float64 {
	totals := pluck(laps, func(lap []opCost) float64 { return sum(pluck(lap, f)) })
	return sum(totals) / float64(len(laps)*len(laps[0]))
}

// runEndToEnd is the untraced run: warm-up laps, measured laps, one memory
// lap. Every end-to-end metric comes from here.
func runEndToEnd(w *workload, seed uint64, laps int) *report {
	r := newRunner(w, seed)
	plain := w.runOp

	var lapWalls []float64
	for i := 0; i < warmupLaps; i++ {
		lapWalls = append(lapWalls, lapWall(r.lap(plain)))
	}
	runtime.GC() // start the measured laps from the live set, not from warm-up garbage
	setupS := time.Since(procStart).Seconds()

	measured := make([][]opCost, laps)
	for l := range measured {
		measured[l] = r.lap(plain)
		lapWalls = append(lapWalls, lapWall(measured[l]))
	}

	// Memory lap: a sampler forces collections back to back while the lap
	// runs; each op's peak is the high-water mark of the readings taken
	// while it ran, and the metric is the mean over the lap's ops (the
	// maximum over the lap hangs on whether a collection caught the longest
	// op's last round: it spread several times as far run to run).
	sampler := startHeapSampler()
	var opPeaks []float64
	sampled := func(cfg scenario.Config) (*scenario.Report, error) {
		sampler.take() // what was live between ops is not this op's
		rep, err := plain(cfg)
		if mb := sampler.take(); len(mb) > 0 {
			opPeaks = append(opPeaks, highWater(mb))
		}
		return rep, err
	}
	for i := 0; i < memoryLaps; i++ {
		lapWalls = append(lapWalls, lapWall(r.lap(sampled)))
	}
	heapSamples := sampler.close()
	if len(opPeaks) == 0 {
		// Ops shorter than one collection (the tests' tiny shapes): report
		// what is live now rather than nothing.
		opPeaks = append(opPeaks, liveHeapMB())
	}

	outs := r.first
	perOp := func(f func(outcome) float64) float64 { return mean(pluck(outs, f)) }
	wallMS := fastest(eachLap(measured, func(c opCost) float64 { return c.wallMS }), w.Seg)
	ops := len(measured) * w.S
	overLaps := fmt.Sprintf("per op of the schedule, each %d-op segment at the fastest of its %d measured laps", w.Seg, len(measured))
	overOps := fmt.Sprintf("total over %d measured laps / %d ops", len(measured), ops)
	overSchedule := fmt.Sprintf("mean over the schedule's %d ops, honest counters of Result.Metrics", w.S)
	return &report{
		workload: w, seed: seed,
		plan: fmt.Sprintf("%d warm-up laps + %d measured laps + %d memory lap, every lap the same %d ops in the same order",
			warmupLaps, laps, memoryLaps, w.S),
		lapWalls: lapWalls,
		digest:   scheduleDigest(outs),
		attempts: r.attempts, failed: r.failed, failures: r.failures,
		values: map[string]float64{
			"setup_s":         setupS,
			"op_wall_ms":      wallMS,
			"ops_per_s":       1e3 / wallMS,
			"op_cpu_ms":       fastest(eachLap(measured, func(c opCost) float64 { return c.cpuMS }), w.Seg),
			"allocs_per_op":   lapMean(measured, func(c opCost) float64 { return c.mallocs }),
			"alloc_mb_per_op": lapMean(measured, func(c opCost) float64 { return c.allocMB }),
			"peak_heap_mb":    mean(opPeaks),
			"ok_share":        float64(r.attempts-r.failed) / float64(r.attempts),
			"comm_multicasts_per_op": perOp(func(o outcome) float64 {
				return float64(o.Metrics.HonestMulticasts)
			}),
			"comm_mcast_kb_per_op": perOp(func(o outcome) float64 {
				return float64(o.Metrics.HonestMulticastBytes) / 1e3
			}),
			"comm_msgs_per_op": perOp(func(o outcome) float64 {
				return float64(o.Metrics.HonestMessages)
			}),
			"steps_per_op": perOp(func(o outcome) float64 { return float64(o.Steps) }),
		},
		notes: map[string]string{
			"setup_s":                fmt.Sprintf("process start to first measured lap: init + %d warm-up laps", warmupLaps),
			"op_wall_ms":             overLaps,
			"ops_per_s":              "1000 / op_wall_ms: completed agreements per second, one closed-loop client",
			"op_cpu_ms":              overLaps + "; process user+sys",
			"allocs_per_op":          overOps,
			"alloc_mb_per_op":        overOps,
			"peak_heap_mb":           fmt.Sprintf("mean over %d memory-lap ops of the op's live-heap high-water mark (%d forced collections)", len(opPeaks), heapSamples),
			"ok_share":               fmt.Sprintf("1 - failed_share: %d of %d ops failed (error, a checker, or a result unlike the first lap's)", r.failed, r.attempts),
			"comm_multicasts_per_op": overSchedule + "; Definition 7, messages",
			"comm_mcast_kb_per_op":   overSchedule + "; Definition 7, bytes",
			"comm_msgs_per_op":       overSchedule + "; Definition 6",
			"steps_per_op":           fmt.Sprintf("mean over the schedule's %d ops, %s", w.S, stepUnit(w.Kind)),
		},
	}
}

func stepUnit(k runtimeKind) string {
	if k == simEvent {
		return "delivery steps"
	}
	return "rounds"
}
