package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procStart is taken as early as the Go runtime lets user code run; setup_s
// is measured from it.
var procStart = time.Now()

// cpuSeconds returns the process's user+system CPU time so far. It counts
// every thread — node goroutines, sparse shard workers and the GC's
// background workers — which is what makes parallel waste visible next to
// wall time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counters is one reading of the process-wide cost counters a lap is
// charged by difference.
type counters struct {
	// begun and done bracket the reading itself, so an interval between
	// two readings excludes the time the readings took.
	begun, done time.Time
	cpu         float64
	mallocs     uint64
	bytes       uint64
	gcs         uint32
	gcCPU       float64
}

func readCounters() counters {
	begun := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	c := counters{
		begun:   begun,
		cpu:     cpuSeconds(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = sample[0].Value.Float64()
	}
	c.done = time.Now()
	return c
}

// heapSampler measures the live heap of whatever runs while it is on: one
// goroutine forces collections back to back and records the live heap each
// one marked. A forced collection leaves only reachable objects (and what
// was allocated while it marked), so the readings track the working set
// rather than the garbage the pacer happens to tolerate — resident-set size
// ranged 13–27 % run to run on the recording host, this does not. There is
// no rest between collections: with one, an op of the dense workloads got 4
// readings instead of 18 and its maximum spread six times as far.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	mb   []float64 // readings since the last take
	n    int       // readings in all
}

const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeapMB forces a collection and returns the megabytes it found
// reachable.
func liveHeapMB() float64 {
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	runtime.GC()
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / 1e6
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-h.stop:
				return
			default:
			}
			mb := liveHeapMB()
			h.mu.Lock()
			h.mb = append(h.mb, mb)
			h.n++
			h.mu.Unlock()
		}
	}()
	return h
}

// take returns the readings since the last call and starts a new list.
func (h *heapSampler) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	mb := h.mb
	h.mb = nil
	return mb
}

// close ends sampling and returns how many collections were forced.
func (h *heapSampler) close() int {
	close(h.stop)
	h.wg.Wait()
	return h.n
}

// highWater is an op's live-heap high-water mark from its readings: the
// mean of the three largest, so that one collection that caught a burst of
// allocation while it marked does not set it (on sparse_core_n10k such a
// reading sat 20 % above the rest and moved the plain maximum by as much).
func highWater(mb []float64) float64 {
	s := sortedCopy(mb)
	return mean(s[max(0, len(s)-3):])
}
