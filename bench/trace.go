package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// this package only, around calls into each layer's public functions; the
// program under test carries no timers.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Op     int    `json:"op"`     // spans of one agreement instance share it; 0 outside ops
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Calls, BusyNS and CoveredNS are set on aggregate spans, which stand
	// for many short child intervals (one per state-machine step) that
	// would be too many to keep: BusyNS is the sum of their durations,
	// CoveredNS the part of the parent they cover — smaller than BusyNS
	// when steps ran in parallel.
	Calls     int64 `json:"calls,omitempty"`
	BusyNS    int64 `json:"busy_ns,omitempty"`
	CoveredNS int64 `json:"covered_ns,omitempty"`
}

// interval is a half-open [start, end) stretch of trace time.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once: a span's self time is its duration minus what
// its children cover. It reorders ivs.
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	reach := lo // everything before reach is already counted
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < reach {
			s = reach
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent, op int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: l.now()})
	return len(l.spans)
}

// end closes span id and returns a copy of it.
func (l *spanLog) end(id int) span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = l.now()
	return *s
}

// aggregate records one span standing for many child intervals of parent.
func (l *spanLog) aggregate(name string, parent span, ivs []interval) span {
	agg := span{Parent: parent.ID, Op: parent.Op, Name: name, Start: parent.Start, End: parent.End, Calls: int64(len(ivs))}
	for _, iv := range ivs {
		agg.BusyNS += iv.end - iv.start
	}
	agg.CoveredNS = covered(ivs, parent.Start, parent.End)
	return l.add(agg)
}

// add records a span whose interval is already known and returns it with
// its id.
func (l *spanLog) add(s span) span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string, header map[string]any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"header": header, "spans": l.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
