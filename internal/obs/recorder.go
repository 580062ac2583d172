package obs

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"sync"
)

// DefaultRecorderCap is the ring capacity NewRecorder(0) resolves to:
// large enough to hold every event of the golden-trace configurations with
// room to spare, small enough (24 bytes/event) to be a non-decision.
const DefaultRecorderCap = 1 << 20

// Recorder is a mutex-guarded ring buffer of events — the Tracer the
// command-line tools and tests plug in. When the ring wraps, the oldest
// events are overwritten and counted in Dropped; a wrapped trace is no
// longer a pure function of the seed from round zero (only the retained
// window is), so capacity should exceed the expected event count wherever
// the determinism contract matters.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event once wrapped
	full    bool
	dropped uint64
}

// NewRecorder builds a recorder with the given ring capacity
// (DefaultRecorderCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Emit appends one event, overwriting the oldest when the ring is full.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	if !r.full && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.full = true
		r.buf[r.start] = e
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		r.dropped++
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns the number of events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events in canonical (Round, Node, Kind, Seq)
// order — the order WriteJSONL emits and cmd/tracediff aligns on. The
// sort key extends to every field, so two recorders holding the same event
// multiset always return identical slices regardless of how emissions from
// concurrent shards or node goroutines interleaved.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	r.mu.Unlock()
	slices.SortFunc(out, compare)
	return out
}

// WriteJSONL writes the canonical JSONL export: one event per line, fields
// hand-formatted in a fixed order, lines in canonical event order. Equal
// seeds produce byte-identical output across the serial, parallel, sparse,
// and live-cluster engines — the property TestEquivalenceMatrix pins.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 96)
	for _, e := range r.Events() {
		line = appendEventJSON(line[:0], e)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendEventJSON renders one event as its canonical JSON line (trailing
// newline included). The common prefix is fixed; the tail is per-kind, so
// every line carries exactly the fields its kind defines.
func appendEventJSON(b []byte, e Event) []byte {
	b = append(b, `{"round":`...)
	b = strconv.AppendInt(b, int64(e.Round), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(e.Seq), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	switch e.Kind {
	case EvDeliver:
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(e.B), 10)
	case EvSend:
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(e.B), 10)
	case EvDecide:
		b = append(b, `,"bit":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
	case EvMark:
		b = append(b, `,"acked":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
	case EvFault:
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
		b = append(b, `,"kind":"`...)
		b = append(b, FaultKind(e.B).String()...)
		b = append(b, '"')
	case EvCoin:
		b = append(b, `,"bit":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
	case EvAsyncDeliver:
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(e.A), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(e.B), 10)
	}
	b = append(b, '}', '\n')
	return b
}
