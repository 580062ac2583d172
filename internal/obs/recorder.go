package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// DefaultRecorderCap is the ceiling NewRecorder(0) resolves to: 2²² events,
// about 100 MB at 24 bytes an event, paid only by a run that emits them.
const DefaultRecorderCap = 1 << 22

// ErrTraceFull refuses the export of a recorder past its ceiling: it holds
// only the run's first events.
var ErrTraceFull = errors.New("obs: the trace is past the recorder's ceiling")

// Recorder is a mutex-guarded append-only log of events, the Tracer the
// command-line tools and tests plug in. It allocates as events arrive and
// keeps at most its ceiling; past it, it only counts, and Err and
// WriteJSONL refuse with ErrTraceFull.
type Recorder struct {
	mu    sync.Mutex
	log   []Event
	limit int
	over  uint64 // events emitted past the ceiling
}

// NewRecorder builds an empty recorder that keeps at most limit events
// (DefaultRecorderCap when limit <= 0).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultRecorderCap
	}
	return &Recorder{limit: limit}
}

// Emit appends one event, or only counts it once the log is at its ceiling.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	if len(r.log) < r.limit {
		r.log = append(r.log, e)
	} else {
		r.over++
	}
	r.mu.Unlock()
}

// Err returns nil while the recorder holds every event its run emitted,
// and ErrTraceFull, with the emitted and held counts, once it does not.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.over == 0 {
		return nil
	}
	return fmt.Errorf("%w: the run emitted %d events and the recorder holds its first %d, so no trace is written",
		ErrTraceFull, uint64(len(r.log))+r.over, len(r.log))
}

// Events sorts the log in place into canonical (Round, Node, Kind, Seq)
// order — the order WriteJSONL emits and cmd/tracediff aligns on — and
// returns it, read-only. The sort key extends to every field, so two
// recorders holding the same event multiset return identical slices however
// emissions from concurrent shards or node goroutines interleaved.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	slices.SortFunc(r.log, compare)
	return slices.Clip(r.log)
}

// WriteJSONL writes the canonical JSONL export: one event per line, fields
// hand-formatted in a fixed order, lines in canonical event order. Equal
// seeds produce byte-identical output across the serial, parallel, sparse,
// and live-cluster engines — the property TestEquivalenceMatrix pins. A
// recorder past its ceiling writes nothing and returns Err's refusal.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if err := r.Err(); err != nil {
		return err
	}
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
