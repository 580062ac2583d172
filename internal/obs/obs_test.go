package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"ccba/internal/types"
)

func TestSinkDisabledIsNoOp(t *testing.T) {
	var s Sink
	if s.Enabled() {
		t.Fatal("zero Sink reports Enabled")
	}
	// Every method must be callable with no tracer.
	s.RoundStart(0, 0)
	s.Deliver(0, 0, 0, 1, 8)
	s.Send(0, 0, 0, types.Broadcast, 8)
	s.Decide(0, 0, types.One)
	s.Halt(0, 0)
	s.Mark(0, 0, 1)
	s.Fault(0, 0, 1, 0, FaultDrop)
}

func TestRecorderCanonicalOrder(t *testing.T) {
	emitAll := func(rec *Recorder, order []int) {
		s := NewSink(rec)
		emit := []func(){
			func() { s.Halt(1, 2) },
			func() { s.Send(1, 2, 0, types.Broadcast, 12) },
			func() { s.RoundStart(1, 2) },
			func() { s.Deliver(1, 2, 1, 5, 7) },
			func() { s.Deliver(1, 2, 0, 3, 7) },
			func() { s.Mark(0, 2, 1) },
			func() { s.Fault(1, 2, 4, 0, FaultCrash) },
			func() { s.Decide(1, 2, types.Zero) },
		}
		for _, i := range order {
			emit[i]()
		}
	}
	a, b := NewRecorder(64), NewRecorder(64)
	emitAll(a, []int{0, 1, 2, 3, 4, 5, 6, 7})
	emitAll(b, []int{7, 6, 5, 4, 3, 2, 1, 0})
	var wa, wb strings.Builder
	if err := a.WriteJSONL(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&wb); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Fatalf("canonical export depends on emission order:\n%s\nvs\n%s", wa.String(), wb.String())
	}
	want := `{"round":0,"node":2,"seq":0,"ev":"mark","acked":1}
{"round":1,"node":2,"seq":0,"ev":"round_start"}
{"round":1,"node":2,"seq":0,"ev":"deliver","from":3,"size":7}
{"round":1,"node":2,"seq":1,"ev":"deliver","from":5,"size":7}
{"round":1,"node":2,"seq":0,"ev":"send","to":-1,"size":12}
{"round":1,"node":2,"seq":0,"ev":"decide","bit":0}
{"round":1,"node":2,"seq":0,"ev":"halt"}
{"round":1,"node":2,"seq":0,"ev":"fault","to":4,"kind":"crash"}
`
	if wa.String() != want {
		t.Fatalf("canonical JSONL:\n%s\nwant:\n%s", wa.String(), want)
	}
}

func TestRecorderLinesAreJSON(t *testing.T) {
	rec := NewRecorder(16)
	s := NewSink(rec)
	s.RoundStart(3, 1)
	s.Send(3, 1, 0, 2, 40)
	s.Fault(3, 1, 2, 0, FaultDrop)
	var w strings.Builder
	if err := rec.WriteJSONL(&w); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(w.String(), "\n"), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		for _, key := range []string{"round", "node", "seq", "ev"} {
			if _, ok := doc[key]; !ok {
				t.Fatalf("line %q missing %q", line, key)
			}
		}
	}
}

// TestRecorderRefusesPastCeiling: a recorder past its ceiling keeps only
// counting, and both Err and WriteJSONL refuse with ErrTraceFull naming the
// emitted and held counts; WriteJSONL writes no byte.
func TestRecorderRefusesPastCeiling(t *testing.T) {
	rec := NewRecorder(4)
	s := NewSink(rec)
	for r := 0; r < 6; r++ {
		s.RoundStart(r, 0)
	}
	var w strings.Builder
	werr := rec.WriteJSONL(&w)
	for _, err := range []error{rec.Err(), werr} {
		if !errors.Is(err, ErrTraceFull) || !strings.Contains(err.Error(), "emitted 6 events and the recorder holds its first 4") {
			t.Fatalf("got %v, want ErrTraceFull naming 6 emitted and 4 held", err)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("a refused export wrote %d bytes", w.Len())
	}
	if evs := rec.Events(); len(evs) != 4 || evs[0].Round != 0 || evs[3].Round != 3 {
		t.Fatalf("held %+v, want rounds 0..3", evs)
	}
}

// TestRecorderAllocatesAsEventsArrive: a default recorder pays for the
// events its run emits, not for its ceiling.
func TestRecorderAllocatesAsEventsArrive(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := NewRecorder(0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Fatalf("NewRecorder(0) allocated %d B before its first event, want < 1 KiB", got)
	}
	if rec.Err() != nil || len(rec.Events()) != 0 {
		t.Fatal("a fresh recorder is not empty")
	}
}

func TestTelemetrySnapshot(t *testing.T) {
	var nilT *Telemetry
	nilT.RoundStarted(3) // nil receivers are no-ops
	nilT.CountSend(10)
	if s := nilT.Snapshot(); s.Rounds != 0 {
		t.Fatal("nil telemetry snapshot not zero")
	}

	tel := NewTelemetry(3)
	tel.RoundStarted(4)
	tel.RoundStarted(2)
	tel.Acked(5)
	tel.Acked(3)
	tel.CountSend(100)
	tel.CountSend(20)
	tel.AddInFlight(3)
	tel.AddInFlight(-1)
	tel.Drop(1, 2)
	tel.Drop(1, 2)
	tel.Drop(0, 1)
	tel.ObserveRoundLatency(0.01)
	s := tel.Snapshot()
	if s.Rounds != 5 || s.Acked != 5 {
		t.Fatalf("rounds/acked = %d/%d", s.Rounds, s.Acked)
	}
	if s.MsgsSent != 2 || s.BytesSent != 120 || s.InFlight != 2 {
		t.Fatalf("msgs/bytes/inflight = %d/%d/%d", s.MsgsSent, s.BytesSent, s.InFlight)
	}
	if s.ChaosDrops != 3 || len(s.DropsByLink) != 2 {
		t.Fatalf("drops = %d over %d links", s.ChaosDrops, len(s.DropsByLink))
	}
	if s.DropsByLink[0] != (LinkDrops{From: 0, To: 1, Drops: 1}) {
		t.Fatalf("first link = %+v", s.DropsByLink[0])
	}
	if s.RoundLatency == nil || s.RoundLatency.N != 1 {
		t.Fatalf("latency summary = %+v", s.RoundLatency)
	}
}

func TestServeExpvar(t *testing.T) {
	tel := NewTelemetry(2)
	tel.RoundStarted(7)
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ccba TelemetrySnapshot `json:"ccba"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if doc.Ccba.Rounds != 8 {
		t.Fatalf("ccba.rounds = %d, want 8", doc.Ccba.Rounds)
	}

	// A second Serve rebinds the published var to the new instance.
	tel2 := NewTelemetry(2)
	tel2.RoundStarted(1)
	srv2, err := Serve("127.0.0.1:0", tel2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp2, err := http.Get("http://" + srv2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ccba.Rounds != 2 {
		t.Fatalf("rebound ccba.rounds = %d, want 2", doc.Ccba.Rounds)
	}
}
