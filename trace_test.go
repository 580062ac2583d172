package ccba

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/testenv"
	"ccba/internal/transport"
)

// The trace goldens extend the fixed-seed goldens one level down: not just
// the end state, but the canonical JSONL of every round-lifecycle event
// (DESIGN.md §10). The digest below pins the core-ideal-n80 trace; every
// execution regime — one stepping worker or several, with or without
// Sparse, and the live chan cluster at Δ=1, whose nodes keep every
// iteration — must reproduce it byte for byte, which is what makes cmd/tracediff's line-by-line alignment sound.
const traceGoldenDigest = "7dbfcf95599988a9"

// traceJSONL runs cfg in the simulator with a fresh recorder attached and
// returns the exported canonical JSONL.
func traceJSONL(t *testing.T, cfg Config) []byte {
	t.Helper()
	rec := obs.NewRecorder(0)
	cfg.Tracer = rec
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violation: consistency=%v validity=%v termination=%v",
			rep.Consistency, rep.Validity, rep.Termination)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func traceDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

func TestTraceGoldenAcrossEngines(t *testing.T) {
	base := goldenCases[0].cfg // core-ideal-n80
	base.Seed[0] = 7
	testenv.SetGOMAXPROCS(t, 1)
	serial := traceJSONL(t, base)
	if got := traceDigest(serial); got != traceGoldenDigest {
		t.Errorf("serial trace digest = %s, want golden %s", got, traceGoldenDigest)
	}
	// The shards emit concurrently; the recorder canonicalises order.
	variants := []struct {
		name   string
		procs  int
		sparse bool
	}{
		{"parallel", 2, false},
		{"parallel-3", 3, false},
		{"parallel-7", 7, false},
		{"sparse-w1", 1, true},
		{"sparse-w4", 4, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			testenv.SetGOMAXPROCS(t, v.procs)
			cfg := base
			cfg.Sparse = v.sparse
			got := traceJSONL(t, cfg)
			if !bytes.Equal(got, serial) {
				t.Errorf("%s trace differs from serial (%d vs %d bytes); debug with cmd/tracediff",
					v.name, len(got), len(serial))
			}
		})
	}
}

func TestTraceClusterMatchesSim(t *testing.T) {
	cfg := goldenCases[0].cfg
	cfg.Seed[0] = 7
	sim := traceJSONL(t, cfg)

	rec := obs.NewRecorder(0)
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	rep, err := cluster.Run(context.Background(), cfg, netw, cluster.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violation: consistency=%v validity=%v termination=%v",
			rep.Consistency, rep.Validity, rep.Termination)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), sim) {
		t.Errorf("cluster trace differs from sim (%d vs %d bytes); debug with cmd/tracediff",
			buf.Len(), len(sim))
	}
}

// Tracing must not perturb the execution it observes: the traced run's end
// state still matches the fixed-seed golden.
func TestTraceDoesNotPerturbGolden(t *testing.T) {
	tc := goldenCases[0]
	cfg := tc.cfg
	cfg.Seed[0] = 7
	cfg.Tracer = obs.NewRecorder(0)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputsDigest(rep); got != tc.outputs {
		t.Errorf("outputs digest = %s, want golden %s", got, tc.outputs)
	}
	if rep.Rounds != tc.rounds {
		t.Errorf("rounds = %d, want golden %d", rep.Rounds, tc.rounds)
	}
	if rep.Metrics != tc.metrics {
		t.Errorf("metrics = %+v, want golden %+v", rep.Metrics, tc.metrics)
	}
}
