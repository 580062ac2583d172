package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ccba/internal/obs"
)

// chaosSimGoldens pin ChaosConfig.SimRun end to end: the SHA-256 of the
// report's per-node outcome, rounds, metrics and checker verdicts plus the
// canonical trace (which carries every fault event and its kind).
var chaosSimGoldens = []struct {
	name  string
	chaos ChaosConfig
	want  string
}{
	{"drop-only-1", ChaosConfig{DropRate: 0.3}, "605b01b23cba94fafffd18dae0b4aca0a63ac5b419cbd0784ac767dd9ff526bb"},
	{"full-3", ChaosConfig{Delta: 3, DropRate: 0.3, PartitionRounds: 4, CrashFrom: 2, CrashRounds: 3}, "9cf0c974da98e91cd823b464a98799d7a8c648b586362696d7809483b732a6b5"},
}

func TestChaosSimRunGolden(t *testing.T) {
	for _, g := range chaosSimGoldens {
		cfg := Config{Protocol: Core, N: 40, F: 12, Lambda: 16}
		cfg.Seed[0] = 21
		rec := obs.NewRecorder(0)
		cfg.Tracer = rec
		rep, err := g.chaos.SimRun(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		var events bytes.Buffer
		if err := rec.WriteJSONL(&events); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v|%v|%v|%v|%v|%d|%+v|%v|%v|%v|%v\n",
			rep.Outputs, rep.Decided, rep.Halted, rep.Corrupt, rep.OmissionFaulty,
			rep.Rounds, rep.Metrics, rep.Inputs, rep.Consistency, rep.Validity, rep.Termination)
		h.Write(events.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%s SimRun digest = %s, want %s", g.name, got, g.want)
		}
	}
}
