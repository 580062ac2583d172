package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ccba/internal/obs"
)

// chaosGoldens pin Run of a NetChaos config end to end: the SHA-256 of the
// report's per-node outcome, rounds, metrics and checker verdicts plus the
// canonical trace (which carries every fault event and its kind).
var chaosGoldens = []struct {
	name string
	set  func(*Config)
	want string
}{
	{"drop-only-1", func(c *Config) { c.OmissionRate = 0.3 }, "605b01b23cba94fafffd18dae0b4aca0a63ac5b419cbd0784ac767dd9ff526bb"},
	{"full-3", func(c *Config) {
		c.Delta, c.OmissionRate, c.PartitionRounds, c.CrashFrom, c.CrashRounds = 3, 0.3, 4, 2, 3
	}, "9cf0c974da98e91cd823b464a98799d7a8c648b586362696d7809483b732a6b5"},
}

func TestChaosRunGolden(t *testing.T) {
	for _, g := range chaosGoldens {
		cfg := Config{Protocol: Core, N: 40, F: 12, Lambda: 16, Net: NetChaos}
		g.set(&cfg)
		cfg.Seed[0] = 21
		rec := obs.NewRecorder(0)
		cfg.Tracer = rec
		rep, err := Run(cfg)
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
			t.Errorf("%s Run digest = %s, want %s", g.name, got, g.want)
		}
	}
}
