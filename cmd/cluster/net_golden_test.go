package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// netGoldens pin the -json document and the -trace JSONL of live runs
// under a declared fault schedule: drops at Δ = 1, a crash window, both at
// once, and the registered Δ = 2 chaos scenario, whose bytes are cmd/ba's:
// the SHA-256 of the exit error, the JSON and the trace. How the schedule
// is declared, lowered and applied must leave these bytes alone.
var netGoldens = []struct {
	args []string
	want string
}{
	{[]string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5", "-net", "chaos", "-omission-rate", "0.4"}, "c7002b375c62f2c868554ca9e436b42f3514425a7a34f062beeec2618efa20cc"},
	{[]string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5", "-net", "chaos", "-crash-from", "1", "-crash-rounds", "3"}, "f1a3cb75a78f9d2001274eba24a2c227d0359ce4df567285c7ad9608e5e3b849"},
	{[]string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5", "-net", "chaos", "-omission-rate", "0.4", "-crash-from", "1", "-crash-rounds", "3"}, "53128b0ee158b56f41400409130e39107416f3e437be6a12582cd948157d8c0f"},
	{[]string{"-scenario", "core-chaos-n32"}, "45c6638412fd3604bbf9183a86bd8e0247b876c8888885ddd7c58675a5a7e12d"},
}

func TestNetGolden(t *testing.T) {
	for _, g := range netGoldens {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		var out bytes.Buffer
		err := run(context.Background(), append(g.args, "-json", "-trace", trace), &out)
		events, rerr := os.ReadFile(trace)
		if rerr != nil {
			t.Fatalf("%v: %v (run: %v)", g.args, rerr, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", err)
		h.Write(out.Bytes())
		h.Write(events)
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%v digest = %s, want %s", g.args, got, g.want)
		}
	}
}
