package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// netGoldens pin the -json document and the -trace JSONL of one fixed run
// under every -net kind, at the default Δ and at Δ = 3 — dropping a quarter
// of the faulty senders' links on the omission rows: the SHA-256 of the exit
// error, the JSON and the trace. A change to how the network schedule
// is decided must leave these bytes alone.
var netGoldens = []struct {
	net, delta string
	want       string
}{
	{"delta-one", "0", "1a4922c3448a88fca2a2bcb433ab4c0030ee48a24c0db1239b0a106ef077a081"},
	{"delta", "0", "bedf7444fdb769622aa4c9e5cb5ba81c9e3b5010512bf8a525cbf3c822860848"},
	{"delta", "3", "6d1c19cd488a8419e74af38c7d63624b44b7b7084ca39721b75ac6198a412e95"},
	{"jitter", "0", "3fd42cf0471ed9e19b971da05fede251796f500343cb61efcb7ea2fc7110630a"},
	{"jitter", "3", "221cb4649d6a507c2cf2c5fe7897220b3d16d0ce7b9c335d550c03dff591763f"},
	{"omission", "0", "aca89fb1e11a7c58a364528fb6a76f0ea17ae088b7c59d2bcebb8c2117666bca"},
	{"omission", "3", "73973f5a2ba932f7a0cac3159be45d7e34c7141a619eff569870f76cd9182c13"},
	{"partition", "0", "174d643e824c8ed279785f79f5303369cdbbe392b6522448cf7194436d0043d8"},
	{"partition", "3", "3684c3df1bcea1bca204cd97502bfe77ac9b85001ee48d8b979c2aba8350062e"},
}

func TestNetKindsGolden(t *testing.T) {
	for _, g := range netGoldens {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		var out bytes.Buffer
		args := []string{"-n", "60", "-f", "18", "-lambda", "20", "-seed", "4",
			"-net", g.net, "-delta", g.delta, "-json", "-trace", trace}
		if g.net == "omission" {
			args = append(args, "-omission-rate", "0.25")
		}
		err := run(args, &out)
		events, rerr := os.ReadFile(trace)
		if rerr != nil {
			t.Fatalf("-net %s -delta %s: %v (run: %v)", g.net, g.delta, rerr, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", err)
		h.Write(out.Bytes())
		h.Write(events)
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("-net %s -delta %s digest = %s, want %s", g.net, g.delta, got, g.want)
		}
	}
}
