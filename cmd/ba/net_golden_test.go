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

// netGoldens pin the -json document and the -trace JSONL of fixed runs
// under a declared network schedule: the SHA-256 of the exit error, the
// JSON and the trace. The first rows run one config under every -net
// kind at Δ = 3, and under delta-one and omission at the default Δ —
// dropping a quarter of the faulty senders' links on the omission rows
// (the models that only delay are refused at Δ = 1, see TestRejections);
// the last ones are chaos drops at Δ = 1, a crash window, both at once,
// and the registered Δ = 2 chaos scenario. Each row prints the same bytes
// on the simulator (TestNetKindsGolden) and on a live chan cluster
// (TestLiveNetGolden). How the schedule is declared, lowered, decided and
// applied must leave these bytes alone.
var netGoldens = []struct {
	args []string
	want string
}{
	{netKind("delta-one", "0"), "1a4922c3448a88fca2a2bcb433ab4c0030ee48a24c0db1239b0a106ef077a081"},
	{netKind("delta", "3"), "6d1c19cd488a8419e74af38c7d63624b44b7b7084ca39721b75ac6198a412e95"},
	{netKind("jitter", "3"), "221cb4649d6a507c2cf2c5fe7897220b3d16d0ce7b9c335d550c03dff591763f"},
	{netKind("omission", "0"), "aca89fb1e11a7c58a364528fb6a76f0ea17ae088b7c59d2bcebb8c2117666bca"},
	{netKind("omission", "3"), "73973f5a2ba932f7a0cac3159be45d7e34c7141a619eff569870f76cd9182c13"},
	{netKind("partition", "3"), "3684c3df1bcea1bca204cd97502bfe77ac9b85001ee48d8b979c2aba8350062e"},
	{[]string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5", "-net", "chaos", "-omission-rate", "0.4"}, "c7002b375c62f2c868554ca9e436b42f3514425a7a34f062beeec2618efa20cc"},
	{[]string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5", "-net", "chaos", "-crash-from", "1", "-crash-rounds", "3"}, "f1a3cb75a78f9d2001274eba24a2c227d0359ce4df567285c7ad9608e5e3b849"},
	{[]string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5", "-net", "chaos", "-omission-rate", "0.4", "-crash-from", "1", "-crash-rounds", "3"}, "53128b0ee158b56f41400409130e39107416f3e437be6a12582cd948157d8c0f"},
	{[]string{"-scenario", "core-chaos-n32"}, "45c6638412fd3604bbf9183a86bd8e0247b876c8888885ddd7c58675a5a7e12d"},
}

// netKind is the one config the -net kind rows share, under kind at Δ.
func netKind(kind, delta string) []string {
	args := []string{"-n", "60", "-f", "18", "-lambda", "20", "-seed", "4", "-net", kind, "-delta", delta}
	if kind == "omission" {
		args = append(args, "-omission-rate", "0.25")
	}
	return args
}

func TestNetKindsGolden(t *testing.T) {
	for _, g := range netGoldens {
		if got := netDigest(t, "sim", g.args); got != g.want {
			t.Errorf("%v digest = %s, want %s", g.args, got, g.want)
		}
	}
}

// TestLiveNetGolden runs every net golden row on a live chan cluster,
// which must print the simulator's bytes.
func TestLiveNetGolden(t *testing.T) {
	for _, g := range netGoldens {
		if got := netDigest(t, "chan", g.args); got != g.want {
			t.Errorf("-transport chan %v digest = %s, want %s", g.args, got, g.want)
		}
	}
}

// netDigest is the SHA-256 of the exit error, the -json document and the
// -trace JSONL of args run under -transport tr.
func netDigest(t *testing.T, tr string, args []string) string {
	t.Helper()
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	err := run(t.Context(), append([]string{"-transport", tr, "-json", "-trace", trace}, args...), &out)
	events, rerr := os.ReadFile(trace)
	if rerr != nil {
		t.Fatalf("-transport %s %v: %v (run: %v)", tr, args, rerr, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", err)
	h.Write(out.Bytes())
	h.Write(events)
	return hex.EncodeToString(h.Sum(nil))
}
