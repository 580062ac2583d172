package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ccba"
)

// scenarioGoldens pin the -json document and exit error of every registered
// synchronous scenario without an adversary — the ones a live cluster can
// be asked to run: the SHA-256 of the exit error and the JSON.
var scenarioGoldens = []struct {
	name string
	want string
}{
	{"committee-n64", "7e1fb217c8e3a62ae6ff13b8812f023098a2e237e24a56962c18e72fa4b6de2d"},
	{"core-chaos-n32", "96861b0aaca39d3dddcb3cbf1e7bcadd0c5f40c0298fa1670c216c013928a0da"},
	// Every row is cmd/ba's digest of the same scenario: the network
	// model's delays, drops and partitions run live as simulated.
	{"core-delta3-n200", "934d47efbe4d878de98be3638980187aeaebe0e2ac5894f4d856b47ee0abfee9"},
	{"core-jitter3-n200", "b0883912c7440495d4e8457d1ed06b49bdf96f9f795d9a04c6626ad6d4f63bcb"},
	{"core-n200", "9ef2807378a30e8337364b3b477e5f38c889c95ede366b63c56896a67fa31d7f"},
	{"core-omission-n200", "6b9f20cab777926cf1577f51b840b26cd4dc7ed052af4f98eadc1cfb47866fdd"},
	{"core-partition-n200", "a75a222b75e144dfef94e9ef7716e33d3831862d4d361e7fd79316411359fff7"},
	{"core-real-n200", "eee149761dc0aa06d86ce302d804f4331e6a2b73e1b8efcc04f046c3e61dd45f"},
	{"core-sparse-n100k", "9931bade33127c1224cf8c074c01342a4ea2729c0f8a5e405dc703be96cfa33a"},
	{"dolevstrong-n48", "bd1b43829a13ef9dbfdc9e75e5b03e54cc4c0197ef89aa0dd128cc19c10eaa81"},
	{"phaseking-sampled-n200", "1e8f35e9969829f77d7e8606a7750718c62a7cad01153a4476c23fa8122832c7"},
	{"quadratic-n49", "5ca98c6d676a350174013744cb6ee95250327da81806cdff10886b3c242b42e1"},
}

func TestScenarioGolden(t *testing.T) {
	covered := map[string]bool{}
	for _, g := range scenarioGoldens {
		covered[g.name] = true
		var out bytes.Buffer
		err := run(context.Background(), []string{"-scenario", g.name, "-json"}, &out)
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", err)
		h.Write(out.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("-scenario %s digest = %s, want %s", g.name, got, g.want)
		}
	}
	for _, name := range ccba.ScenarioNames() {
		sc, _ := ccba.LookupScenario(name)
		live := !sc.Config.Protocol.Async() && (sc.Adversary == "" || sc.Adversary == "none")
		if live && !covered[name] {
			t.Errorf("scenario %q has no golden row", name)
		}
	}
}
