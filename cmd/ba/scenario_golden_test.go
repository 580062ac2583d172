package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"ccba"
	"ccba/internal/testenv"
)

// scenarioGoldens pin the -json document and exit error of every registered
// scenario and of flag overrides on top of one: the SHA-256 of the exit
// error and the JSON. How flags are declared and merged into a scenario
// must leave these bytes alone. Every row a live cluster can execute — a
// synchronous protocol, no adversary, not Sparse — prints the same bytes
// under -transport chan (TestLiveScenarioGolden): the network model's
// delays, drops and partitions run live as simulated.
var scenarioGoldens = []struct {
	args []string
	want string
}{
	{[]string{"-scenario", "aba-adv-n16"}, "279a5bf0cf548fbb2c49c393ca3cfc57bb9b4e93bbb2312ce5e1be052318fc85"},
	{[]string{"-scenario", "aba-n16"}, "972afe73f1af6edc85f6559b1b0c6d5bd25d7aef38ad5c0b7b7a16a1c341c421"},
	{[]string{"-scenario", "acs-crash-n16"}, "1610adcb4fe115846034b4db157d180a13f448d5f2d1968e75d6283140927bc8"},
	{[]string{"-scenario", "acs-n16"}, "8cba447fdb83a7dcfb2e518592f5d00a4137db8dc0f6aaaa465ef9972f6099fb"},
	{[]string{"-scenario", "brb-n16"}, "295f1018e38f402a8ac3651f20f4b43756b330677e2ffc850528502a6f05479d"},
	{[]string{"-scenario", "chenmicali-flip-n150"}, "e08c86f728ee130ef6e849bd96594e41fe562625485aaba1c2feb9b4ede9744a"},
	{[]string{"-scenario", "committee-n64"}, "7e1fb217c8e3a62ae6ff13b8812f023098a2e237e24a56962c18e72fa4b6de2d"},
	// Simulates its chaos schedule: node 0 undecided after 100 rounds, the
	// Δ ≥ 2 liveness collapse E12 measures.
	{[]string{"-scenario", "core-chaos-n32"}, "96861b0aaca39d3dddcb3cbf1e7bcadd0c5f40c0298fa1670c216c013928a0da"},
	{[]string{"-scenario", "core-delta3-n200"}, "934d47efbe4d878de98be3638980187aeaebe0e2ac5894f4d856b47ee0abfee9"},
	{[]string{"-scenario", "core-flip-n200"}, "7df4bbd3a5f6464348b0a6d4021e5b2cae8a0be4885f79cb439cdf24e3d8ec65"},
	{[]string{"-scenario", "core-jitter3-n200"}, "b0883912c7440495d4e8457d1ed06b49bdf96f9f795d9a04c6626ad6d4f63bcb"},
	{[]string{"-scenario", "core-n200"}, "9ef2807378a30e8337364b3b477e5f38c889c95ede366b63c56896a67fa31d7f"},
	{[]string{"-scenario", "core-omission-n200"}, "6b9f20cab777926cf1577f51b840b26cd4dc7ed052af4f98eadc1cfb47866fdd"},
	{[]string{"-scenario", "core-partition-n200"}, "a75a222b75e144dfef94e9ef7716e33d3831862d4d361e7fd79316411359fff7"},
	{[]string{"-scenario", "core-real-n200"}, "eee149761dc0aa06d86ce302d804f4331e6a2b73e1b8efcc04f046c3e61dd45f"},
	{[]string{"-scenario", "core-silent-n200"}, "cc73702e72efcd24d48a1ed63f915913b915c0f278b9da93aceeaefcf98eecde"},
	{[]string{"-scenario", "core-sparse-n100k"}, "11d4d869727c02faf4577be51f2f2baf476fe20e9cf23e457755ad7757c6567b"},
	{[]string{"-scenario", "dolevstrong-n48"}, "bd1b43829a13ef9dbfdc9e75e5b03e54cc4c0197ef89aa0dd128cc19c10eaa81"},
	{[]string{"-scenario", "phaseking-sampled-n200"}, "1e8f35e9969829f77d7e8606a7750718c62a7cad01153a4476c23fa8122832c7"},
	{[]string{"-scenario", "quadratic-n49"}, "5ca98c6d676a350174013744cb6ee95250327da81806cdff10886b3c242b42e1"},

	{[]string{"-scenario", "core-n200", "-n", "100", "-f", "30"}, "271fbfd62cd8fb16f9306afefd57000aa26a86111ae690beda866109de210829"},
	{[]string{"-scenario", "core-omission-n200", "-omission-rate", "0.1"}, "e8b0f6040ae9091c220a159227b2df2bbc7824ccda64b3d0820cdb112f8613ba"},
	{[]string{"-scenario", "core-sparse-n100k", "-n", "2000", "-f", "600", "-sparse=false"}, "aad23496e8abc94f0995d66864bf8fa6bba51e6201714e143172f6db9125b178"},
	{[]string{"-scenario", "brb-n16", "-sender-input", "0"}, "295f1018e38f402a8ac3651f20f4b43756b330677e2ffc850528502a6f05479d"},
	{[]string{"-scenario", "aba-n16", "-unanimous", "1"}, "450764710d3d7e4e36d35a102bce7e3d69a7125617f46a5c4bcfb801481860d0"},
	{[]string{"-scenario", "core-flip-n200", "-adversary", "none"}, "9ef2807378a30e8337364b3b477e5f38c889c95ede366b63c56896a67fa31d7f"},
	{[]string{"-scenario", "core-delta3-n200", "-delta", "2"}, "4fa42b6bb87e7d3f71599a8a9ec5568ce6f326fa63547b33dee08fb5b3b16a1e"},
}

func TestScenarioGolden(t *testing.T) {
	covered := map[string]bool{}
	for _, g := range scenarioGoldens {
		covered[g.args[1]] = true
		if (testing.Short() || testenv.Race) && g.args[1] == "core-sparse-n100k" && len(g.args) == 2 {
			continue // the 10⁵-node run is a minute under the race detector
		}
		if got := scenarioDigest(t, "sim", g.args); got != g.want {
			t.Errorf("%v digest = %s, want %s", g.args, got, g.want)
		}
	}
	for _, name := range ccba.ScenarioNames() {
		if !covered[name] && !strings.HasPrefix(name, "test-") {
			t.Errorf("scenario %q has no golden row", name)
		}
	}
}

// TestLiveScenarioGolden reruns every golden row a live cluster can
// execute under -transport chan against the same digest, and checks that
// the Sparse rows are refused before a round runs.
func TestLiveScenarioGolden(t *testing.T) {
	for _, g := range scenarioGoldens {
		inv, err := parse(g.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", g.args, err)
		}
		if inv.Config.Protocol.Async() || inv.Adversary != "none" {
			continue // simulator only; TestRejections checks the refusals
		}
		if inv.Config.Sparse {
			var out bytes.Buffer
			err := run(t.Context(), append([]string{"-transport", "chan"}, g.args...), &out)
			if err == nil || !strings.HasPrefix(err.Error(), "cluster: Sparse ") || out.Len() != 0 {
				t.Errorf("-transport chan %v: got %v and %d bytes, want the Sparse rejection", g.args, err, out.Len())
			}
			continue
		}
		if got := scenarioDigest(t, "chan", g.args); got != g.want {
			t.Errorf("-transport chan %v digest = %s, want %s", g.args, got, g.want)
		}
	}
}

// scenarioDigest is the SHA-256 of the exit error and the -json document
// of args run under -transport tr.
func scenarioDigest(t *testing.T, tr string, args []string) string {
	var out bytes.Buffer
	err := run(t.Context(), append([]string{"-transport", tr, "-json"}, args...), &out)
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", err)
	h.Write(out.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}
