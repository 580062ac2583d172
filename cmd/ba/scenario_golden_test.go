package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ccba"
	"ccba/internal/testenv"
)

// scenarioGoldens pin the -json document and exit error of every registered
// scenario and of flag overrides on top of one: the SHA-256 of the exit
// error and the JSON. How flags are declared and merged into a scenario
// must leave these bytes alone.
var scenarioGoldens = []struct {
	args []string
	want string
}{
	{[]string{"-scenario", "aba-adv-n16"}, "41e520d6e9ab7739596a00b4863bdf6ee11272d3debffb8d950691520cc756d2"},
	{[]string{"-scenario", "aba-n16"}, "7d5f7dbd86fa66868e1d93c575fe179f7a0d5109722b6d77e8fa216c4d63df7e"},
	{[]string{"-scenario", "acs-crash-n16"}, "c61df0430df3d62b74dbf1692877d8b88c965c7b41ff9874ea40e35fdfde52cf"},
	{[]string{"-scenario", "acs-n16"}, "72053d8ca96435c71b7d26195e818593e97ce449e493df44a8d9e9a57ae29706"},
	{[]string{"-scenario", "brb-n16"}, "264a5e37e5db91c9175869298a84edb334bbc5a787774fdeffcdb16af2fb5ebd"},
	{[]string{"-scenario", "chenmicali-flip-n150"}, "3a5367bf0707402c13f0dbfd19e872d58c3b6bf3bfecc187306afff4ab82218b"},
	{[]string{"-scenario", "committee-n64"}, "d7991fb146ce5c4aeff7dafb2b850a5f0663c09a1b41b6afed91821bce740b1f"},
	{[]string{"-scenario", "core-chaos-n32"}, "60eaaed0466b7db5779b04401050f82d39b163e7d449fde7d2766a744f4f50be"},
	{[]string{"-scenario", "core-delta3-n200"}, "920731e50c3eb11101e3a173fbd17d2578fcb24a042e811119b1cd7328312ea9"},
	{[]string{"-scenario", "core-flip-n200"}, "bc8505bd75b9ade639b2904d7723724fc67f3abd9174f7f60b8178fec063368d"},
	{[]string{"-scenario", "core-jitter3-n200"}, "34b71328afe293320e5ed8ce60c3d89d76527b92dbf87d59e23a8f9c8ee5e08b"},
	{[]string{"-scenario", "core-n200"}, "dc9ea3ed3dd6621a88faddb377870db5419e8de083e1e5463145b756e59c7a99"},
	{[]string{"-scenario", "core-omission-n200"}, "c57e8c924b0057fa43e33eaf29380226522c5e5c0496365bff23a3348d59db83"},
	{[]string{"-scenario", "core-partition-n200"}, "7d7f5b1ae91323fdecb951a60315d4b6cc84a8d8f458284092b24e7b0b04bea4"},
	{[]string{"-scenario", "core-real-n200"}, "eee149761dc0aa06d86ce302d804f4331e6a2b73e1b8efcc04f046c3e61dd45f"},
	{[]string{"-scenario", "core-silent-n200"}, "7e6f52820c863aac887dfc6e789de66382fe64cb0a1f065c4da972f77934de7e"},
	{[]string{"-scenario", "core-sparse-n100k"}, "a7e972eeb5b272d2fdad47f7175fbdc2a847ad28c40ab700a2547dcd3990d666"},
	{[]string{"-scenario", "dolevstrong-n48"}, "35b4ada66d1c7ae80893eb138e3f046172fb603ea1fb058d6d2e2c3e60c6efab"},
	{[]string{"-scenario", "phaseking-sampled-n200"}, "7c9ef041e3b486214b982c8aff8e59f40321afc9dc61fb49fa600fdfd93e6e62"},
	{[]string{"-scenario", "quadratic-n49"}, "4039cd5b9ac887b9279b02ac790b6b38f2e9f4ba6264fe54cf15dff674ef9da3"},

	{[]string{"-scenario", "core-n200", "-n", "100", "-f", "30"}, "d26112bcbf9d2d42d3f58f5791458fab73cb569cc3e17415d49ec2f4c59ce316"},
	{[]string{"-scenario", "core-omission-n200", "-omission-rate", "0.1"}, "12b938a4d661558421cde95d290b4da10fccb04b186db1b9e3a9208a8981bba6"},
	{[]string{"-scenario", "core-sparse-n100k", "-n", "2000", "-f", "600", "-sparse=false"}, "109cfdfcd32165150a5eef725228235e5988a352c2314cd6d46e7a78e932706d"},
	{[]string{"-scenario", "brb-n16", "-sender-input", "0"}, "264a5e37e5db91c9175869298a84edb334bbc5a787774fdeffcdb16af2fb5ebd"},
	{[]string{"-scenario", "aba-n16", "-unanimous", "1"}, "d4ef0e4e67b6d44c7b54e193590311ad337c60a5130d0a0e96208764d794f2a3"},
	{[]string{"-scenario", "core-flip-n200", "-adversary", "none"}, "dc9ea3ed3dd6621a88faddb377870db5419e8de083e1e5463145b756e59c7a99"},
	{[]string{"-scenario", "core-delta3-n200", "-delta", "2"}, "004fa1d381fd6705ac481238f0a7d52410a4b90a8ef0c8d92286a42d56c7bb81"},
}

func TestScenarioGolden(t *testing.T) {
	covered := map[string]bool{}
	for _, g := range scenarioGoldens {
		covered[g.args[1]] = true
		if (testing.Short() || testenv.Race) && g.args[1] == "core-sparse-n100k" && len(g.args) == 2 {
			continue // the 10⁵-node run is a minute under the race detector
		}
		var out bytes.Buffer
		err := run(append(g.args, "-json"), &out)
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", err)
		h.Write(out.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%v digest = %s, want %s", g.args, got, g.want)
		}
	}
	for _, name := range ccba.ScenarioNames() {
		if !covered[name] && !strings.HasPrefix(name, "test-") {
			t.Errorf("scenario %q has no golden row", name)
		}
	}
}
