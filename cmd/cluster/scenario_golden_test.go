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
	{"committee-n64", "d7991fb146ce5c4aeff7dafb2b850a5f0663c09a1b41b6afed91821bce740b1f"},
	{"core-chaos-n32", "f05d1d5ac4ad52b0b2a794da889280d8027f10e61320a9f42afce5e088171a0f"},
	{"core-delta3-n200", "f504a78768e12d2bb332f9e4494d1da32f31722daceb0a6a8db9ebaae12d9e02"},
	{"core-jitter3-n200", "703c5d255554ece37f1250c99f50fa69bdc2b31b22f683489d99b3f0bee4a293"},
	{"core-n200", "dc9ea3ed3dd6621a88faddb377870db5419e8de083e1e5463145b756e59c7a99"},
	{"core-omission-n200", "99d14c78c697f994c9f543ac3969a61a5cbe49ce68afda5bf0483d776972183d"},
	{"core-partition-n200", "1fbb3dfde2e61de170c2fac5faeb32b5c76658716a4cd3b16dd1aded1e3bfcd1"},
	{"core-real-n200", "eee149761dc0aa06d86ce302d804f4331e6a2b73e1b8efcc04f046c3e61dd45f"},
	{"core-sparse-n100k", "9931bade33127c1224cf8c074c01342a4ea2729c0f8a5e405dc703be96cfa33a"},
	{"dolevstrong-n48", "35b4ada66d1c7ae80893eb138e3f046172fb603ea1fb058d6d2e2c3e60c6efab"},
	{"phaseking-sampled-n200", "7c9ef041e3b486214b982c8aff8e59f40321afc9dc61fb49fa600fdfd93e6e62"},
	{"quadratic-n49", "4039cd5b9ac887b9279b02ac790b6b38f2e9f4ba6264fe54cf15dff674ef9da3"},
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
