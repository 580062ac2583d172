package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestChanRunDefaults(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-transport", "chan", "-n", "32", "-f", "9", "-lambda", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "consistency:       ok") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

func TestChanRunJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-transport", "chan", "-n", "32", "-f", "9", "-lambda", "10", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"protocol", "n", "f", "crypto", "net", "delta", "seed", "rounds", "corrupted", "metrics", "ok", "violations"} {
		if _, present := doc[key]; !present {
			t.Errorf("missing %q (must stay diffable against -transport sim)", key)
		}
	}
	if doc["ok"] != true || doc["net"] != "delta-one" {
		t.Fatalf("unexpected document: %v", doc)
	}
}

// The text header names the network model the run injected and the
// transport it ran over, as the -json document names the model.
func TestTextHeaderNamesNetAndTransport(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-transport", "chan", "-n", "24", "-f", "7", "-lambda", "8", "-seed", "5",
		"-net", "chaos", "-omission-rate", "0.4", "-crash-from", "1", "-crash-rounds", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if want := "protocol=core n=24 f=7 crypto=ideal net=chaos delta=1 transport=chan seed=5"; header != want {
		t.Errorf("header %q, want %q", header, want)
	}
}

// -unanimous sets an input pattern, which the runtime normalizes once; a
// second normalization used to reject the config for setting both inputs
// and a pattern.
func TestChanRunUnanimous(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-transport", "chan", "-n", "20", "-f", "5", "-lambda", "8", "-unanimous", "1", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, buf.String())
	}
	if doc["ok"] != true {
		t.Fatalf("-unanimous 1 run not ok: %v", doc)
	}
}

func TestTCPInProcessMesh(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-transport", "tcp", "-n", "4", "-f", "1", "-lambda", "3", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["ok"] != true {
		t.Fatalf("tcp mesh run not ok: %v", doc)
	}
}

// TestTCPMultiNode drives the -node form: one run() invocation per node,
// each owning a single TCP endpoint of a localhost mesh — the multi-process
// deployment, minus the processes.
func TestTCPMultiNode(t *testing.T) {
	const n = 3
	// Reserve ports by binding and releasing; DialTCP's retry loop absorbs
	// the small window before each node's listener rebinds.
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	peers := strings.Join(addrs, ",")

	ctx, cancel := context.WithTimeout(t.Context(), 60*time.Second)
	defer cancel()
	outs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(ctx, []string{
				"-transport", "tcp", "-protocol", "quadratic",
				"-n", fmt.Sprint(n), "-f", "1",
				"-node", fmt.Sprint(i), "-peers", peers, "-json",
			}, &outs[i])
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
	}
	// Every node prints the identical full report.
	for i := 1; i < n; i++ {
		if outs[i].String() != outs[0].String() {
			t.Fatalf("node %d report differs from node 0:\n%s\nvs\n%s", i, outs[i].String(), outs[0].String())
		}
	}
}

// TestRefusalBeforeTransport: a config the live runtime refuses is refused
// before any socket opens. The test holds node 0's -peers address with a
// listener of its own, so a run that built its endpoint first would fail
// to listen instead of naming the refusal. Bad -trials and -workers values
// are refused at parse, on chan as on TCP.
func TestRefusalBeforeTransport(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	peers := held.Addr().String() + ",127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"
	tcp := []string{"-transport", "tcp", "-n", "4", "-f", "1", "-lambda", "3", "-node", "0", "-peers", peers}
	// A chan run that got past the refusal would execute and return nil.
	chn := []string{"-transport", "chan", "-n", "4", "-f", "1", "-lambda", "3"}
	for _, tc := range []struct {
		base, args []string
		want       string
	}{
		{tcp, []string{"-crypto", "real", "-sparse"}, "cluster: Sparse is the simulator's"},
		{tcp, []string{"-crypto", "ideal"}, `cluster: protocol "core" in the hybrid F_mine world needs its trusted party in-process`},
		{tcp, []string{"-crypto", "real", "-f", "0", "-net", "chaos", "-crash-rounds", "2"}, "a crash window (CrashRounds=2) crashes a faulty sender and needs F ≥ 1, got F=0"},
		{tcp, []string{"-crypto", "real", "-trials", "0"}, "-trials must be at least 1, got 0"},
		{chn, []string{"-trials", "0"}, "-trials must be at least 1, got 0"},
		{chn, []string{"-trials", "-2"}, "-trials must be at least 1, got -2"},
		{chn, []string{"-workers", "-1"}, "-workers cannot be negative (0 = GOMAXPROCS), got -1"},
		{chn, []string{"-lambda", "0"}, "-lambda must be at least 1, got 0"},
		{chn, []string{"-epochs", "0"}, "-epochs must be at least 1, got 0"},
	} {
		args := append(append([]string(nil), tc.base...), tc.args...)
		if err := run(t.Context(), args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: got %v, want an error containing %q", args, err, tc.want)
		}
	}
}

// TestRejections: what the live transports refuse, each with an error
// that names its cause — a mesh flag outside a TCP mesh, a config only the
// simulator executes, and bad config values, which a live run validates
// as the simulator does.
func TestRejections(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		// A single node joins a TCP mesh only.
		{[]string{"-transport", "chan", "-node", "0"}, "-node needs -transport tcp"},
		{[]string{"-transport", "chan", "-peers", "a,b"}, "-peers needs -transport tcp"},
		{[]string{"-transport", "tcp", "-node", "0"}, "-node 0 needs -peers"},
		{[]string{"-transport", "tcp", "-node", "0", "-peers", "a,b"}, "-peers lists 2 addresses for a cluster of 200"},
		// What only the simulator executes.
		{[]string{"-transport", "chan", "-scenario", "core-silent-n200"}, `adversary "silent": live clusters execute honest protocols only`},
		{[]string{"-transport", "tcp", "-adversary", "flip"}, `adversary "flip": live clusters execute honest protocols only`},
		{[]string{"-transport", "chan", "-scenario", "aba-n16"}, `cluster: protocol "aba" runs on the asynchronous track`},
		{[]string{"-transport", "chan", "-n", "40", "-f", "10", "-lambda", "16", "-sparse"}, "cluster: Sparse is the simulator's"},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-lambda", "8", "-trials", "2"}, "-trials 2: a live cluster runs one execution"},
		// Bad values fail closed on a live run too.
		{[]string{"-transport", "chan", "-seed", "-1"}, "-seed cannot be negative"},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-lambda", "8", "-unanimous", "7"}, "-unanimous"},
		{[]string{"-transport", "chan", "-protocol", "dolevstrong", "-n", "8", "-f", "2", "-sender-input", "5"}, "-sender-input"},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-net", "chaos", "-partition-rounds", "-2"}, "PartitionRounds=-2 cannot be negative"},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-net", "chaos", "-crash-from", "-5", "-crash-rounds", "3"}, "CrashFrom=-5 cannot be negative"},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-crash-rounds", "3"}, `only apply under the "chaos" model`},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-delta", "2"}, "Delta=2 under the lockstep"},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-net", "chaos", "-partition-rounds", "2"}, "needs Δ ≥ 2"},        // a partition at Δ = 1 holds nothing
		{[]string{"-transport", "chan", "-n", "20", "-f", "0", "-net", "omission", "-omission-rate", "0.2"}, "empty faulty set"}, // no faulty sender to drop from
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-net", "delta"}, `net model "delta" only delays traffic within Δ and needs Δ ≥ 2`},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-net", "jitter", "-delta", "1"}, `net model "jitter" only delays traffic within Δ and needs Δ ≥ 2`},
		{[]string{"-transport", "tcp", "-n", "4", "-f", "1", "-net", "partition"}, `net model "partition" only delays traffic within Δ and needs Δ ≥ 2`},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-lambda", "8", "-net", "omission", "-json"}, `net model "omission" neither delays nor drops a message at Δ=1`},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-lambda", "8", "-net", "omission", "-delta", "2", "-json"}, `net model "omission" neither delays nor drops a message at Δ=2`},
		{[]string{"-transport", "tcp", "-n", "4", "-f", "1", "-net", "chaos", "-json"}, `net model "chaos" neither delays nor drops a message at Δ=1`},
		{[]string{"-transport", "chan", "-n", "20", "-f", "5", "-net", "chaos", "-delta", "2", "-reorder", "0.3"}, "-reorder"}, // jitter draws what reorder did
	}
	for _, tc := range cases {
		if err := run(t.Context(), tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// The registry listing does not depend on the transport, and repeats
// byte for byte.
func TestScenarioListing(t *testing.T) {
	var first bytes.Buffer
	if err := run(t.Context(), []string{"-scenarios"}, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "quadratic-n49") {
		t.Fatalf("missing registered scenario:\n%s", first.String())
	}
	for _, tr := range []string{"sim", "chan", "tcp"} {
		var again bytes.Buffer
		if err := run(t.Context(), []string{"-transport", tr, "-scenarios"}, &again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("-transport %s -scenarios listing differs:\n%s\nvs\n%s", tr, again.String(), first.String())
		}
	}
}

// A registered scenario runs live through the text report.
func TestScenarioRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-transport", "chan", "-scenario", "quadratic-n49"}, &buf); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if want := "protocol=quadratic n=49 f=24 crypto=ideal net=delta-one delta=1 transport=chan seed=1"; header != want {
		t.Errorf("header %q, want %q", header, want)
	}
	if !strings.Contains(buf.String(), "consistency:       ok") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

// A live run widens -seed as the simulator does: -seed 5 prints the
// simulator's document, and seeds 2²⁴ apart are different executions.
func TestLiveSeedUsesAllBits(t *testing.T) {
	docAt := func(seed string) string {
		var buf bytes.Buffer
		if err := run(t.Context(), []string{"-transport", "chan", "-n", "60", "-f", "15", "-lambda", "16", "-seed", seed, "-json"}, &buf); err != nil {
			t.Fatalf("-seed %s: %v", seed, err)
		}
		return buf.String()
	}
	low := docAt("5")
	if low != seed5Doc {
		t.Errorf("-transport chan -seed 5 document differs from the simulator's:\n%s", low)
	}
	high := docAt("16777221") // 5 + 2²⁴
	if strings.Replace(high, `"seed": 16777221`, `"seed": 5`, 1) == low {
		t.Errorf("-seed 5 and -seed 5+2^24 are the same execution:\n%s", high)
	}
}
