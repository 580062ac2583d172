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
	err := run(context.Background(), []string{"-n", "32", "-f", "9", "-lambda", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "consistency:       ok") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

// The text header names the network model the run injected and the
// transport it ran over, as the -json document names the model.
func TestTextHeaderNamesNetAndTransport(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-n", "24", "-f", "7", "-lambda", "8", "-seed", "5",
		"-net", "chaos", "-omission-rate", "0.4", "-crash-from", "1", "-crash-rounds", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if want := "protocol=core n=24 f=7 crypto=ideal net=chaos delta=1 transport=chan seed=5"; header != want {
		t.Errorf("header %q, want %q", header, want)
	}
}

func TestChanRunJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-n", "32", "-f", "9", "-lambda", "10", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"protocol", "n", "f", "crypto", "net", "delta", "seed", "rounds", "corrupted", "metrics", "ok", "violations"} {
		if _, present := doc[key]; !present {
			t.Errorf("missing %q (must stay diffable against cmd/ba)", key)
		}
	}
	if doc["ok"] != true || doc["net"] != "delta-one" {
		t.Fatalf("unexpected document: %v", doc)
	}
}

// -unanimous sets an input pattern, which the runtime normalizes once; a
// second normalization used to reject the config for setting both inputs
// and a pattern.
func TestChanRunUnanimous(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-n", "20", "-f", "5", "-lambda", "8", "-unanimous", "1", "-json"}, &buf)
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
	err := run(context.Background(), []string{"-transport", "tcp", "-n", "4", "-f", "1", "-lambda", "3", "-json"}, &buf)
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

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
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

func TestScenarioListing(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(context.Background(), []string{"-scenarios"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-scenarios"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("-scenarios listing is not deterministic")
	}
	if !strings.Contains(first.String(), "quadratic-n49") {
		t.Fatalf("missing registered scenario:\n%s", first.String())
	}
}

func TestScenarioRun(t *testing.T) {
	if err := run(context.Background(), []string{"-scenario", "quadratic-n49"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRejections(t *testing.T) {
	cases := [][]string{
		{"-scenario", "core-silent-n200"},                    // adversarial scenario
		{"-transport", "chan", "-node", "0"},                 // -node without tcp
		{"-transport", "tcp", "-node", "0"},                  // -node without -peers
		{"-transport", "carrier-pigeon"},                     // unknown transport
		{"-transport", "tcp", "-node", "0", "-peers", "a,b"}, // peer count mismatch (n=200)
		{"-seed", "-1"},                                      // negative seed
		{"-n", "20", "-f", "5", "-lambda", "8", "-unanimous", "7"},
		{"-protocol", "dolevstrong", "-n", "8", "-f", "2", "-sender-input", "5"},
		// Network knobs fail closed, as on cmd/ba.
		{"-n", "20", "-f", "5", "-net", "chaos", "-partition-rounds", "-2"},
		{"-n", "20", "-f", "5", "-net", "chaos", "-crash-from", "-5", "-crash-rounds", "3"},
		{"-n", "20", "-f", "5", "-crash-rounds", "3"},
		{"-n", "20", "-f", "5", "-delta", "2"},
		{"-n", "20", "-f", "5", "-net", "chaos", "-partition-rounds", "2"},         // a partition at Δ = 1 holds nothing
		{"-n", "20", "-f", "0", "-net", "omission", "-omission-rate", "0.2"},       // no faulty sender to drop from
		{"-n", "20", "-f", "5", "-net", "chaos", "-delta", "2", "-reorder", "0.3"}, // -reorder is gone: jitter draws what it did
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("%v succeeded", args)
		}
	}
}

// cmd/cluster widens -seed exactly as cmd/ba does (ccba.SeedFromInt), so
// seeds 2²⁴ apart are different executions here too.
func TestSeedUsesAllBits(t *testing.T) {
	metricsAt := func(seed string) any {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-n", "60", "-f", "15", "-lambda", "16", "-seed", seed, "-json"}, &buf); err != nil {
			t.Fatalf("-seed %s: %v", seed, err)
		}
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(doc["rounds"], doc["metrics"])
	}
	if low, high := metricsAt("5"), metricsAt("16777221"); low == high {
		t.Errorf("-seed 5 and -seed 5+2^24 are the same execution: %v", low)
	}
}
