package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"ccba"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-n", "100", "-f", "30", "-lambda", "30"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsPath(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "80", "-f", "20", "-lambda", "24", "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "violations") {
		t.Fatalf("missing aggregate output:\n%s", buf.String())
	}
}

func TestRunTrialsWithAdversaryFactory(t *testing.T) {
	// -trials with a stateful adversary exercises the per-trial factory; the
	// old code reused one instance across every trial.
	if err := run([]string{"-n", "100", "-f", "30", "-lambda", "30", "-adversary", "flip", "-trials", "3", "-workers", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "80", "-f", "20", "-lambda", "24", "-trials", "2", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trials -json output unparseable: %v\n%s", err, buf.String())
	}
	if _, ok := doc["violation_rate"]; !ok {
		t.Fatalf("missing violation_rate:\n%s", buf.String())
	}
}

// TestRunTrialsJSONDeterministicAcrossWorkers checks the CLI surface of the
// serial-vs-parallel contract.
func TestRunTrialsJSONDeterministicAcrossWorkers(t *testing.T) {
	var serial, parallel bytes.Buffer
	args := []string{"-n", "80", "-f", "20", "-lambda", "24", "-trials", "4", "-json"}
	if err := run(append(args, "-workers", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workers", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("-workers=1 and -workers=8 JSON differ:\n%s\n---\n%s", serial.String(), parallel.String())
	}
}

func TestRunSingleJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "80", "-f", "20", "-lambda", "24", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("single-run -json output unparseable: %v\n%s", err, buf.String())
	}
	if ok, _ := doc["ok"].(bool); !ok {
		t.Fatalf("run not ok:\n%s", buf.String())
	}
}

func TestRunSilentAdversary(t *testing.T) {
	if err := run([]string{"-n", "100", "-f", "30", "-lambda", "30", "-adversary", "silent"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlipOnCore(t *testing.T) {
	if err := run([]string{"-n", "100", "-f", "30", "-lambda", "30", "-adversary", "flip"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBroadcastProtocol(t *testing.T) {
	if err := run([]string{"-protocol", "dolevstrong", "-n", "12", "-f", "4", "-sender-input", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnanimous(t *testing.T) {
	if err := run([]string{"-n", "80", "-f", "20", "-lambda", "24", "-unanimous", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-adversary", "nonexistent"},
		{"-protocol", "quadratic", "-adversary", "flip", "-n", "9", "-f", "4"},
		{"-protocol", "unknown-protocol", "-n", "10", "-f", "2"},
		{"-n", "10", "-f", "10"},
		{"-n", "0", "-f", "0"},
		{"-net", "carrier-pigeon"},
		{"-delta", "3"}, // Δ>1 needs a delay-capable -net
		{"-net", "omission", "-omission-rate", "1.5"},
		{"-scenario", "no-such-scenario"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// The omission model at a modest rate keeps the protocol live (more rounds,
// same safety), so the command exits clean.
func TestRunOmissionNet(t *testing.T) {
	if err := run([]string{"-n", "80", "-f", "20", "-lambda", "24",
		"-net", "omission", "-omission-rate", "0.2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// Worst-case Δ-delay stalls lockstep protocols: the run completes (exit via
// the violation path, not an error in the engine) and the JSON names the
// model and reports the termination violation.
func TestRunDeltaNetJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "60", "-f", "15", "-lambda", "16",
		"-net", "delta", "-delta", "3", "-json"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Fatalf("worst-case Δ=3 err = %v, want violation exit", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-net delta JSON unparseable: %v\n%s", err, buf.String())
	}
	if doc["net"] != "delta" || doc["delta"] != float64(3) {
		t.Fatalf("JSON net/delta = %v/%v", doc["net"], doc["delta"])
	}
}

// The trials path under a non-default net model stays worker-count
// independent — the CLI surface of the acceptance criterion.
func TestRunDeltaTrialsDeterministicAcrossWorkers(t *testing.T) {
	var serial, parallel bytes.Buffer
	args := []string{"-n", "60", "-f", "15", "-lambda", "16",
		"-net", "jitter", "-delta", "2", "-trials", "4", "-json"}
	errSerial := run(append(args, "-workers", "1"), &serial)
	errParallel := run(append(args, "-workers", "4"), &parallel)
	if (errSerial == nil) != (errParallel == nil) {
		t.Fatalf("exit mismatch: %v vs %v", errSerial, errParallel)
	}
	if serial.Len() == 0 || !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("-workers=1 and -workers=4 JSON differ:\n%s\n---\n%s", serial.String(), parallel.String())
	}
}

func TestRunScenario(t *testing.T) {
	var buf bytes.Buffer
	// Registered scenario, shrunk by explicit flag overrides for speed.
	if err := run([]string{"-scenario", "core-silent-n200", "-n", "80", "-f", "20", "-lambda", "24", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("scenario JSON unparseable: %v\n%s", err, buf.String())
	}
	if doc["corrupted"] != float64(20) {
		t.Fatalf("scenario adversary did not corrupt f nodes: %v", doc["corrupted"])
	}
}

func TestListScenarios(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenarios"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core-n200", "core-delta3-n200", "core-omission-n200"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("scenario listing missing %q:\n%s", want, buf.String())
		}
	}
}

// A scenario's Sparse survives unless -sparse is passed, like every other
// field. Observed twice: through the intern block only Sparse runs print,
// and through validation — Sparse rejects a delayed network model.
func TestRunScenarioKeepsSparse(t *testing.T) {
	if err := ccba.RegisterScenario(ccba.Scenario{
		Name:   "test-sparse-n40",
		Config: ccba.Config{Protocol: ccba.Core, N: 40, F: 10, Lambda: 16, Sparse: true},
	}); err != nil {
		t.Fatal(err)
	}
	var kept, dropped bytes.Buffer
	if err := run([]string{"-scenario", "test-sparse-n40", "-json"}, &kept); err != nil {
		t.Fatalf("sparse scenario: %v", err)
	}
	if !strings.Contains(kept.String(), `"intern"`) {
		t.Fatalf("the flag default overwrote the scenario's Sparse:\n%s", kept.String())
	}
	err := run([]string{"-scenario", "test-sparse-n40", "-net", "delta", "-delta", "2"}, &kept)
	if err == nil || !strings.Contains(err.Error(), "Sparse") {
		t.Fatalf("-net delta on a Sparse scenario: got %v, want the Sparse/net rejection", err)
	}
	if err := run([]string{"-scenario", "test-sparse-n40", "-sparse=false", "-json"}, &dropped); err != nil {
		t.Fatalf("explicit -sparse=false must override the scenario: %v", err)
	}
	if strings.Contains(dropped.String(), `"intern"`) {
		t.Fatalf("-sparse=false did not override the scenario:\n%s", dropped.String())
	}
}

// seed5Doc is what `-n 60 -f 15 -lambda 16 -seed 5 -json` printed before
// -seed was widened from its low 24 bits to all 64: seeds below 2²⁴ keep
// their Config.Seed bytes, so every recorded document stays reproducible.
const seed5Doc = `{
  "protocol": "core",
  "n": 60,
  "f": 15,
  "crypto": "ideal",
  "net": "delta-one",
  "delta": 1,
  "seed": 5,
  "rounds": 15,
  "corrupted": 0,
  "metrics": {
    "HonestMulticasts": 133,
    "HonestMulticastBytes": 29156,
    "HonestMessages": 7980,
    "HonestMessageBytes": 1749360
  },
  "ok": true,
  "violations": {}
}
`

// Every bit of -seed reaches the execution: seeds 2²⁴ apart used to be the
// same run with a different label.
func TestSeedUsesAllBits(t *testing.T) {
	docAt := func(seed string) string {
		var buf bytes.Buffer
		if err := run([]string{"-n", "60", "-f", "15", "-lambda", "16", "-seed", seed, "-json"}, &buf); err != nil {
			t.Fatalf("-seed %s: %v", seed, err)
		}
		return buf.String()
	}
	low := docAt("5")
	if low != seed5Doc {
		t.Errorf("-seed 5 document moved:\n%s", low)
	}
	high := docAt("16777221") // 5 + 2²⁴
	if strings.Replace(high, `"seed": 16777221`, `"seed": 5`, 1) == low {
		t.Errorf("-seed 5 and -seed 5+2^24 are the same execution:\n%s", high)
	}
	err := run([]string{"-seed", "-1"}, io.Discard)
	if !errors.Is(err, ccba.ErrNegativeSeed) || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("-seed -1: got %v, want an error naming the flag", err)
	}
}
