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
	if err := run(t.Context(), []string{"-n", "100", "-f", "30", "-lambda", "30"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsPath(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-n", "80", "-f", "20", "-lambda", "24", "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "violations") {
		t.Fatalf("missing aggregate output:\n%s", buf.String())
	}
}

func TestRunTrialsWithAdversaryFactory(t *testing.T) {
	// -trials with a stateful adversary exercises the per-trial factory; the
	// old code reused one instance across every trial.
	if err := run(t.Context(), []string{"-n", "100", "-f", "30", "-lambda", "30", "-adversary", "flip", "-trials", "3", "-workers", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-n", "80", "-f", "20", "-lambda", "24", "-trials", "2", "-json"}, &buf); err != nil {
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
	if err := run(t.Context(), append(args, "-workers", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), append(args, "-workers", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("-workers=1 and -workers=8 JSON differ:\n%s\n---\n%s", serial.String(), parallel.String())
	}
}

func TestRunSingleJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-n", "80", "-f", "20", "-lambda", "24", "-json"}, &buf); err != nil {
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
	if err := run(t.Context(), []string{"-n", "100", "-f", "30", "-lambda", "30", "-adversary", "silent"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlipOnCore(t *testing.T) {
	if err := run(t.Context(), []string{"-n", "100", "-f", "30", "-lambda", "30", "-adversary", "flip"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBroadcastProtocol(t *testing.T) {
	if err := run(t.Context(), []string{"-protocol", "dolevstrong", "-n", "12", "-f", "4", "-sender-input", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnanimous(t *testing.T) {
	if err := run(t.Context(), []string{"-n", "80", "-f", "20", "-lambda", "24", "-unanimous", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadFlags: every bad command line fails with an error that
// names its cause: bad config values, a -transport the command does not
// have, and a live-only flag under the simulator. TestRejections holds
// what the live transports refuse.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-adversary", "nonexistent"}, `unknown adversary "nonexistent"`},
		{[]string{"-protocol", "quadratic", "-adversary", "flip", "-n", "9", "-f", "4"}, `not "quadratic"`},
		{[]string{"-protocol", "unknown-protocol", "-n", "10", "-f", "2"}, `unknown protocol "unknown-protocol"`},
		{[]string{"-n", "10", "-f", "10"}, "need F < N"},
		{[]string{"-n", "0", "-f", "0"}, "N=0"},
		{[]string{"-trials", "0"}, "-trials must be at least 1, got 0"},
		{[]string{"-trials", "-2"}, "-trials must be at least 1, got -2"},
		{[]string{"-workers", "-1"}, "-workers cannot be negative (0 = GOMAXPROCS), got -1"},
		{[]string{"-net", "carrier-pigeon"}, `unknown net model "carrier-pigeon"`},
		{[]string{"-delta", "3"}, "Delta=3 under the lockstep"}, // Δ>1 needs a delay-capable -net
		{[]string{"-net", "omission", "-omission-rate", "1.5"}, "outside [0, 1]"},
		{[]string{"-scenario", "no-such-scenario"}, `unknown scenario "no-such-scenario"`},
		{[]string{"-n", "20", "-f", "5", "-lambda", "8", "-unanimous", "7"}, "-unanimous"},
		{[]string{"-protocol", "dolevstrong", "-n", "8", "-f", "2", "-sender-input", "5"}, "-sender-input"},
		{[]string{"-n", "20", "-f", "5", "-omission-rate", "0.5"}, "only apply under"}, // omission knobs need -net omission
		{[]string{"-n", "20", "-f", "5", "-faulty", "3"}, "only apply under"},
		{[]string{"-n", "20", "-f", "5", "-net", "chaos", "-partition-rounds", "-2"}, "PartitionRounds=-2 cannot be negative"},
		{[]string{"-n", "20", "-f", "5", "-net", "chaos", "-crash-from", "-5", "-crash-rounds", "3"}, "CrashFrom=-5 cannot be negative"},
		{[]string{"-n", "20", "-f", "5", "-net", "omission", "-crash-rounds", "3"}, `only apply under the "chaos" model`}, // crash windows need -net chaos
		{[]string{"-n", "20", "-f", "5", "-net", "delta", "-delta", "2", "-partition-rounds", "2"}, "PartitionRounds=2 only applies"},
		{[]string{"-n", "20", "-f", "5", "-net", "chaos", "-partition-rounds", "2"}, "needs Δ ≥ 2"},        // a partition at Δ = 1 holds nothing
		{[]string{"-n", "20", "-f", "0", "-net", "omission", "-omission-rate", "0.2"}, "empty faulty set"}, // no faulty sender to drop from
		{[]string{"-n", "16", "-f", "0", "-lambda", "8", "-net", "chaos", "-crash-rounds", "2"}, "a crash window (CrashRounds=2) crashes a faulty sender and needs F ≥ 1, got F=0"},
		// A model that only delays runs the delta-one schedule at Δ = 1.
		{[]string{"-n", "20", "-f", "5", "-net", "delta"}, `net model "delta" only delays traffic within Δ and needs Δ ≥ 2`},
		{[]string{"-n", "20", "-f", "5", "-net", "jitter", "-delta", "1"}, `net model "jitter" only delays traffic within Δ and needs Δ ≥ 2`},
		{[]string{"-n", "20", "-f", "5", "-net", "partition"}, `net model "partition" only delays traffic within Δ and needs Δ ≥ 2`},
		// A model that can neither delay nor drop runs the delta-one schedule
		// under another name: omission without a drop rate, at any Δ, and
		// chaos at Δ = 1 with no rate, crash window or partition.
		{[]string{"-n", "20", "-f", "5", "-lambda", "8", "-net", "omission", "-json"}, `net model "omission" neither delays nor drops a message at Δ=1`},
		{[]string{"-n", "20", "-f", "5", "-lambda", "8", "-net", "omission", "-delta", "3", "-json"}, `net model "omission" neither delays nor drops a message at Δ=3`},
		{[]string{"-n", "20", "-f", "5", "-lambda", "8", "-net", "chaos", "-json"}, `net model "chaos" neither delays nor drops a message at Δ=1`},

		{[]string{"-transport", "carrier-pigeon"}, `unknown transport "carrier-pigeon"`},
		// Flags only a live runtime reads, under the simulator.
		{[]string{"-node", "0"}, "-node needs -transport tcp"},
		{[]string{"-peers", "127.0.0.1:7701"}, "-peers needs -transport tcp"},
		{[]string{"-obs-addr", "127.0.0.1:0"}, "-obs-addr needs -transport chan or tcp"},
		{[]string{"-transport", "sim", "-obs-linger", "1s"}, "-obs-linger needs -transport chan or tcp"},
	}
	for _, tc := range cases {
		if err := run(t.Context(), tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// The omission model at a modest rate keeps the protocol live (more rounds,
// same safety), so the command exits clean.
func TestRunOmissionNet(t *testing.T) {
	if err := run(t.Context(), []string{"-n", "80", "-f", "20", "-lambda", "24",
		"-net", "omission", "-omission-rate", "0.2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// Worst-case Δ-delay stalls lockstep protocols: the run completes (exit via
// the violation path, not an error in the engine) and the JSON names the
// model and reports the termination violation.
func TestRunDeltaNetJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-n", "60", "-f", "15", "-lambda", "16",
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
	errSerial := run(t.Context(), append(args, "-workers", "1"), &serial)
	errParallel := run(t.Context(), append(args, "-workers", "4"), &parallel)
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
	if err := run(t.Context(), []string{"-scenario", "core-silent-n200", "-n", "80", "-f", "20", "-lambda", "24", "-json"}, &buf); err != nil {
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
	if err := run(t.Context(), []string{"-scenarios"}, &buf); err != nil {
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
	if err := run(t.Context(), []string{"-scenario", "test-sparse-n40", "-json"}, &kept); err != nil {
		t.Fatalf("sparse scenario: %v", err)
	}
	if !strings.Contains(kept.String(), `"intern"`) {
		t.Fatalf("the flag default overwrote the scenario's Sparse:\n%s", kept.String())
	}
	err := run(t.Context(), []string{"-scenario", "test-sparse-n40", "-net", "delta", "-delta", "2"}, &kept)
	if err == nil || !strings.Contains(err.Error(), "Sparse") {
		t.Fatalf("-net delta on a Sparse scenario: got %v, want the Sparse/net rejection", err)
	}
	if err := run(t.Context(), []string{"-scenario", "test-sparse-n40", "-sparse=false", "-json"}, &dropped); err != nil {
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
		if err := run(t.Context(), []string{"-n", "60", "-f", "15", "-lambda", "16", "-seed", seed, "-json"}, &buf); err != nil {
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
	err := run(t.Context(), []string{"-seed", "-1"}, io.Discard)
	if !errors.Is(err, ccba.ErrNegativeSeed) || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("-seed -1: got %v, want an error naming the flag", err)
	}
}
