package scenario

import (
	"errors"
	"strings"
	"testing"

	"ccba/internal/netsim"
	"ccba/internal/types"
)

func testSeed(b byte) [32]byte {
	var s [32]byte
	s[0] = b
	return s
}

// TestAsyncNamedScenarios runs each registered async scenario once and
// checks the full property set plus the async observables.
func TestAsyncNamedScenarios(t *testing.T) {
	for _, name := range []string{"brb-n16", "aba-n16", "aba-adv-n16", "acs-n16", "acs-crash-n16"} {
		t.Run(name, func(t *testing.T) {
			s, ok := Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			rep, err := s.Run(testSeed(1), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("properties violated: consistency=%v validity=%v termination=%v",
					rep.Consistency, rep.Validity, rep.Termination)
			}
			if rep.Async == nil {
				t.Fatal("async report missing AsyncInfo")
			}
			switch s.Config.Protocol {
			case ACS:
				if rep.Async.SetSize < s.Config.N-s.Config.F {
					t.Fatalf("ACS set size %d below n-f", rep.Async.SetSize)
				}
				if rep.Async.DecideRound < 1 {
					t.Fatalf("ACS decide round %d", rep.Async.DecideRound)
				}
			case ABA:
				if rep.Async.DecideRound < 1 {
					t.Fatalf("ABA decide round %d", rep.Async.DecideRound)
				}
			}
			if len(rep.Async.Crashed) != s.Config.Crashes {
				t.Fatalf("crashed %v, want %d nodes", rep.Async.Crashed, s.Config.Crashes)
			}
		})
	}
}

// TestAsyncRealCrypto: the Appendix D compiled mode runs the async track
// end to end.
func TestAsyncRealCrypto(t *testing.T) {
	rep, err := Run(Config{Protocol: ABA, N: 4, F: 1, Crypto: Real, Sched: SchedRandom, Seed: testSeed(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("properties violated: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
}

// TestAsyncSeedDeterminism: one config, one seed → one execution,
// delivery-for-delivery, under every scheduler.
func TestAsyncSeedDeterminism(t *testing.T) {
	for _, sched := range []SchedName{SchedFIFO, SchedRandom, SchedAdvDelay} {
		cfg := Config{Protocol: ACS, N: 7, F: 2, Sched: sched, Seed: testSeed(3)}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rounds != b.Rounds || a.Metrics != b.Metrics ||
			a.Async.DecideRound != b.Async.DecideRound || a.Async.SetSize != b.Async.SetSize {
			t.Fatalf("%s: same seed diverged: %+v vs %+v", sched, a.Async, b.Async)
		}
	}
}

// TestAsyncConfigValidation pins the async/sync knob boundary.
func TestAsyncConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"sched on sync protocol", Config{Protocol: Core, N: 4, F: 1, Sched: SchedFIFO}, "event-runtime knobs"},
		{"net on async protocol", Config{Protocol: ABA, N: 4, F: 1, Net: NetJitter}, "does not apply"},
		{"maxrounds on async protocol", Config{Protocol: ACS, N: 4, F: 1, MaxRounds: 10}, "does not apply"},
		{"crash window on async protocol", Config{Protocol: ACS, N: 4, F: 1, CrashFrom: 1, CrashRounds: 2}, "does not apply"},
		{"crash rounds on async protocol", Config{Protocol: ABA, N: 4, F: 1, CrashRounds: 2}, "does not apply"},
		{"n too small", Config{Protocol: ABA, N: 3, F: 1}, "N > 3F"},
		{"crashes over budget", Config{Protocol: ACS, N: 7, F: 2, Crashes: 3}, "corruption budget"},
		{"advdelay without sched", Config{Protocol: ABA, N: 4, F: 1, Sched: SchedRandom, AdvDelay: 7}, "only applies"},
		{"unknown sched", Config{Protocol: ABA, N: 4, F: 1, Sched: "chaotic"}, "unknown scheduler"},
		{"sparse async", Config{Protocol: ABA, N: 4, F: 1, Sparse: true}, "drop Sparse"},
		{"adversary async", Config{Protocol: ABA, N: 4, F: 1, Adversary: silentStatic{}}, "not a synchronous adversary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestAsyncBuildRejected: the synchronous Build surface refuses async
// protocols instead of failing deep in the registry.
func TestAsyncBuildRejected(t *testing.T) {
	_, _, _, err := Build(Config{Protocol: ABA, N: 4, F: 1})
	if err == nil || !strings.Contains(err.Error(), "event-driven runtime") {
		t.Fatalf("err = %v", err)
	}
}

// TestAsyncCrashSampling: the crash set is a pure function of the seed.
func TestAsyncCrashSampling(t *testing.T) {
	cfg := Config{Protocol: ACS, N: 16, F: 5, Crashes: 5, Seed: testSeed(4)}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Async.Crashed) != 5 || len(b.Async.Crashed) != 5 {
		t.Fatalf("crash sets %v / %v, want 5 nodes", a.Async.Crashed, b.Async.Crashed)
	}
	for i := range a.Async.Crashed {
		if a.Async.Crashed[i] != b.Async.Crashed[i] {
			t.Fatalf("crash sets diverged: %v vs %v", a.Async.Crashed, b.Async.Crashed)
		}
	}
	if a.NumCorrupt() != 5 {
		t.Fatalf("NumCorrupt=%d, want 5", a.NumCorrupt())
	}
}

// TestAsyncUnanimousValidity: unanimous ABA inputs decide that value.
func TestAsyncUnanimousValidity(t *testing.T) {
	for _, pat := range []string{InputsUnanimous0, InputsUnanimous1} {
		rep, err := Run(Config{Protocol: ABA, N: 4, F: 1, InputPattern: pat, Sched: SchedAdvDelay, Seed: testSeed(5)})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("%s: properties violated: %v %v %v", pat, rep.Consistency, rep.Validity, rep.Termination)
		}
		want := types.Zero
		if pat == InputsUnanimous1 {
			want = types.One
		}
		for _, id := range rep.ForeverHonest() {
			if rep.Outputs[id] != want {
				t.Fatalf("%s: node %d decided %v", pat, id, rep.Outputs[id])
			}
		}
	}
}

// TestAsyncTerminationSaysWhy: a failed async run names which exit ended it.
// The cap case is an ABA cut short with traffic in flight; the drained case
// is a real deadlock — a BRB whose broadcaster is in the crash set, so
// nobody ever speaks.
func TestAsyncTerminationSaysWhy(t *testing.T) {
	rep, err := Run(Config{Protocol: ABA, N: 16, F: 5, Sched: SchedRandom, MaxDeliveries: 100, Seed: testSeed(6)})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Termination, netsim.ErrTermination) {
		t.Fatalf("capped run: termination = %v", rep.Termination)
	}
	for _, want := range []string{"MaxDeliveries cap", "100 deliveries", "links still pending", "live nodes [0 1 2"} {
		if !strings.Contains(rep.Termination.Error(), want) {
			t.Errorf("capped run: %q lacks %q", rep.Termination, want)
		}
	}

	for s := byte(0); ; s++ {
		cfg := Config{Protocol: BRB, N: 4, F: 1, Crashes: 1, Seed: testSeed(s)}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Async.Crashed) != 1 || rep.Async.Crashed[0] != cfg.Sender {
			if s == 255 {
				t.Fatal("no seed crashes the broadcaster")
			}
			continue
		}
		if !errors.Is(rep.Termination, netsim.ErrTermination) {
			t.Fatalf("crashed broadcaster: termination = %v", rep.Termination)
		}
		for _, want := range []string{"queue drained", "0 deliveries", "deadlock", "unhalted"} {
			if !strings.Contains(rep.Termination.Error(), want) {
				t.Errorf("drained run: %q lacks %q", rep.Termination, want)
			}
		}
		return
	}
}
