package ccba

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"ccba/internal/attest"
	"ccba/internal/core"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/testenv"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// The lockstep engine screens each shared delivery once per round with the
// protocol's recipient-independent ticket check (netsim.Config.Screen,
// DESIGN.md §6), and nodes trust the verdict instead of re-verifying the
// same tickets n times. These tests pin that the screen changes nothing
// but the number of Verify calls.

// screenWorkers are the GOMAXPROCS settings the equivalence runs sweep:
// serial, and more shards than this runner has cores.
var screenWorkers = []int{1, 4}

// screenCases returns every registered synchronous core, core-broadcast
// and sampled phase-king scenario, plus a core-broadcast case (no
// registered scenario runs that protocol), resolved for trial 0.
func screenCases(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range ScenarioNames() {
		s, _ := LookupScenario(name)
		switch s.Config.Protocol {
		case Core, CoreBroadcast, PhaseKingSampled:
			out = append(out, s)
		}
	}
	out = append(out, Scenario{
		Name:   "core-broadcast-n200",
		Config: Config{Protocol: CoreBroadcast, N: 200, F: 60, Lambda: 40, Sender: 3, SenderInput: One},
	})
	if len(out) < 10 {
		t.Fatalf("only %d screened scenarios registered", len(out))
	}
	return out
}

// runUnscreened executes cfg the way Run does — the same network model,
// round budget, adversary and checkers — but hands the engine no screen,
// so every node verifies every ticket it receives. Nodes from BuildNodes
// keep every core iteration instead of Run's lockstep window, a storage
// difference TestLockstepWindowMatchesKeepAll pins invisible.
func runUnscreened(t *testing.T, cfg Config) *Report {
	t.Helper()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	nodes, seize, steps, err := BuildNodes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxRounds, err := norm.RoundBudget(steps)
	if err != nil {
		t.Fatal(err)
	}
	net, err := norm.Faults()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: norm.N, F: norm.F, MaxRounds: maxRounds,
		Seize: seize, Net: net, Sparse: norm.Sparse, Tracer: norm.Tracer,
	}, nodes, norm.Adversary)
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Evaluate(norm, rt.Run())
}

// screenTrace runs one execution with a fresh recorder attached and returns
// its report and canonical trace digest. Runs past 10⁴ nodes skip the
// trace: their event stream is n events a round.
func screenTrace(t *testing.T, cfg Config, run func(*testing.T, Config) *Report) (*Report, string) {
	t.Helper()
	var rec *obs.Recorder
	if cfg.N <= 10_000 {
		rec = obs.NewRecorder(0)
		cfg.Tracer = rec
	}
	rep := run(t, cfg)
	if rec == nil {
		return rep, ""
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, traceDigest(buf.Bytes())
}

func runScreened(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScreenEquivalence runs each screened protocol's scenarios with the
// screen (Run) and without it, and requires the same Result — outputs,
// rounds, corruptions, all four Definitions 6–7 counters — and the same
// canonical trace, at one and at four stepping workers. The adversarial
// scenarios inject through the shared list the screen runs over, and the
// Δ > 1 ones deliver held copies as per-recipient extras it never sees.
func TestScreenEquivalence(t *testing.T) {
	var seed [32]byte
	seed[0] = 7
	for _, sc := range screenCases(t) {
		if sc.Config.N > 10_000 && (testing.Short() || testenv.Race) {
			continue
		}
		for _, workers := range screenWorkers {
			t.Run(fmt.Sprintf("%s/w%d", sc.Name, workers), func(t *testing.T) {
				testenv.SetGOMAXPROCS(t, workers)
				resolve := func() Config {
					cfg, err := sc.Resolve(seed, 0)
					if err != nil {
						t.Fatal(err)
					}
					return cfg
				}
				screened, sTrace := screenTrace(t, resolve(), runScreened)
				plain, pTrace := screenTrace(t, resolve(), runUnscreened)
				if !reflect.DeepEqual(screened.Result, plain.Result) {
					t.Errorf("screened result differs from unscreened:\n%+v\nvs\n%+v", screened.Result, plain.Result)
				}
				if sTrace != pTrace {
					t.Errorf("trace digest %s screened, %s unscreened", sTrace, pTrace)
				}
				if screened.Ok() != plain.Ok() {
					t.Errorf("ok = %v screened, %v unscreened", screened.Ok(), plain.Ok())
				}
			})
		}
	}
}

// countingSuite counts every ticket Verify call made through its verifier.
type countingSuite struct {
	fmine.Suite
	calls atomic.Int64
}

func (s *countingSuite) Verifier() fmine.Verifier { return countingVerifier{s} }

type countingVerifier struct{ s *countingSuite }

func (v countingVerifier) Verify(tag fmine.Tag, id types.NodeID, proof []byte) bool {
	v.s.calls.Add(1)
	return v.s.Suite.Verifier().Verify(tag, id, proof)
}

// countVerifies runs core at n = 200 under the passive lockstep model and
// returns the Verify calls it made and its Definition 7 multicast count.
func countVerifies(t *testing.T, screened bool) (calls int64, multicasts int) {
	t.Helper()
	var seed [32]byte
	seed[0] = 7
	suite := &countingSuite{Suite: fmine.NewIdeal(seed, core.Probabilities(200, 40))}
	ccfg := core.Config{N: 200, F: 60, Lambda: 40, MaxIters: 40, Suite: suite, Lockstep: true, Intern: attest.NewInterner()}
	inputs := make([]types.Bit, ccfg.N)
	for i := range inputs {
		inputs[i] = types.Bit(i % 2)
	}
	nodes, err := core.NewNodes(ccfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{N: ccfg.N, F: ccfg.F, MaxRounds: ccfg.Rounds()}
	if screened {
		cfg.Screen = core.Screen(suite.Verifier())
	}
	rt, err := netsim.NewRuntime(cfg, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckTermination(res); err != nil {
		t.Fatal(err)
	}
	return suite.calls.Load(), res.Metrics.HonestMulticasts
}

// TestScreenVerifyCount pins where the Verify calls of a screened run go.
// The screen checks each shared entry once: one ticket, or two for a vote
// past iteration 1 (its leader's proposal). The nodes still check the
// certificates themselves — absorbCert on a higher-ranked one, the commits
// of the first terminate message — but under the passive lockstep schedule
// every node cut the same certificates the senders attach and its own
// terminate before anyone else's arrives, so none of those checks runs:
// the screened count is the screen's alone, and without the screen each of
// the n recipients repeats it exactly. The counts are a pure function of
// the seed, at any worker count.
func TestScreenVerifyCount(t *testing.T) {
	const n = 200
	screened, multicasts := countVerifies(t, true)
	plain, plainMulticasts := countVerifies(t, false)
	if multicasts != plainMulticasts {
		t.Fatalf("multicasts %d screened, %d unscreened", multicasts, plainMulticasts)
	}
	if screened > 2*int64(multicasts) {
		t.Errorf("screened run made %d Verify calls, more than two per multicast (%d)", screened, multicasts)
	}
	if plain != n*screened {
		t.Errorf("unscreened run made %d Verify calls, want n × screened = %d", plain, n*screened)
	}
	if want := int64(206); screened != want {
		t.Errorf("screened run made %d Verify calls, want %d", screened, want)
	}
}

// TestScreenDeliveredSize guards the inbox element's size: the verdict byte
// lives in the padding after the int32 From, so a Delivered is no larger
// than {From, Msg} on a 64-bit platform. A pointer-sized field there grew
// the live cluster's per-node inboxes by a word per delivery. A 32-bit
// platform has no padding there and pays one word.
func TestScreenDeliveredSize(t *testing.T) {
	pair := unsafe.Sizeof(struct {
		From types.NodeID
		Msg  wire.Message
	}{})
	want := pair
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want += 4
	}
	if got := unsafe.Sizeof(netsim.Delivered{}); got != want {
		t.Errorf("sizeof(Delivered) = %d, want %d ({From, Msg} is %d)", got, want, pair)
	}
}
