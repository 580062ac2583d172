package ccba

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"ccba/internal/attest"
	"ccba/internal/core"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// The lockstep engine screens each shared delivery once per round with the
// protocol's recipient-independent ticket check (netsim.Config.Screen,
// DESIGN.md §6), and nodes trust the verdict instead of re-verifying the
// same tickets n times. These tests pin that the screen changes nothing
// but the number of Verify calls.

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
