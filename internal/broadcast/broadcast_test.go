package broadcast

import (
	"testing"

	"ccba/internal/core"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/phaseking"
	"ccba/internal/types"
)

// coreBA returns a MakeBA over the subquadratic core protocol.
func coreBA(t *testing.T, n, f, lambda int, seedByte byte) (MakeBA, core.Config) {
	t.Helper()
	var seed [32]byte
	seed[0] = seedByte
	cfg := core.Config{
		N: n, F: f, Lambda: lambda, MaxIters: 30,
		Suite: fmine.NewIdeal(seed, core.Probabilities(n, lambda)),
	}
	run, err := core.NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return func(id types.NodeID, input types.Bit) (netsim.Node, error) {
		nd, err := run.Node(id, input)
		if err != nil {
			return nil, err
		}
		return nd, nil
	}, cfg
}

func runBB(t *testing.T, n, f int, sender types.NodeID, input types.Bit, mk MakeBA, maxRounds int, adv netsim.Adversary) *netsim.Result {
	t.Helper()
	nodes, err := NewNodes(n, sender, input, mk)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: maxRounds}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Run()
}

func TestHonestSenderValidityOverCore(t *testing.T) {
	for _, b := range []types.Bit{types.Zero, types.One} {
		mk, cfg := coreBA(t, 80, 20, 24, 1)
		res := runBB(t, 80, 20, 0, b, mk, cfg.Rounds()+1, nil)
		if err := netsim.CheckTermination(res); err != nil {
			t.Fatal(err)
		}
		if err := netsim.CheckBroadcastValidity(res, 0, b); err != nil {
			t.Fatal(err)
		}
		if err := netsim.CheckConsistency(res); err != nil {
			t.Fatal(err)
		}
	}
}

// equivSender corrupts the sender and sends 0 to low ids, 1 to high ids.
type equivSender struct{}

func (equivSender) Power() netsim.Power { return netsim.PowerStatic }
func (equivSender) Setup(ctx *netsim.Ctx) {
	if _, err := ctx.Corrupt(0); err != nil {
		panic(err)
	}
}
func (equivSender) Round(ctx *netsim.Ctx) {
	if ctx.Round() != 0 {
		return
	}
	for i := 1; i < ctx.N(); i++ {
		b := types.BitFromBool(i >= ctx.N()/2)
		if err := ctx.Inject(0, types.NodeID(i), InputMsg{B: b}); err != nil {
			panic(err)
		}
	}
}

func TestEquivocatingSenderConsistencyViaBA(t *testing.T) {
	// The reduction's point: a corrupt sender splits the inputs, and the
	// underlying BA still forces one output.
	mk, cfg := coreBA(t, 80, 20, 24, 2)
	res := runBB(t, 80, 20, 0, types.Zero, mk, cfg.Rounds()+1, equivSender{})
	if err := netsim.CheckTermination(res); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
}

func TestSilentSenderDefaultsToZero(t *testing.T) {
	mk, cfg := coreBA(t, 60, 15, 24, 3)
	res := runBB(t, 60, 15, 0, types.One, mk, cfg.Rounds()+1, &silenceSender{})
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
	// Sender corrupt → validity vacuous, but all-silent inputs default to 0
	// and BA validity forces output 0.
	for _, id := range res.ForeverHonest() {
		if res.Decided[id] && res.Outputs[id] != types.Zero {
			t.Fatalf("node %d output %v on silent sender", id, res.Outputs[id])
		}
	}
}

type silenceSender struct{ netsim.Passive }

func (s *silenceSender) Setup(ctx *netsim.Ctx) {
	if _, err := ctx.Corrupt(0); err != nil {
		panic(err)
	}
}

func TestPreservesSublinearMulticast(t *testing.T) {
	// The reduction adds exactly one multicast: BB multicasts ≈ BA
	// multicasts + 1.
	mk, cfg := coreBA(t, 200, 50, 24, 4)
	res := runBB(t, 200, 50, 0, types.One, mk, cfg.Rounds()+1, nil)
	if res.Metrics.HonestMulticasts > netsim.Count(40*cfg.Lambda) {
		t.Fatalf("BB multicasts %d not sublinear-like", res.Metrics.HonestMulticasts)
	}
}

func TestWorksOverPhaseKing(t *testing.T) {
	// The reduction is generic: run it over the plain §3.1 protocol too.
	pkCfg := phaseking.Config{N: 9, Epochs: 16}
	mk := func(id types.NodeID, input types.Bit) (netsim.Node, error) {
		return phaseking.New(pkCfg, id, input)
	}
	res := runBB(t, 9, 2, 3, types.One, mk, pkCfg.Rounds()+2, nil)
	if err := netsim.CheckBroadcastValidity(res, 3, types.One); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(0, 0, types.NoBit, func(types.NodeID, types.Bit) (netsim.Node, error) { return nil, nil }); err == nil {
		t.Fatal("invalid sender input accepted")
	}
	if _, err := New(0, 0, types.Zero, nil); err == nil {
		t.Fatal("nil MakeBA accepted")
	}
}

func TestCodec(t *testing.T) {
	m := InputMsg{B: types.One}
	buf := append([]byte{byte(m.Kind())}, m.Encode(nil)...)
	dec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.(InputMsg).B != types.One {
		t.Fatal("input msg mismatch")
	}
	if _, err := Decode([]byte{1}); err == nil {
		t.Fatal("short decode accepted")
	}
}
