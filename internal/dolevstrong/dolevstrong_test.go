package dolevstrong

import (
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/sig"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

func setup(t *testing.T, n, f int) (Config, []pki.Secret) {
	t.Helper()
	var seed [32]byte
	seed[0] = 5
	pub, secrets := pki.Setup(n, seed)
	return Config{N: n, F: f, Sender: 0, PKI: pub}, secrets
}

func run(t *testing.T, cfg Config, input types.Bit, secrets []pki.Secret, adv netsim.Adversary) *netsim.Result {
	t.Helper()
	nodes, err := NewNodes(cfg, input, secrets)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: cfg.N, F: cfg.F, MaxRounds: cfg.Rounds(),
		Seize: func(id types.NodeID) any { return secrets[id] },
	}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Run()
}

func TestHonestSenderValidity(t *testing.T) {
	for _, b := range []types.Bit{types.Zero, types.One} {
		cfg, secrets := setup(t, 7, 2)
		res := run(t, cfg, b, secrets, nil)
		if err := netsim.CheckTermination(res); err != nil {
			t.Fatal(err)
		}
		if err := netsim.CheckBroadcastValidity(res, cfg.Sender, b); err != nil {
			t.Fatal(err)
		}
		if err := netsim.CheckConsistency(res); err != nil {
			t.Fatal(err)
		}
	}
}

// equivSender corrupts the sender up front and sends chain(0) to the low
// half of the nodes and chain(1) to the high half.
type equivSender struct {
	secrets []pki.Secret
}

func (a *equivSender) Power() netsim.Power { return netsim.PowerStatic }
func (a *equivSender) Setup(ctx *netsim.Ctx) {
	if _, err := ctx.Corrupt(0); err != nil {
		panic(err)
	}
}
func (a *equivSender) Round(ctx *netsim.Ctx) {
	if ctx.Round() != 0 {
		return
	}
	sk := a.secrets[0].SigSK
	for i := 1; i < ctx.N(); i++ {
		b := types.BitFromBool(i >= ctx.N()/2)
		chain := sig.Chain{Bit: b}.Extend(0, sk)
		if err := ctx.Inject(0, types.NodeID(i), ChainMsg{Chain: chain}); err != nil {
			panic(err)
		}
	}
}

func TestEquivocatingSenderStillConsistent(t *testing.T) {
	// The whole point of Dolev–Strong: an equivocating sender is exposed by
	// relaying, and all honest nodes converge (here: both bits extracted →
	// default 0, or one bit everywhere).
	cfg, secrets := setup(t, 8, 2)
	res := run(t, cfg, types.Zero, secrets, &equivSender{secrets: secrets})
	if err := netsim.CheckTermination(res); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
}

// silent corrupts f nodes that never relay.
type silent struct {
	netsim.Passive
	ids []types.NodeID
}

func (a *silent) Setup(ctx *netsim.Ctx) {
	for _, id := range a.ids {
		if _, err := ctx.Corrupt(id); err != nil {
			panic(err)
		}
	}
}

func TestToleratesSilentRelays(t *testing.T) {
	cfg, secrets := setup(t, 7, 3)
	res := run(t, cfg, types.One, secrets, &silent{ids: []types.NodeID{1, 2, 3}})
	if err := netsim.CheckBroadcastValidity(res, cfg.Sender, types.One); err != nil {
		t.Fatal(err)
	}
	if err := netsim.CheckConsistency(res); err != nil {
		t.Fatal(err)
	}
}

func TestQuadraticCommunication(t *testing.T) {
	// Every honest node relays each bit once: ~n multicasts for one bit →
	// classical ≈ n². That is the cost Theorem 1 proves unavoidable under
	// strong adaptivity.
	cfg, secrets := setup(t, 10, 3)
	res := run(t, cfg, types.One, secrets, nil)
	if res.Metrics.HonestMulticasts < netsim.Count(cfg.N) {
		t.Fatalf("multicasts = %d; every node should relay once", res.Metrics.HonestMulticasts)
	}
	if res.Metrics.HonestMessages < netsim.Count(cfg.N*cfg.N) {
		t.Fatalf("classical messages = %d, want ≥ n²", res.Metrics.HonestMessages)
	}
}

func TestRoundsExactlyFPlusTwo(t *testing.T) {
	cfg, secrets := setup(t, 6, 3)
	res := run(t, cfg, types.Zero, secrets, nil)
	if res.Rounds != cfg.Rounds() {
		t.Fatalf("rounds = %d, want %d", res.Rounds, cfg.Rounds())
	}
}

func TestForgedChainRejected(t *testing.T) {
	cfg, secrets := setup(t, 4, 1)
	n, err := New(cfg, 1, types.NoBit, secrets[1].SigSK)
	if err != nil {
		t.Fatal(err)
	}
	// A chain not rooted at the sender must be ignored.
	forged := sig.Chain{Bit: types.One}.Extend(2, secrets[2].SigSK)
	n.Step(0, nil)
	n.Step(1, []netsim.Delivered{{From: 2, Msg: ChainMsg{Chain: forged}}})
	if n.extracted[types.One] {
		t.Fatal("chain not rooted at sender extracted")
	}
	// A chain with too few signatures for the round must be ignored.
	short := sig.Chain{Bit: types.One}.Extend(0, secrets[0].SigSK)
	n2, _ := New(cfg, 1, types.NoBit, secrets[1].SigSK)
	n2.Step(0, nil)
	n2.Step(1, nil)
	n2.Step(2, []netsim.Delivered{{From: 0, Msg: ChainMsg{Chain: short}}})
	if n2.extracted[types.One] {
		t.Fatal("round-2 chain with one signature extracted")
	}
}

func TestConfigValidation(t *testing.T) {
	var seed [32]byte
	pub, _ := pki.Setup(3, seed)
	bad := []Config{
		{N: 3, F: 3, Sender: 0, PKI: pub},
		{N: 3, F: 1, Sender: 5, PKI: pub},
		{N: 3, F: 1, Sender: 0},
		{N: 0, F: 0, Sender: 0, PKI: pub},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var seed [32]byte
	_, secrets := pki.Setup(2, seed)
	chain := sig.Chain{Bit: types.One}.Extend(0, secrets[0].SigSK).Extend(1, secrets[1].SigSK)
	m := ChainMsg{Chain: chain}
	buf := append([]byte{byte(m.Kind())}, m.Encode(nil)...)
	dec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	re := append([]byte{byte(dec.Kind())}, dec.Encode(nil)...)
	if string(re) != string(buf) {
		t.Fatal("chain message did not round-trip")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty decode accepted")
	}
	if _, err := Decode([]byte{9, 0}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}
