package aba

import (
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Config parameterises one node's ABA instance.
type Config struct {
	// N is the node count; F the fault budget (requires N > 3F).
	N, F int
	// Me is this node's identity.
	Me types.NodeID
	// Domain is the instance's coin domain; every node of one instance must
	// agree on it, and distinct instances (ACS slots) must differ.
	Domain string
	// Suite mines and verifies the coin-share tickets (probability CoinProb).
	Suite fmine.Suite
	// Source is the shared common-coin value table.
	Source *CoinSource
	// Sink receives EvCoin reveals (the zero Sink is off).
	Sink obs.Sink
	// Slot labels the instance in coin events (0 standalone).
	Slot int
}

// Per-sender receipt flags of one round: which of a sender's messages have
// been tallied, so a repeat is ignored. BVAL(b) is gotBVal<<b.
const (
	gotBVal  uint8 = 1 << 0 // and 1<<1 for BVAL(1)
	gotAux   uint8 = 1 << 2
	gotShare uint8 = 1 << 3
)

// roundState is one node's bookkeeping for one ABA round. Every quorum is a
// counter moved by the delivery that changes it, deduplicated through one
// flag byte per sender, so no transition rescans the senders.
type roundState struct {
	got []uint8 // per-sender receipt flags

	bvalSent  [2]bool
	bvalCount [2]int
	bin       [2]bool
	binFirst  types.Bit // first value that entered bin_values

	auxSent  bool
	auxCount [2]int // senders whose (first) AUX carried each concrete value

	shareSent  bool
	shareCount int
	coinKnown  bool
}

// Instance is one node's state machine of a Canetti–Rabin-style binary
// Byzantine agreement (the Mostéfaoui–Moumen–Raynal realisation): per
// round, binary-value broadcast (BVAL, with f+1 amplification and 2f+1
// admission into bin_values), an AUX exchange establishing n−f support,
// then a common-coin reveal gated on f+1 verified shares; est follows the
// coin on disagreement, and a round that sees unanimous support for the
// coin's value decides it. A DONE gadget terminates: f+1 DONEs adopt the
// decision, 2f+1 allow the halt (SNIPPETS §1's COMPLETE step).
//
// The instance is a pure state machine: SetInput and Handle return the
// sends they trigger; the embedding runtime moves them onto the wire.
// Every quorum is a counter over per-sender flags — no map iteration, so
// executions are bit-reproducible — and the order of the sends one call
// returns is part of the contract: the event runtime schedules a link by
// the position its send was admitted at, so reordering two sends of one
// call reorders the whole execution after it.
type Instance struct {
	cfg  Config
	n, f int

	miner  fmine.Miner
	verify fmine.Verifier

	started bool
	halted  bool
	est     types.Bit
	round   uint32 // current round, 1-based once started

	decided      bool
	decision     types.Bit
	decidedRound uint32

	rounds []*roundState

	doneRecv  [][2]bool
	doneCount [2]int
	doneSent  bool

	out []netsim.Send // per-call send accumulator
}

// NewInstance builds one node's instance.
func NewInstance(cfg Config) *Instance {
	return &Instance{
		cfg:      cfg,
		n:        cfg.N,
		f:        cfg.F,
		miner:    cfg.Suite.Miner(cfg.Me),
		verify:   cfg.Suite.Verifier(),
		est:      types.NoBit,
		doneRecv: make([][2]bool, cfg.N),
	}
}

// Started reports whether SetInput has run.
func (in *Instance) Started() bool { return in.started }

// Halted reports whether the termination gadget completed.
func (in *Instance) Halted() bool { return in.halted }

// Decided returns the decision and whether one was reached.
func (in *Instance) Decided() (types.Bit, bool) { return in.decision, in.decided }

// DecidedRound returns the 1-based round the decision was reached in (0 if
// undecided) — the termination-latency observable E15 plots.
func (in *Instance) DecidedRound() int { return int(in.decidedRound) }

// Round returns the current 1-based round (0 before SetInput).
func (in *Instance) Round() int { return int(in.round) }

// SetInput starts the instance with estimate b. Messages that arrived
// before the input (an ACS slot starts its ABA only when the matching BRB
// delivers) were tallied by Handle; SetInput drains everything that became
// due.
func (in *Instance) SetInput(b types.Bit) []netsim.Send {
	if in.started || in.halted || !b.Valid() {
		return nil
	}
	in.started = true
	in.est = b
	in.round = 1
	in.out = in.out[:0]
	rs := in.rs(1)
	if !rs.bvalSent[b] {
		rs.bvalSent[b] = true
		in.send(BValMsg{Round: 1, B: b})
	}
	// Traffic tallied before the input never ran its echo step: every round
	// seen so far is due.
	in.progress(1, uint32(len(in.rounds)))
	return in.flush()
}

// Handle processes one message from an authenticated sender and returns
// the sends it triggers. Bookkeeping happens even before SetInput; sends
// only flow once started.
func (in *Instance) Handle(from types.NodeID, msg wire.Message) []netsim.Send {
	in.out = in.out[:0]
	echoLo, echoHi := uint32(1), uint32(0) // rounds whose BVAL tally moved: none
	switch m := msg.(type) {
	case BValMsg:
		rs := in.rs(m.Round)
		if flag := gotBVal << m.B; rs.got[from]&flag == 0 {
			rs.got[from] |= flag
			rs.bvalCount[m.B]++
			echoLo, echoHi = m.Round, m.Round
		}
	case AuxMsg:
		rs := in.rs(m.Round)
		if rs.got[from]&gotAux == 0 {
			rs.got[from] |= gotAux
			if m.B.Valid() {
				rs.auxCount[m.B]++
			}
		}
	case CoinMsg:
		rs := in.rs(m.Round)
		if rs.got[from]&gotShare == 0 && in.verify.Verify(coinTag(in.cfg.Domain, m.Round), from, m.Proof) {
			rs.got[from] |= gotShare
			rs.shareCount++
		}
	case DoneMsg:
		if !in.doneRecv[from][m.B] {
			in.doneRecv[from][m.B] = true
			in.doneCount[m.B]++
		}
	default:
		return nil
	}
	if in.started && !in.halted {
		in.progress(echoLo, echoHi)
	}
	return in.flush()
}

// progress drains every enabled transition to a fixpoint. echoLo..echoHi
// are the rounds whose BVAL tallies moved since their echo step last ran
// (an empty range when none did): the echo step reads nothing else that
// changes, so it is due once, for those rounds, between the first pass's
// DONE and round steps — where a scan of every round on every pass would
// have found it.
func (in *Instance) progress(echoLo, echoHi uint32) {
	for changed := true; changed && !in.halted; echoLo, echoHi = 1, 0 {
		changed = in.stepDone()
		if in.halted {
			return
		}
		for r := echoLo; r <= echoHi; r++ {
			changed = in.stepEchoes(r) || changed
		}
		changed = in.stepRound() || changed
	}
}

// stepDone runs the termination gadget: f+1 DONE(b) adopt (and re-announce)
// the decision, 2f+1 permit the halt once our own DONE is out.
func (in *Instance) stepDone() bool {
	changed := false
	for b := 0; b < 2; b++ {
		if in.doneCount[b] >= in.f+1 {
			changed = in.decide(types.Bit(b)) || changed
		}
		if in.doneCount[b] >= 2*in.f+1 && in.doneSent {
			in.halted = true
			return true
		}
	}
	return changed
}

// stepEchoes runs round r's binary-value broadcast bookkeeping: amplify a
// value on f+1 distinct BVALs, admit it into bin_values on 2f+1.
func (in *Instance) stepEchoes(r uint32) bool {
	rs := in.rounds[r-1]
	changed := false
	for b := 0; b < 2; b++ {
		if rs.bvalCount[b] >= in.f+1 && !rs.bvalSent[b] {
			rs.bvalSent[b] = true
			in.send(BValMsg{Round: r, B: types.Bit(b)})
			changed = true
		}
		if rs.bvalCount[b] >= 2*in.f+1 && !rs.bin[b] {
			rs.bin[b] = true
			if !rs.binFirst.Valid() {
				rs.binFirst = types.Bit(b)
			}
			changed = true
		}
	}
	return changed
}

// stepRound advances the current round's AUX → coin-share → reveal
// pipeline.
func (in *Instance) stepRound() bool {
	rs := in.rs(in.round)
	changed := false
	if !rs.auxSent && rs.binFirst.Valid() {
		rs.auxSent = true
		in.send(AuxMsg{Round: in.round, B: rs.binFirst})
		changed = true
	}
	if rs.auxSent && !rs.shareSent && in.auxSupport(rs) >= in.n-in.f {
		rs.shareSent = true
		if proof, ok := in.miner.Mine(coinTag(in.cfg.Domain, in.round)); ok {
			in.send(CoinMsg{Round: in.round, Proof: proof})
		}
		changed = true
	}
	if rs.shareSent && !rs.coinKnown && rs.shareCount >= in.f+1 {
		rs.coinKnown = true
		in.resolve(rs)
		changed = true
	}
	return changed
}

// auxSupport counts senders whose AUX value has entered bin_values — the
// n−f support condition that guarantees every honest vals set draws from
// binary values some honest node estimated.
func (in *Instance) auxSupport(rs *roundState) int {
	cnt := 0
	for b, admitted := range rs.bin {
		if admitted {
			cnt += rs.auxCount[b]
		}
	}
	return cnt
}

// resolve executes the coin step of the current round: reveal the common
// coin, recompute vals from the supported AUX values, decide when they
// agree with the coin, and enter the next round with the new estimate.
func (in *Instance) resolve(rs *roundState) {
	coin := in.cfg.Source.Value(coinTag(in.cfg.Domain, in.round))
	in.cfg.Sink.Coin(int(in.round), in.cfg.Me, in.cfg.Slot, coin)

	var vals [2]bool
	for b, admitted := range rs.bin {
		vals[b] = admitted && rs.auxCount[b] > 0
	}
	switch {
	case vals[0] != vals[1]: // exactly one value supported
		v := types.BitFromBool(vals[1])
		in.est = v
		if v == coin {
			in.decide(v)
		}
	default: // both (or, unreachable, neither): follow the coin
		in.est = coin
	}
	in.round++
	next := in.rs(in.round)
	if !next.bvalSent[in.est] {
		next.bvalSent[in.est] = true
		in.send(BValMsg{Round: in.round, B: in.est})
	}
}

// decide records the decision (first one wins) and broadcasts DONE once.
func (in *Instance) decide(b types.Bit) bool {
	changed := false
	if !in.decided {
		in.decided = true
		in.decision = b
		in.decidedRound = in.round
		changed = true
	}
	if !in.doneSent {
		in.doneSent = true
		in.send(DoneMsg{B: in.decision})
		changed = true
	}
	return changed
}

// rs returns round r's state, growing the window as needed (r is 1-based).
func (in *Instance) rs(r uint32) *roundState {
	for uint32(len(in.rounds)) < r {
		in.rounds = append(in.rounds, &roundState{got: make([]uint8, in.n), binFirst: types.NoBit})
	}
	return in.rounds[r-1]
}

// send queues one multicast on the per-call accumulator.
func (in *Instance) send(m wire.Message) {
	in.out = append(in.out, netsim.Multicast(m))
}

// flush hands the accumulated sends to the caller. The accumulator is
// reused across calls; callers consume the slice before the next call, as
// the netsim engines do with node send lists.
func (in *Instance) flush() []netsim.Send {
	return in.out
}
