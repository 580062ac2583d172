package aba

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// scriptEvent is one call of a scripted drive: a SetInput when msg is nil.
type scriptEvent struct {
	from  types.NodeID
	msg   wire.Message
	input types.Bit
}

const (
	scriptN, scriptF = 7, 2
	scriptDomain     = "aba/script"
	scriptRounds     = 5
)

// abaScript builds one seeded message sequence for node 0 of a 7-node
// instance: traffic before the input arrives (the input lands anywhere in
// the first half, or first), duplicate senders, BVALs for rounds the node
// has not reached, AUX messages with a non-concrete bit, coin shares both
// mined (valid) and forged, and — in the last quarter — DONEs. Values lean towards one bit per
// script so quorums actually form and rounds advance.
func abaScript(seed int64, suite fmine.Suite) []scriptEvent {
	rng := rand.New(rand.NewSource(seed))
	const length = 400
	inputAt := 0
	if rng.Intn(3) > 0 {
		inputAt = rng.Intn(length / 2)
	}
	lean := types.Bit(rng.Intn(2))
	bit := func() types.Bit {
		if rng.Intn(4) == 0 {
			return lean.Flip()
		}
		return lean
	}
	var events []scriptEvent
	for i := 0; i < length; i++ {
		if i == inputAt {
			events = append(events, scriptEvent{input: types.Bit(rng.Intn(2))})
		}
		from := types.NodeID(rng.Intn(scriptN))
		round := uint32(1 + rng.Intn(scriptRounds))
		var msg wire.Message
		k := rng.Intn(20)
		if k >= 18 && i < 3*length/4 {
			k = rng.Intn(18) // DONEs end the drive; keep them to the tail
		}
		switch {
		case k < 8:
			msg = BValMsg{Round: round, B: bit()}
		case k < 13:
			b := bit()
			if rng.Intn(6) == 0 {
				b = types.NoBit
			}
			msg = AuxMsg{Round: round, B: b}
		case k < 18:
			proof := []byte{0xBA, 0xD0}
			if rng.Intn(5) > 0 {
				proof, _ = suite.Miner(from).Mine(coinTag(scriptDomain, round))
			}
			msg = CoinMsg{Round: round, Proof: proof}
		default:
			msg = DoneMsg{B: bit()}
		}
		events = append(events, scriptEvent{from: from, msg: msg})
	}
	return events
}

// scriptConfig is the scripted node's config over a fresh suite.
func scriptConfig(seed int64) (Config, fmine.Suite) {
	var s [32]byte
	s[0], s[1] = byte(seed), byte(seed>>8)
	suite := fmine.NewIdeal(s, CoinProb)
	return Config{N: scriptN, F: scriptF, Me: 0, Domain: scriptDomain, Suite: suite, Source: NewCoinSource(s)}, suite
}

// play applies one event and appends what it produced to the transcript:
// the sends in order (recipient and wire bytes) and the visible state.
func play(m *Instance, ev scriptEvent, transcript []byte) []byte {
	var sends []netsim.Send
	if ev.msg == nil {
		sends = m.SetInput(ev.input)
	} else {
		sends = m.Handle(ev.from, ev.msg)
	}
	transcript = append(transcript, byte(len(sends)))
	for _, s := range sends {
		transcript = append(transcript, byte(s.To))
		transcript = append(transcript, wire.Marshal(s.Msg)...)
	}
	b, decided := m.Decided()
	state := byte(0)
	if decided {
		state |= 1
	}
	if m.Halted() {
		state |= 2
	}
	return append(transcript, byte(b), state, byte(m.Round()))
}

const scriptSeeds = 64

// transcriptDigest is sha256 over the concatenated transcripts of
// scriptSeeds scripted drives of Instance, recorded at the commit before
// the quorum counters replaced the per-delivery scans. The order of sends
// within one call is the event runtime's schedule, so this pins exactly
// what the counters had to preserve.
const transcriptDigest = "a113ffaa9453db78818478a8b2b5094f377d8680932b9fdaa3ebec5e01c3d65a"

func TestTranscriptMatchesRecorded(t *testing.T) {
	h := sha256.New()
	sends, decided, halted := 0, 0, 0
	for seed := int64(0); seed < scriptSeeds; seed++ {
		cfg, suite := scriptConfig(seed)
		in := NewInstance(cfg)
		var transcript []byte
		for _, ev := range abaScript(seed, suite) {
			before := len(transcript)
			transcript = play(in, ev, transcript)
			sends += int(transcript[before])
		}
		if _, ok := in.Decided(); ok {
			decided++
		}
		if in.Halted() {
			halted++
		}
		h.Write(transcript)
	}
	// The script is only worth pinning while it exercises the machine.
	if sends < 10*scriptSeeds || decided < scriptSeeds/2 || halted < scriptSeeds/4 {
		t.Fatalf("scripts too quiet: %d sends, %d decided, %d halted over %d drives", sends, decided, halted, scriptSeeds)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != transcriptDigest {
		t.Fatalf("transcript digest %s, recorded %s", got, transcriptDigest)
	}
}
