package fmine

import (
	"crypto/hmac"
	"crypto/sha256"
	"testing"

	"ccba/internal/crypto/prf"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// figure1 is F_mine written out the way Figure 1 states it, as the reference
// Ideal is tested against: Coin[m, i] is the PRF of the hidden key on
// NodeID ‖ tag, recomputed from scratch on every call, and the mined(m, i)
// flag remembers every attempt — failures too, which Ideal's table drops.
// It shares no coin code with Ideal: the key, the input encoding and the
// PRF are computed here, the PRF by crypto/hmac.
type figure1 struct {
	key   []byte
	prob  ProbFunc
	mined map[string]bool
}

func newFigure1(seed [32]byte, prob ProbFunc) *figure1 {
	return &figure1{key: hiddenKey(seed), prob: prob, mined: make(map[string]bool)}
}

// hmacSHA256 is the PRF of the paper's Appendix D.4, from the standard
// library.
func hmacSHA256(key, msg []byte) prf.Output {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	var out prf.Output
	mac.Sum(out[:0])
	return out
}

// hiddenKey is the coin key NewIdeal derives from seed: the PRF of the seed
// on the label "derive:fmine/ideal".
func hiddenKey(seed [32]byte) []byte {
	k := hmacSHA256(seed[:], []byte("derive:fmine/ideal"))
	return k[:]
}

// cell encodes the coin input of Coin[m, i]: NodeID ‖ tag, the tag as its
// length-prefixed domain, type, iteration and bit.
func cell(tag Tag, id types.NodeID) []byte {
	w := wire.Writer{}
	w.NodeID(id)
	w.U32(uint32(len(tag.Domain)))
	w.Buf = append(w.Buf, tag.Domain...)
	w.U8(tag.Type)
	w.U32(tag.Iter)
	w.Bit(tag.Bit)
	return w.Buf
}

func (m *figure1) mine(tag Tag, id types.NodeID) ([]byte, bool) {
	in := cell(tag, id)
	m.mined[string(in)] = true
	coin := hmacSHA256(m.key, in)
	if !coin.Below(m.prob(tag)) {
		return nil, false
	}
	return coin[:], true
}

func (m *figure1) verify(tag Tag, id types.NodeID, proof []byte) bool {
	in := cell(tag, id)
	if !m.mined[string(in)] {
		return false
	}
	coin := hmacSHA256(m.key, in)
	return coin.Below(m.prob(tag)) && string(proof) == string(coin[:])
}

// TestIdealMatchesFigure1 pins Ideal to the definition on a corpus with
// successes and failures: Mine results including repeats of failed attempts,
// and Verify answers for genuine tickets, wrong owners, failed attempts,
// never-mined cells (ticket secrecy) and forged bytes.
func TestIdealMatchesFigure1(t *testing.T) {
	prob := func(tag Tag) float64 {
		switch tag.Type {
		case 1:
			return 0.5
		case 2:
			return 0.05
		default:
			return 0
		}
	}
	seed := [32]byte{9}
	f, model := NewIdeal(seed, prob), newFigure1(seed, prob)
	v := f.Verifier()

	var tags []Tag
	for _, typ := range []uint8{1, 2, 3} {
		for iter := uint32(1); iter <= 4; iter++ {
			for _, b := range []types.Bit{types.Zero, types.One} {
				tags = append(tags, Tag{Domain: "figure1-test", Type: typ, Iter: iter, Bit: b})
			}
		}
	}
	junk := []byte("definitely-not-a-coin")

	const n = 32
	type mined struct {
		tag   Tag
		id    types.NodeID
		proof []byte
	}
	var successes []mined
	for id := types.NodeID(0); id < n; id++ {
		m := f.Miner(id)
		for _, tag := range tags {
			// Secrecy: before node id mines tag, verify answers false even
			// for the ticket the attempt is about to produce.
			coin := hmacSHA256(model.key, cell(tag, id))
			if v.Verify(tag, id, coin[:]) || model.verify(tag, id, coin[:]) {
				t.Fatalf("Verify(%v, %d) answered true before mine was called", tag, id)
			}
			// Mine twice: the repeat must answer identically, failed or not.
			for rep := 0; rep < 2; rep++ {
				got, ok := m.Mine(tag)
				want, wantOK := model.mine(tag, id)
				if ok != wantOK || string(got) != string(want) {
					t.Fatalf("Mine(%v, %d) rep %d: got (%x, %v), Figure 1 says (%x, %v)", tag, id, rep, got, ok, want, wantOK)
				}
				if ok && rep == 0 {
					successes = append(successes, mined{tag: tag, id: id, proof: got})
				}
			}
		}
	}
	if len(successes) == 0 || len(successes) == n*len(tags) {
		t.Fatalf("corpus has %d successes of %d attempts; it needs both outcomes", len(successes), n*len(tags))
	}

	for id := types.NodeID(0); id < n; id++ {
		for _, tag := range tags {
			probes := [][]byte{nil, junk}
			for _, m := range successes[:min(len(successes), 8)] {
				probes = append(probes, m.proof) // right and wrong owners
			}
			if own, ok := model.mine(tag, id); ok {
				forged := append([]byte(nil), own...)
				forged[0] ^= 1
				probes = append(probes, own, forged, own[:len(own)-1])
			}
			for _, proof := range probes {
				if got, want := v.Verify(tag, id, proof), model.verify(tag, id, proof); got != want {
					t.Fatalf("Verify(%v, %d, %x): got %v, Figure 1 says %v", tag, id, proof, got, want)
				}
			}
		}
	}

	// Only successes are stored: a failed attempt costs no table entry.
	if got := f.entries(); got != len(successes) {
		t.Errorf("table has %d entries, want one per successful attempt (%d)", got, len(successes))
	}
}

// TestIdealRepeatMineSharesTicket pins the mine path's memory contract: a
// repeated successful attempt returns the one stored slice — same backing
// array, zero allocation. Committee members re-attempt their round tags, so
// a fresh copy per attempt would cost one allocation per node per round.
func TestIdealRepeatMineSharesTicket(t *testing.T) {
	f := NewIdeal([32]byte{7}, func(Tag) float64 { return 1 })
	tag := Tag{Domain: "repeat-test", Type: 1, Iter: 3, Bit: types.One}
	for id := types.NodeID(0); id < 8; id++ {
		m := f.Miner(id)
		p1, ok1 := m.Mine(tag)
		p2, ok2 := m.Mine(tag)
		if !ok1 || !ok2 {
			t.Fatalf("id %d: attempts at p=1 failed (%v, %v)", id, ok1, ok2)
		}
		if &p1[0] != &p2[0] {
			t.Errorf("id %d: repeat attempt returned a fresh copy, want the stored slice", id)
		}
		if !f.Verifier().Verify(tag, id, p1) {
			t.Errorf("id %d: stored ticket rejected", id)
		}
	}
	m := f.Miner(0)
	if avg := testing.AllocsPerRun(100, func() { m.Mine(tag) }); avg > 0 {
		t.Errorf("repeat Mine allocates %.1f times per call, want 0", avg)
	}
}
