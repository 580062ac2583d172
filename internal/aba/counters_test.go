package aba

import (
	"testing"

	"ccba/internal/types"
)

// senderRecord is what one sender has contributed to one round, kept the
// way the instance used to keep it: per-sender facts a quorum is a scan of.
type senderRecord struct {
	bval   [2]bool
	aux    bool
	auxVal types.Bit
	share  bool
}

// TestCountersMatchScans replays the scripted drives and, after every
// SetInput and Handle, recomputes from per-sender records each quantity the
// instance now keeps as a counter — the scans the counters replaced — and
// checks the invariant that lets the echo step run for one round only:
// once started, no round is left with an echo transition enabled.
func TestCountersMatchScans(t *testing.T) {
	for seed := int64(0); seed < scriptSeeds; seed++ {
		cfg, suite := scriptConfig(seed)
		in := NewInstance(cfg)
		verify := suite.Verifier()
		shadow := make([][scriptN]senderRecord, scriptRounds)
		for step, ev := range abaScript(seed, suite) {
			switch m := ev.msg.(type) {
			case BValMsg:
				shadow[m.Round-1][ev.from].bval[m.B] = true
			case AuxMsg:
				if rec := &shadow[m.Round-1][ev.from]; !rec.aux {
					rec.aux, rec.auxVal = true, m.B
				}
			case CoinMsg:
				if rec := &shadow[m.Round-1][ev.from]; !rec.share {
					rec.share = verify.Verify(coinTag(scriptDomain, m.Round), ev.from, m.Proof)
				}
			}
			play(in, ev, nil)

			for r, rs := range in.rounds {
				if r >= scriptRounds {
					// Rounds past the script's range hold no traffic.
					if rs.bvalCount != [2]int{} || rs.auxCount != [2]int{} || rs.shareCount != 0 {
						t.Fatalf("seed %d step %d: round %d has tallies but no traffic", seed, step, r+1)
					}
					continue
				}
				var bvalCount, auxCount [2]int
				var vals [2]bool
				support, shares := 0, 0
				for from, rec := range shadow[r] {
					for b := 0; b < 2; b++ {
						if rec.bval[b] {
							bvalCount[b]++
						}
						if rs.got[from]&(gotBVal<<b) != 0 != rec.bval[b] {
							t.Fatalf("seed %d step %d round %d: BVAL(%d) flag of sender %d disagrees with the record", seed, step, r+1, b, from)
						}
					}
					if rec.aux && rec.auxVal.Valid() {
						auxCount[rec.auxVal]++
						if rs.bin[rec.auxVal] {
							support++
							vals[rec.auxVal] = true
						}
					}
					if rec.share {
						shares++
					}
					if rs.got[from]&gotAux != 0 != rec.aux || rs.got[from]&gotShare != 0 != rec.share {
						t.Fatalf("seed %d step %d round %d: AUX/share flags of sender %d disagree with the record", seed, step, r+1, from)
					}
				}
				if rs.bvalCount != bvalCount || rs.auxCount != auxCount || rs.shareCount != shares {
					t.Fatalf("seed %d step %d round %d: counters bval=%v aux=%v share=%d, scans %v %v %d",
						seed, step, r+1, rs.bvalCount, rs.auxCount, rs.shareCount, bvalCount, auxCount, shares)
				}
				if got := in.auxSupport(rs); got != support {
					t.Fatalf("seed %d step %d round %d: auxSupport %d, scan %d", seed, step, r+1, got, support)
				}
				for b := 0; b < 2; b++ {
					if (rs.bin[b] && rs.auxCount[b] > 0) != vals[b] {
						t.Fatalf("seed %d step %d round %d: vals[%d] from counters disagrees with the scan", seed, step, r+1, b)
					}
				}
				if in.started && !in.halted {
					for b := 0; b < 2; b++ {
						if rs.bvalCount[b] >= in.f+1 && !rs.bvalSent[b] || rs.bvalCount[b] >= 2*in.f+1 && !rs.bin[b] {
							t.Fatalf("seed %d step %d: round %d left with an echo transition enabled for %d", seed, step, r+1, b)
						}
					}
				}
			}
		}
	}
}
