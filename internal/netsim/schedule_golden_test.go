package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ccba/internal/types"
)

// scheduleGoldens pins every seeded network schedule link for link: the
// SHA-256 of the (Δ, faulty mask, then per (round, from, to) delay, drop
// flag and fault kind) stream over n = 7 and rounds 0–40. A refactor of the
// fault schedule must reproduce these bytes exactly.
var scheduleGoldens = []struct {
	name  string
	model Faults
	want  string
}{
	{"delta-3", Faults{Delta: 3, Spread: SpreadHold}, "12fb22cd0e0a454eb9bc50eed9e40c59c98bf5d06407e88c2bfb22285c915919"},
	{"jitter-3", Faults{Delta: 3, Spread: SpreadJitter, Key: goldenKey}, "ce2bd166781b3ccce7c0c237eb8a602a5b95a83996b8fc9c165c532def72267c"},
	{"omission-1", Faults{Delta: 1, Key: goldenKey, Faulty: goldenFaulty, Rate: 0.4}, "8ef99914fe579b60ce80502545fb67f26d49cfe0ad70412c51c211539212064c"},
	{"omission-2", Faults{Delta: 2, Key: goldenKey, Faulty: goldenFaulty, Rate: 0.4}, "8c09c6ba23707f807535b66e79ea6c529c2fd6b413a71aca8a82d8a325b27732"},
	{"partition-1", Faults{Delta: 1, Cut: 3, CutUntil: 6}, "678837dd1169115db5381b911d75148a62fe0373dcf3c5c87671f5872656bb05"},
	{"partition-3", Faults{Delta: 3, Cut: 3, CutUntil: 6}, "a7c3459c848a1bc7926ec8cf7dffc7d04a7ea0baf088763ce0ff8c7bf9f50b65"},
	{"chaos-drop-1", Faults{Delta: 1, Spread: SpreadJitter, Key: goldenKey, Faulty: goldenFaulty, Rate: 0.4}, "8ef99914fe579b60ce80502545fb67f26d49cfe0ad70412c51c211539212064c"},
	{"chaos-full-3", Faults{Delta: 3, Spread: SpreadJitter, Key: goldenKey, Faulty: goldenFaulty, Rate: 0.4,
		Cut: 3, CutFrom: 5, CutUntil: 15, Crash: 4, CrashFrom: 10, CrashUntil: 20}, "340c0034d9f7637d3474154106a081015b4a70c63f8e7483b419501097feeae3"},
}

var (
	goldenKey    = FoldSeed([32]byte{9, 9, 9})
	goldenFaulty = faultyMask(7, 1, 4)
)

// scheduleStreamDigest hashes one model's complete schedule.
func scheduleStreamDigest(t *testing.T, m Faults) string {
	t.Helper()
	const n, rounds = 7, 40
	h := sha256.New()
	mask, err := m.Validate(n, n-1)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte{byte(m.Delta)})
	for id := 0; id < n; id++ {
		b := byte(0)
		if mask != nil && mask[id] {
			b = 1
		}
		h.Write([]byte{b})
	}
	var rec [16]byte
	for r := 0; r <= rounds; r++ {
		for from := types.NodeID(0); from < n; from++ {
			for to := types.NodeID(0); to < n; to++ {
				if from == to {
					continue
				}
				delay, fault := m.Decide(r, from, to)
				drop, kind := int32(0), int32(-1)
				if delay == Drop {
					drop, kind = 1, int32(fault)
				}
				binary.LittleEndian.PutUint32(rec[0:], uint32(int32(delay)))
				binary.LittleEndian.PutUint32(rec[4:], uint32(drop))
				binary.LittleEndian.PutUint32(rec[8:], uint32(kind))
				binary.LittleEndian.PutUint32(rec[12:], uint32(r))
				h.Write(rec[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestScheduleGolden(t *testing.T) {
	for _, g := range scheduleGoldens {
		if got := scheduleStreamDigest(t, g.model); got != g.want {
			t.Errorf("%s schedule digest = %s, want %s", g.name, got, g.want)
		}
	}
}
