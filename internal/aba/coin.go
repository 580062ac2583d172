package aba

import (
	"ccba/internal/crypto/prf"
	"ccba/internal/fmine"
	"ccba/internal/types"
)

// coinDomainLabel separates the coin-value PRF key from every other
// derivation of the run seed.
const coinDomainLabel = "aba/coin"

// CoinSource is the trusted dealer's common-coin value table: a hidden PRF
// keyed off the run seed, evaluated on the (instance, round) coin tag. It
// models the threshold secret the Canetti–Rabin setup shares among the
// nodes — the coin VALUE lives here, identically in the ideal and real
// crypto modes, while the fmine ticket shares only gate its reveal. That
// split is what makes "ideal ≡ real coin values on equal seeds" a testable
// property rather than a modelling accident (DESIGN.md §11).
//
// Safe for concurrent use; one source serves every node of a run.
type CoinSource struct {
	st prf.State
}

// NewCoinSource builds the coin table for one run seed.
func NewCoinSource(seed [32]byte) *CoinSource {
	return &CoinSource{st: prf.NewState(prf.DeriveKey(prf.Key(seed), coinDomainLabel))}
}

// Value returns the coin bit for one (instance, round) tag.
func (s *CoinSource) Value(tag fmine.Tag) types.Bit {
	var buf [64]byte
	out := s.st.Eval(tag.AppendEncode(buf[:0]))
	return types.Bit(out[0] & 1)
}

// CoinProb is the fmine success probability of coin-share tags: every node
// holds a share (the threshold structure is in the f+1 reveal quorum, not
// in share scarcity).
func CoinProb(fmine.Tag) float64 { return 1 }

// coinTag is the mining tag of instance domain's round-r coin share.
func coinTag(domain string, round uint32) fmine.Tag {
	return fmine.Tag{Domain: domain, Type: uint8(KindCoin), Iter: round, Bit: types.NoBit}
}
