package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
)

// KeySize is the PRF key length in bytes.
const KeySize = 32

// OutputSize is the PRF output length in bytes.
const OutputSize = 32

// Key is a PRF secret key.
type Key [KeySize]byte

// NewKey samples a fresh key from rng.
func NewKey(rng io.Reader) (Key, error) {
	var k Key
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return Key{}, fmt.Errorf("prf: sampling key: %w", err)
	}
	return k, nil
}

// DeriveKey deterministically derives a sub-key from a master key and a
// domain-separation label. It is used to expand one seed into the many
// independent keys a simulated deployment needs.
func DeriveKey(master Key, label string) Key {
	out := Eval(master, []byte("derive:"+label))
	return Key(out)
}

// Output is a PRF evaluation result.
type Output [OutputSize]byte

// Eval computes PRF_k(msg) = HMAC-SHA256(k, msg).
func Eval(k Key, msg []byte) Output {
	mac := hmac.New(sha256.New, k[:])
	mac.Write(msg)
	var out Output
	mac.Sum(out[:0])
	return out
}

// State is a reusable evaluation state for one key. Constructing an HMAC
// hashes the key into both pads; profiles of large simulations show that
// setup dominating Eval, so hot paths keep one State per key and Reset it
// between evaluations. Not safe for concurrent use — callers serialise
// access (fmine.Ideal keeps a stripe of States, each behind its own lock).
type State struct {
	mac hash.Hash
	// sum receives the digest: hash.Hash.Sum is an interface call, so a
	// local destination escapes and costs one heap allocation per Eval.
	sum Output
}

// NewState returns a reusable evaluator for k.
func NewState(k Key) *State {
	return &State{mac: hmac.New(sha256.New, k[:])}
}

// Eval computes PRF_k(msg), reusing the keyed HMAC state. The result is
// identical to the package-level Eval.
func (s *State) Eval(msg []byte) Output {
	s.mac.Reset()
	s.mac.Write(msg)
	s.mac.Sum(s.sum[:0])
	return s.sum
}

// Uint64 interprets the first eight bytes of the output as a big-endian
// unsigned integer, i.e. a uniform sample from [0, 2^64).
func (o Output) Uint64() uint64 {
	return binary.BigEndian.Uint64(o[:8])
}

// Fraction returns the output as a uniform fraction in [0, 1).
func (o Output) Fraction() float64 {
	return float64(o.Uint64()) / (1 << 64)
}

// Threshold converts a success probability p ∈ [0, 1] into the difficulty
// value D_p such that a uniform 64-bit sample is below D_p with probability
// p (up to floating-point rounding).
func Threshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.MaxUint64
	default:
		return uint64(p * (1 << 64))
	}
}

// Below reports whether the output clears the difficulty for success
// probability p, i.e. whether the "mining attempt" ρ < D_p succeeds.
func (o Output) Below(p float64) bool {
	if p >= 1 {
		return true
	}
	return o.Uint64() < Threshold(p)
}
