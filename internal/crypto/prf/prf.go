package prf

import (
	"encoding/binary"
	"fmt"
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

// Eval computes PRF_k(msg) = HMAC-SHA256(k, msg). It hashes the key into
// both pads on every call; a caller evaluating one key more than once keeps
// its State instead.
func Eval(k Key, msg []byte) Output {
	s := NewState(k)
	return s.Eval(msg)
}

// State is one key's HMAC-SHA256 evaluator: the SHA-256 chaining values
// after compressing the block k⊕ipad (inner) and the block k⊕opad (outer).
// Every HMAC of k starts from those two blocks, so keeping their midstates
// leaves an evaluation only the message's own blocks and the outer hash of
// the 32-byte inner digest: two compressions for a message of at most 55
// bytes. A State is an immutable value, safe for concurrent use and free to
// copy.
type State struct {
	inner, outer [8]uint32
}

// iv is SHA-256's initial hash value (FIPS 180-4 §5.3.3).
var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// NewState returns the evaluator for k.
func NewState(k Key) State {
	// A key shorter than SHA-256's 64-byte block is zero-padded (RFC 2104).
	var pad [64]byte
	copy(pad[:], k[:])
	for i := range pad {
		pad[i] ^= 0x36
	}
	s := State{inner: iv, outer: iv}
	block(&s.inner, pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	block(&s.outer, pad[:])
	return s
}

// Eval computes PRF_k(msg) for the State's key; it allocates nothing.
func (s *State) Eval(msg []byte) (out Output) {
	h := s.inner
	whole := len(msg) &^ 63
	if whole > 0 {
		block(&h, msg[:whole])
	}
	// The inner hash's last one or two blocks: the message's tail, the 0x80
	// marker, zeros, and the bit length of k⊕ipad ‖ msg.
	var tail [128]byte
	n := copy(tail[:], msg[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(64+len(msg))<<3)
	finish(&h, &s.outer, tail[:end], &out)
	return out
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
