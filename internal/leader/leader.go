package leader

import (
	"encoding/binary"
	"fmt"

	"ccba/internal/crypto/prf"
	"ccba/internal/types"
)

// Oracle elects one uniformly pseudorandom leader per iteration.
type Oracle struct {
	st prf.State
	n  int
}

// New constructs an oracle for n nodes from a seed.
func New(seed [32]byte, n int) *Oracle {
	if n <= 0 {
		panic(fmt.Sprintf("leader: invalid node count %d", n))
	}
	return &Oracle{st: prf.NewState(prf.DeriveKey(prf.Key(seed), "leader/oracle")), n: n}
}

// Leader returns the leader of the given iteration.
func (o *Oracle) Leader(iter uint32) types.NodeID {
	var buf [4]byte
	out := o.st.Eval(binary.BigEndian.AppendUint32(buf[:0], iter))
	// Rejection-free modular reduction; the bias of 2^64 mod n is far below
	// any quantity measured here.
	return types.NodeID(out.Uint64() % uint64(o.n))
}

// N returns the number of nodes the oracle elects among.
func (o *Oracle) N() int { return o.n }
