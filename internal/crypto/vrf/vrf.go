package vrf

import (
	"crypto/ed25519"
	"crypto/sha256"

	"ccba/internal/crypto/prf"
	"ccba/internal/crypto/sig"
	"ccba/internal/wire"
)

// ProofSize is the VRF proof length in bytes.
const ProofSize = ed25519.SignatureSize

// OutputSize is the VRF output length in bytes.
const OutputSize = sha256.Size

const (
	domainIn  = "ccba/vrf/v1"
	domainOut = "ccba/vrf/out"
)

// domainInput builds the domain-separated signing payload in a pooled
// scratch buffer; callers release it after the signature operation (neither
// signing nor verification retains the message).
func domainInput(msg []byte) (*[]byte, []byte) {
	b := wire.GetScratch()
	input := append(append((*b)[:0], domainIn...), msg...)
	return b, input
}

// Eval evaluates the VRF on msg under sk, returning the pseudorandom output
// and the proof that authenticates it.
func Eval(sk sig.PrivateKey, msg []byte) (prf.Output, []byte) {
	b, input := domainInput(msg)
	proof := sig.Sign(sk, input)
	*b = input[:0]
	wire.PutScratch(b)
	return outputFromProof(proof), proof
}

// Verify checks proof against pk and msg and, if valid, returns the VRF
// output it certifies.
func Verify(pk sig.PublicKey, msg, proof []byte) (prf.Output, bool) {
	b, input := domainInput(msg)
	ok := sig.Verify(pk, input, proof)
	*b = input[:0]
	wire.PutScratch(b)
	if !ok {
		return prf.Output{}, false
	}
	return outputFromProof(proof), true
}

func outputFromProof(proof []byte) prf.Output {
	h := sha256.New()
	h.Write([]byte(domainOut))
	h.Write(proof)
	var out prf.Output
	h.Sum(out[:0])
	return out
}

// EvalBatch evaluates the VRF on one message under every key in sks,
// appending the outputs and proofs to outs and proofs (which may be nil)
// and returning the extended slices. It is semantically identical to
// calling Eval once per key; the batch form builds the domain-separated
// input once and reuses one output-hash state across the whole batch, so
// a shard's mining attempts for a common tag pay the per-message setup
// once instead of per node.
//
// Ed25519 batch verification proper (cofactored aggregation of the group
// equation) is not expressible over the standard library, which does not
// export the curve operations; EvalBatch is therefore an amortisation
// point, not aggregation.
func EvalBatch(sks []sig.PrivateKey, msg []byte, outs []prf.Output, proofs [][]byte) ([]prf.Output, [][]byte) {
	b, input := domainInput(msg)
	h := sha256.New()
	for _, sk := range sks {
		proof := sig.Sign(sk, input)
		h.Reset()
		h.Write([]byte(domainOut))
		h.Write(proof)
		var out prf.Output
		h.Sum(out[:0])
		outs = append(outs, out)
		proofs = append(proofs, proof)
	}
	*b = input[:0]
	wire.PutScratch(b)
	return outs, proofs
}
