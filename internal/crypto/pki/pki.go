package pki

import (
	"fmt"
	"runtime"
	"sync"

	"ccba/internal/crypto/commit"
	"ccba/internal/crypto/prf"
	"ccba/internal/crypto/sig"
	"ccba/internal/types"
)

// Public is the published PKI: every node's public keys and PRF-key
// commitment. It is common knowledge, including to the adversary.
type Public struct {
	sigPKs   []sig.PublicKey
	vrfPKs   []sig.PublicKey
	prfComms []commit.Commitment
}

// Secret is one node's private setup output. The adversary obtains a node's
// Secret upon corrupting it.
type Secret struct {
	ID      types.NodeID
	SigSK   sig.PrivateKey
	VrfSK   sig.PrivateKey
	PRFKey  prf.Key
	PRFOpen commit.Randomness
}

// parallelSetupThreshold is the node count below which Setup stays serial:
// goroutine setup costs more than it saves on tiny instances, and the unit
// tests exercise both branches around it.
const parallelSetupThreshold = 512

// Setup runs the trusted setup for n nodes, deterministically from seed so
// simulated deployments are reproducible. It returns the published PKI and
// each node's secret.
//
// Each node's material is derived independently from the master key, so
// large setups are generated on all cores in contiguous index chunks —
// every index computes the identical keys regardless of which worker
// derives it, keeping the published PKI bit-identical to the serial
// schedule. At n = 10⁵ real-crypto scale the four PRF evaluations and two
// Ed25519 expansions per node make serial setup a noticeable fraction of
// total run time; chunked derivation removes it from the critical path.
func Setup(n int, seed [32]byte) (*Public, []Secret) {
	if n <= 0 {
		panic(fmt.Sprintf("pki: invalid node count %d", n))
	}
	master := prf.NewState(prf.Key(seed))
	pub := &Public{
		sigPKs:   make([]sig.PublicKey, n),
		vrfPKs:   make([]sig.PublicKey, n),
		prfComms: make([]commit.Commitment, n),
	}
	secrets := make([]Secret, n)
	derive := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			label := fmt.Sprintf("node/%d", i)
			sigSeed := master.Eval([]byte("sig/" + label))
			vrfSeed := master.Eval([]byte("vrf/" + label))
			prfKey := prf.Key(master.Eval([]byte("prf/" + label)))
			openSeed := master.Eval([]byte("open/" + label))

			_, sigSK := sig.KeyFromSeed([32]byte(sigSeed))
			_, vrfSK := sig.KeyFromSeed([32]byte(vrfSeed))
			open := commit.Randomness(openSeed)

			secrets[i] = Secret{
				ID:      types.NodeID(i),
				SigSK:   sigSK,
				VrfSK:   vrfSK,
				PRFKey:  prfKey,
				PRFOpen: open,
			}
			pub.sigPKs[i] = sigSK.Public().(sig.PublicKey)
			pub.vrfPKs[i] = vrfSK.Public().(sig.PublicKey)
			pub.prfComms[i] = commit.Commit(prfKey[:], open)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if n < parallelSetupThreshold || workers < 2 {
		derive(0, n)
		return pub, secrets
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			derive(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return pub, secrets
}

// N returns the number of registered nodes.
func (p *Public) N() int { return len(p.sigPKs) }

func (p *Public) valid(id types.NodeID) bool {
	return id >= 0 && int(id) < len(p.sigPKs)
}

// SigKey returns node id's signing public key, or nil if id is unknown.
func (p *Public) SigKey(id types.NodeID) sig.PublicKey {
	if !p.valid(id) {
		return nil
	}
	return p.sigPKs[id]
}

// VRFKey returns node id's VRF public key, or nil if id is unknown.
func (p *Public) VRFKey(id types.NodeID) sig.PublicKey {
	if !p.valid(id) {
		return nil
	}
	return p.vrfPKs[id]
}

// PRFCommitment returns the published commitment to node id's PRF key.
func (p *Public) PRFCommitment(id types.NodeID) (commit.Commitment, bool) {
	if !p.valid(id) {
		return commit.Commitment{}, false
	}
	return p.prfComms[id], true
}

// VerifySecret checks that a node secret is consistent with the published
// PKI. It is used by tests and by the adversary when it corrupts a node.
func (p *Public) VerifySecret(s Secret) bool {
	if !p.valid(s.ID) {
		return false
	}
	c := p.prfComms[s.ID]
	return commit.Verify(c, s.PRFKey[:], s.PRFOpen)
}
