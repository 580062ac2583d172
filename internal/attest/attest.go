package attest

import (
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Attestation binds a node identity to a proof over some externally known
// message tag.
type Attestation struct {
	ID    types.NodeID
	Proof []byte
}

// VerifyFunc checks a single attestation proof for the tag the caller has in
// scope.
type VerifyFunc func(id types.NodeID, proof []byte) bool

// VerifyAll reports whether atts carries at least threshold attestations
// from pairwise-distinct nodes, each passing verify. Extra or invalid
// attestations beyond the threshold do not invalidate the collection; the
// paper's certificates only require "at least λ/2 (resp. f+1) valid votes
// from distinct nodes".
func VerifyAll(atts []Attestation, threshold int, verify VerifyFunc) bool {
	if threshold <= 0 {
		return true
	}
	// Certificates carry at most a few dozen attestations, so duplicate
	// detection by linear scan over the already-accepted prefix beats a map
	// allocation; fall back to a map only for adversarially long lists.
	if len(atts) <= 128 {
		var seen [128]types.NodeID
		valid := 0
	scan:
		for _, a := range atts {
			for _, id := range seen[:valid] {
				if id == a.ID {
					continue scan
				}
			}
			if !verify(a.ID, a.Proof) {
				continue
			}
			seen[valid] = a.ID
			valid++
			if valid >= threshold {
				return true
			}
		}
		return false
	}
	seen := make(map[types.NodeID]struct{}, len(atts))
	valid := 0
	for _, a := range atts {
		if _, dup := seen[a.ID]; dup {
			continue
		}
		if !verify(a.ID, a.Proof) {
			continue
		}
		seen[a.ID] = struct{}{}
		valid++
		if valid >= threshold {
			return true
		}
	}
	return false
}

// Set accumulates distinct attestations for one message tag. The zero value
// is ready to use. Sets hold one attestation per committee member (a few
// dozen), so membership is a linear scan over a flat slice — cheaper and
// allocation-lighter than a map at these sizes.
//
// A set is two words, a state handle and a hit block, because a core state
// holds eight of them and a run up to n states. It operates in one of two
// modes. In owned mode (the zero value, no hit block) the handle is a
// private, mutable state the set allocates on its first Add and appends to
// in place. Bind or BindTo switches it to interned mode, where the handle
// points into a per-run Interner and every node with the same add-history
// shares one immutable state (see intern.go). The observable
// Add/Contains/Count/Reset behaviour is identical in both modes; only
// storage and the aliasing contract of Attestations differ.
type Set struct {
	h  *sharedAtts
	in *hitBlock
}

// Add records an attestation, returning true if id was new. The first proof
// recorded for an id wins.
func (s *Set) Add(id types.NodeID, proof []byte) bool {
	if s.in != nil {
		return s.addInterned(id, proof)
	}
	if s.h == nil {
		s.h = &sharedAtts{}
	}
	for i := range s.h.atts {
		if s.h.atts[i].ID == id {
			return false
		}
	}
	s.h.atts = append(s.h.atts, Attestation{ID: id, Proof: proof})
	return true
}

// Contains reports whether id has attested.
func (s *Set) Contains(id types.NodeID) bool {
	for _, a := range s.view() {
		if a.ID == id {
			return true
		}
	}
	return false
}

// Count returns the number of distinct attesters.
func (s *Set) Count() int { return len(s.view()) }

// view returns the current attestation sequence without copying, whichever
// mode the set is in.
func (s *Set) view() []Attestation {
	if s.h == nil {
		return nil
	}
	return s.h.atts
}

// Reset empties the set while keeping its backing array, so long-lived
// nodes (phase-king's per-epoch ACK tallies, core's two-slot window) can
// recycle one set per epoch or iteration instead of allocating a fresh one.
// Attestation slices previously returned by Attestations are unaffected —
// owned-mode sets return copies, interned-mode sets return immutable shared
// state.
func (s *Set) Reset() {
	if s.in != nil {
		s.resetInterned()
		return
	}
	if s.h != nil {
		s.h.atts = s.h.atts[:0]
	}
}

// Attestations returns the collected attestations in insertion order. In
// owned mode the returned slice is freshly allocated (the set keeps
// growing after certificates are cut from it); in interned mode it aliases
// the immutable shared state directly, so the n certificates honest nodes
// cut at a threshold share one backing array instead of n copies.
func (s *Set) Attestations() []Attestation {
	if s.in != nil {
		return s.h.atts
	}
	return append([]Attestation(nil), s.view()...)
}

// AttestationsSize returns the exact encoded length of a length-prefixed
// attestation list, mirroring EncodeAttestations.
func AttestationsSize(atts []Attestation) int {
	n := 4
	for _, a := range atts {
		n += 4 + wire.BytesSize(a.Proof)
	}
	return n
}

// EncodeAttestations appends a length-prefixed attestation list to dst.
func EncodeAttestations(atts []Attestation, dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U32(uint32(len(atts)))
	for _, a := range atts {
		w.NodeID(a.ID)
		w.Bytes(a.Proof)
	}
	return w.Buf
}

// DecodeAttestations reads a length-prefixed attestation list from r.
func DecodeAttestations(r *wire.Reader) []Attestation {
	n := r.U32()
	r.Expect(n <= 1<<20, "attestation list too long")
	if r.Err() != nil {
		return nil
	}
	out := make([]Attestation, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		out = append(out, Attestation{ID: r.NodeID(), Proof: r.Bytes()})
	}
	return out
}
