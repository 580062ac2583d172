// Package fmine implements the paper's eligibility election: the F_mine
// ideal functionality of Figure 1 and its real-world instantiation via a VRF
// (the Appendix D compiler).
//
// A node "mines" a ticket for a tag (message type, iteration, bit); the
// functionality flips a memoised Bernoulli coin with a tag-dependent success
// probability, and anyone can later verify a successful attempt. The tag
// includes the *bit* being endorsed — the paper's key "vote-specific
// eligibility" insight (§3.2): seeing a node's ticket for bit b reveals
// nothing about its eligibility for 1−b, so adaptively corrupting committee
// members after they speak buys the adversary nothing.
//
// Two implementations sit behind one Suite interface:
//
//   - Ideal: F_mine exactly as Figure 1. Coins are derived lazily from a
//     hidden PRF key (equivalent to memoised fresh coins), Verify answers
//     only for attempts that were actually mined, and tickets are secret
//     until mined. One table, storing successful attempts only — a failed
//     attempt verifies false whether or not it is remembered.
//   - Real: the VRF compiler. Mining evaluates the node's VRF on the tag and
//     succeeds iff the output clears the difficulty; the proof is publicly
//     verifiable against the PKI. Verifications are memoised in one cache,
//     bounded by an iteration window (DESIGN.md §9).
//
// Architecture: DESIGN.md §4 — F_mine ideal functionality and the VRF compiler.
package fmine
