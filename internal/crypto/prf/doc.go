// Package prf implements the pseudorandom function family used throughout
// the repository (the PRF building block of Appendix D.4 in the paper).
//
// The construction is HMAC-SHA256, which is a PRF under standard assumptions
// about SHA-256's compression function. Outputs are 32 bytes; helpers
// interpret a prefix of the output as a uniform 64-bit fraction, which is how
// eligibility thresholds ("ρ < D_p") are evaluated.
//
// A State holds one key's two HMAC midstates, so an evaluation costs only
// the message's own SHA-256 compressions and one more. The compression is
// the standard library's SHA-NI kernel on amd64 hosts that have the SHA
// extensions, and FIPS 180-4 in Go everywhere else.
//
// Architecture: DESIGN.md §4 — keyed coin source behind F_mine.
package prf
