// Package cli is the one command surface cmd/ba and cmd/cluster share: the
// run flags both declare (protocol, sizes, crypto, inputs, seed, -json,
// -trace, -scenario), the one rule that merges a -scenario base with the
// flags actually passed, the scenario listing, and the single-run report —
// one -json document type and one text layout — so the two commands'
// outputs diff clean for the same seed and configuration.
//
// Each flag is bound onto the Config field it sets, so a flag cannot be
// declared and then forgotten under -scenario: the merge is a second parse
// of the same arguments onto the scenario's Config.
//
// Architecture: DESIGN.md §12 — one command surface.
package cli
