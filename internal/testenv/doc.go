// Package testenv holds what several packages' tests share: rerunning a case
// at a chosen GOMAXPROCS, and whether the binary runs under the race
// detector. The round engine steps nodes on min(GOMAXPROCS, n) workers and
// nothing else selects that count, so "the result does not depend on the
// worker count" is tested by moving GOMAXPROCS itself. Race lets the memory
// budgets skip where -race instrumentation inflates what they measure.
//
// Architecture: DESIGN.md §5 — what the equivalence matrix sweeps.
package testenv
