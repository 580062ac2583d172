// Package testenv holds the one test helper several packages' tests share:
// rerunning a case at a chosen GOMAXPROCS. The round engine steps nodes on
// min(GOMAXPROCS, n) workers and nothing else selects that count, so "the
// result does not depend on the worker count" is tested by moving
// GOMAXPROCS itself.
//
// Architecture: DESIGN.md §5 — what the determinism suites sweep.
package testenv
