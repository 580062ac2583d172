// Package experiments regenerates every table-equivalent in the paper's
// evaluation — one generator per experiment in DESIGN.md §3 (E1–E15), each
// mapping a theorem, lemma, or remark to a measured table. The generators
// return structured results for programmatic assertions plus a rendered
// text table; cmd/experiments prints them and bench_test.go wraps them as
// benchmarks.
//
// Every protocol execution resolves through the internal/scenario registry:
// generators declare scenario values (protocol × N/F/λ × adversary ×
// network model × inputs) and run them on the harness worker pool, so a new
// setting is one declaration, not a hand-wired construction.
//
// Architecture: DESIGN.md §3 — E1–E15 table generators.
package experiments
