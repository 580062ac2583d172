//go:build race

package testenv

// Race reports whether the binary was built with -race. The race detector
// instruments allocations, so the memory budgets skip under it; the
// gomaxprocs CI job enforces them on a plain build.
const Race = true
