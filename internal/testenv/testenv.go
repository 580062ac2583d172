package testenv

import (
	"runtime"
	"testing"
)

// Procs is the sweep the equivalence tests rerun a case over: serial, one
// worker per core of a small host, and an odd and a prime split past it.
var Procs = []int{1, 2, 3, 7}

// SetGOMAXPROCS sets GOMAXPROCS to k until the test (or subtest) t ends.
// The setting is process-wide: a test that calls it must not call
// t.Parallel.
func SetGOMAXPROCS(t testing.TB, k int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(k)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
