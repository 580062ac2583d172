//go:build !(386 || arm || mips || mipsle)

package netsim

// Count is the type of the Definitions 6–7 counters in Metrics: 64 bits
// wide on every platform. Where int is 64 bits it is int, so callers that
// read the counters as ints build unchanged; on the 32-bit ports it is
// int64 (count_32bit.go), where an int counter wraps at n = 10⁵.
type Count = int
