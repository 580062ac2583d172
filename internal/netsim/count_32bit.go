//go:build 386 || arm || mips || mipsle

package netsim

// Count is int64 where int is 32 bits wide (see count.go).
type Count = int64
