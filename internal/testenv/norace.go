//go:build !race

package testenv

// Race reports whether the binary was built with -race (see race.go).
const Race = false
