//go:build !amd64

package prf

// useSHANI is false off amd64: there is no kernel to select.
var useSHANI = false

// block applies the SHA-256 compression function to each whole 64-byte
// block of p in turn.
func block(h *[8]uint32, p []byte) { blockGeneric(h, p) }

// finish ends an HMAC-SHA256 evaluation: it compresses p, the inner
// hash's padded last one or two blocks, from the chaining value h (which
// it may overwrite), then writes the hash of the inner digest from the
// outer midstate to out.
func finish(h, outer *[8]uint32, p []byte, out *Output) { finishGeneric(h, outer, p, out) }
