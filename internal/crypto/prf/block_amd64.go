package prf

// useSHANI selects the SHA-extensions kernel. It mirrors the condition
// under which the standard library's crypto/sha256 uses the same kernel:
// AVX (with the OS saving the YMM state), SHA, SSE4.1 and SSSE3. Tests
// clear it to run the generic compression on a host that has the kernel.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	const (
		ssse3   = 1 << 9  // CPUID.1:ECX
		sse41   = 1 << 19 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		sha     = 1 << 29 // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(ssse3|sse41|osxsave|avx) != ssse3|sse41|osxsave|avx || xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&sha != 0
}

// block applies the SHA-256 compression function to each whole 64-byte
// block of p in turn.
func block(h *[8]uint32, p []byte) {
	if useSHANI {
		blockSHANI(h, p, nil, nil)
		return
	}
	blockGeneric(h, p)
}

// finish ends an HMAC-SHA256 evaluation: it compresses p, the inner
// hash's padded last one or two blocks, from the chaining value h (which
// it may overwrite), then writes the hash of the inner digest from the
// outer midstate to out.
func finish(h, outer *[8]uint32, p []byte, out *Output) {
	if useSHANI {
		blockSHANI(h, p, outer, out)
		return
	}
	finishGeneric(h, outer, p, out)
}

// blockSHANI is block on the SHA extensions. With a nil outer it writes the
// chaining value back to h; otherwise it is finish, and leaves h unchanged.
// p must hold at least one whole block when outer is not nil.
//
//go:noescape
func blockSHANI(h *[8]uint32, p []byte, outer *[8]uint32, out *Output)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
