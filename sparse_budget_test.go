package ccba

import (
	"runtime"
	"testing"

	"ccba/internal/testenv"
)

// Memory-regression pins for Sparse runs at N = 10,000
// (DESIGN.md §6). Sparse core-ideal at n=10k measures 1.63–1.65k allocs
// and 0.95–0.96 MB cumulative allocation at GOMAXPROCS 1, 2 and 4, with
// the nodes in one slab, miners handed out without allocating and no
// node's own state allocated (every node stays in its state class). It
// measured 21.5k / 3.90 MB with a 352-byte node and a boxed miner
// allocated per node, 41.5k / 5.12 MB before state classes, 8.5 MB while
// each node was 648 bytes (a private Config copy and five-word attestation
// sets), 128k / 11 MB while every mining attempt allocated its PRF output
// and every interned state a successor map, and ≈411k / ≈145 MB before
// attestation interning (non-Sparse runs with per-iteration maps, which
// interned too: 131k allocs, 16 MB). Its alloc budget sits ~13 % above
// the measurement, so an allocation per node (10k of them), per mining
// attempt or per delivery fails it; its byte budget sits ~10 % above, so
// an own state allocated per node (2.7 MB) fails it too, and its heap
// budget ~5× above. Core-real measures ≈481k allocs / ≈32 MB cumulative
// with the lean bounded verify cache (≈501k / ≈35 MB with a boxed miner
// per node and a 352-byte node), budgeted at ~2.2×: those fail on a
// reintroduced O(n)-per-round buffer, per-node attestation copies, or an
// unbounded crypto memo, not on runtime noise.

func sparse10kConfig() Config {
	cfg := Config{Protocol: Core, N: 10_000, F: 3_000, Lambda: 40, Sparse: true}
	cfg.Seed[0] = 7
	return cfg
}

func sparseReal10kConfig() Config {
	cfg := sparse10kConfig()
	cfg.Crypto = Real
	return cfg
}

// skipUnderRace skips a memory ceiling when the binary runs under the race
// detector, whose instrumentation allocates on its own: the ceilings are
// measured on a plain build, and the gomaxprocs CI job enforces them there.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if testenv.Race {
		t.Skip("memory ceilings are measured without -race; the race detector's instrumentation allocates on its own")
	}
}

func runBudgetCase(t *testing.T, cfg Config) {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
}

func TestSparseAllocBudgetN10k(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("10k-node run; skipped in -short")
	}
	cfg := sparse10kConfig()
	allocs := testing.AllocsPerRun(1, func() { runBudgetCase(t, cfg) })
	const allocBudget = 1_870
	if allocs > allocBudget {
		t.Errorf("sparse core-ideal n=10k: %.0f allocs/run, budget %d", allocs, allocBudget)
	}
}

func TestSparseHeapBudgetN10k(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("10k-node run; skipped in -short")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runBudgetCase(t, sparse10kConfig())
	// Read immediately, before collecting the run's garbage: HeapAlloc here
	// approximates the execution's high-water mark.
	runtime.ReadMemStats(&after)
	const totalBudget = 1_080 << 10 // cumulative allocation over the run
	const heapBudget = 5 << 20      // post-run heap (uncollected)
	if total := after.TotalAlloc - before.TotalAlloc; total > totalBudget {
		t.Errorf("sparse core-ideal n=10k allocated %.2f MB cumulative, budget %.2f MB", float64(total)/(1<<20), float64(totalBudget)/(1<<20))
	}
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > heapBudget {
		t.Errorf("sparse core-ideal n=10k heap grew %d MB, budget %d MB", (after.HeapAlloc-before.HeapAlloc)>>20, heapBudget>>20)
	}
}

// A real-crypto Sparse run must stay within the same order of memory as
// the ideal one: Ed25519 costs CPU, and the lean bounded verify cache plus
// proof-sized tickets may cost a few× the coin table, but nothing may
// reintroduce an O(n·rounds) or unbounded-memo term. This is the budget
// that guards the E13 real-crypto sweep's feasibility at n ≥ 10⁵.
func TestSparseRealBudgetN10k(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("10k-node real-crypto run; skipped in -short")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runBudgetCase(t, sparseReal10kConfig())
	runtime.ReadMemStats(&after)
	const allocBudget = 1_060_000
	const totalBudget = 73 << 20
	const heapBudget = 40 << 20
	if allocs := after.Mallocs - before.Mallocs; allocs > allocBudget {
		t.Errorf("sparse core-real n=10k: %d allocs/run, budget %d", allocs, allocBudget)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total > totalBudget {
		t.Errorf("sparse core-real n=10k allocated %d MB cumulative, budget %d MB", total>>20, totalBudget>>20)
	}
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > heapBudget {
		t.Errorf("sparse core-real n=10k heap grew %d MB, budget %d MB", (after.HeapAlloc-before.HeapAlloc)>>20, heapBudget>>20)
	}
}

// A Sparse run and a non-Sparse one of the same passive lockstep
// configuration run the same node state — RunCtx derives core's lockstep
// window from the delivery model, not from Sparse — so they must allocate
// within 1 % of each other (n = 2,000: 1.28–1.30k allocs / 0.286 MB either
// way at GOMAXPROCS 1, 2 and 4). What is left between them is scheduling
// noise of a few dozen allocations. Asserted at n = 2,000 to keep the
// double run cheap.
func TestSparseAllocatesLikeDense(t *testing.T) {
	measure := func(sparse bool) (allocs, bytes uint64) {
		cfg := Config{Protocol: Core, N: 2_000, F: 600, Lambda: 40, Sparse: sparse}
		cfg.Seed[0] = 7
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runBudgetCase(t, cfg)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	within := func(a, b uint64) bool { return float64(max(a, b)) <= 1.01*float64(min(a, b)) }
	denseAllocs, denseBytes := measure(false)
	sparseAllocs, sparseBytes := measure(true)
	if !within(sparseAllocs, denseAllocs) {
		t.Errorf("sparse allocs %d vs non-sparse %d: more than 1 %% apart", sparseAllocs, denseAllocs)
	}
	if !within(sparseBytes, denseBytes) {
		t.Errorf("sparse bytes %d vs non-sparse %d: more than 1 %% apart", sparseBytes, denseBytes)
	}
}
