package ccba

import (
	"context"
	"runtime"
	"testing"

	"ccba/internal/cluster"
	"ccba/internal/transport"
)

// Memory-regression pin for the live cluster at the benchmark's size: core
// ideal, n=200 f=60 λ=40 over the chan transport, network construction
// included. Measured 9.30–9.52k allocs / 1.72–1.74 MB at GOMAXPROCS 1, 2 and
// 4 on two cores, with the in-process nodes sharing one attestation intern
// table, the O(n) round barrier carrying each round's multicasts as one log
// (no per-recipient mailbox push, receive or sort), one decode per
// multicast, the Report assembled once by Run and the runner's per-round
// bookkeeping bounded by the skew. The ceilings sit just above that tail and
// below what any mechanism's absence costs: per-recipient mailbox hand-off
// of every multicast ran at 11.8–11.9k allocs / 5.6–6.1 MB, private
// attestation sets per node at 17.0–18.4k allocs / 7.9–9.2 MB, an n² result
// exchange with n evaluated reports at 20.4–21.3k allocs / 12.3–13.3 MB, and
// n² sync markers through the mailboxes plus a decode per delivery at 100.9k
// allocs / 48.8 MB (each the cost on the code of its day) — so tier-1 holds
// the gain and not only bench/.
func TestClusterChanBudgetN200(t *testing.T) {
	skipUnderRace(t)
	cfg := Config{Protocol: Core, N: 200, F: 60, Lambda: 40}
	cfg.Seed[0] = 7
	const maxAllocs, maxAllocMB = 10_000, 2.0

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runClusterChan(t, cfg)
	runtime.ReadMemStats(&after)
	if !rep.Ok() {
		t.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
	allocs, total := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if allocs > maxAllocs {
		t.Errorf("%d allocs/run, ceiling %d", allocs, maxAllocs)
	}
	if mb := float64(total) / (1 << 20); mb > maxAllocMB {
		t.Errorf("%.2f MB allocated, ceiling %.1f MB", mb, maxAllocMB)
	}
}

// runClusterChan runs cfg on a fresh in-process chan network, closed
// before it returns.
func runClusterChan(t *testing.T, cfg Config) *cluster.Report {
	t.Helper()
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	rep, err := cluster.Run(context.Background(), cfg, netw, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
