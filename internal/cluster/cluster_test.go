package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/broadcast"
	"ccba/internal/netsim"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// runChan executes cfg on a fresh in-process network.
func runChan(t *testing.T, cfg scenario.Config, opts Options) *Report {
	t.Helper()
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	rep, err := Run(context.Background(), cfg, netw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertSameResult requires a live report to be the simulator's: the same
// Result, field for field, and the same checker verdicts.
func assertSameResult(t *testing.T, live *Report, sim *scenario.Report) {
	t.Helper()
	if !reflect.DeepEqual(live.Result, sim.Result) {
		t.Errorf("Result: live %+v\nvs lockstep %+v", live.Result, sim.Result)
	}
	if (live.Consistency == nil) != (sim.Consistency == nil) ||
		(live.Validity == nil) != (sim.Validity == nil) ||
		(live.Termination == nil) != (sim.Termination == nil) {
		t.Errorf("checker outcomes: live (%v,%v,%v) vs lockstep (%v,%v,%v)",
			live.Consistency, live.Validity, live.Termination,
			sim.Consistency, sim.Validity, sim.Termination)
	}
}

// TestSynchronizerTorture runs many seeds of a mid-size cluster — 64 nodes,
// 50 trials, goroutine scheduling left to the runtime (and the race
// detector, under -race) — and checks every trial agrees with the lockstep
// engine bit for bit. Any ordering leak in the round synchronizer (a
// delivery that slips a round, a mis-sorted inbox) shows up as a divergence
// here long before it would corrupt a golden.
func TestSynchronizerTorture(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 8
	}
	base := scenario.Config{Protocol: scenario.Core, N: 64, F: 19, Lambda: 14}
	for trial := 0; trial < trials; trial++ {
		cfg := base
		cfg.Seed[0] = byte(trial)
		cfg.Seed[1] = byte(trial >> 8)
		cfg.Seed[2] = 0x5a
		sim, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := runChan(t, cfg, Options{})
		if t.Failed() {
			t.Fatalf("trial %d diverged", trial)
		}
		assertSameResult(t, live, sim)
		if t.Failed() {
			t.Fatalf("trial %d diverged", trial)
		}
	}
}

// TestRunNodeMultiEndpoint drives each node through RunNode over its own
// TCP endpoint — the multi-process deployment shape, minus the processes —
// and checks every node assembles the same, correct report.
func TestRunNodeMultiEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Real crypto: each RunNode call rebuilds the suite from the seed, and
	// only the Appendix D compiler's VRF tickets verify across instances —
	// the hybrid world's trusted party cannot be split across processes.
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3, Crypto: scenario.Real}
	cfg.Seed[0] = 9

	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()

	reports := make([]*Report, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for i, ep := range netw.Endpoints() {
		wg.Add(1)
		go func(i int, ep transport.Transport) {
			defer wg.Done()
			reports[i], errs[i] = RunNode(ctx, cfg, ep, Options{RoundTimeout: 30 * time.Second})
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, rep := range reports {
		if !rep.Ok() {
			t.Fatalf("node %d saw violations: %v %v %v", i, rep.Consistency, rep.Validity, rep.Termination)
		}
		if rep.Rounds != reports[0].Rounds || rep.Result.Metrics != reports[0].Result.Metrics {
			t.Fatalf("node %d assembled a different report: %+v vs %+v", i, rep.Result, reports[0].Result)
		}
		for j := range rep.Outputs {
			if rep.Outputs[j] != reports[0].Outputs[j] {
				t.Fatalf("node %d and node 0 disagree on node %d's output", i, j)
			}
		}
	}
}

func TestClusterRejectsSimulatorOnlyConfigs(t *testing.T) {
	netw, err := transport.NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	base := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3}

	withAdv := base
	withAdv.Adversary = netsim.Passive{}
	if _, err := Run(context.Background(), withAdv, netw, Options{}); err == nil ||
		!strings.Contains(err.Error(), "adversary") {
		t.Fatalf("adversary config: %v", err)
	}

	// An async protocol and Sparse are refused in the runtime's own words,
	// with one package prefix.
	async := scenario.Config{Protocol: scenario.ABA, N: 4, F: 1}
	if _, err := Run(context.Background(), async, netw, Options{}); err == nil ||
		err.Error() != `cluster: protocol "aba" runs on the asynchronous track; live runs execute the synchronous track only (run this config through ccba.Run instead)` {
		t.Fatalf("async config: %v", err)
	}
	sparse := base
	sparse.Sparse = true
	if _, err := Run(context.Background(), sparse, netw, Options{}); err == nil ||
		!strings.HasPrefix(err.Error(), "cluster: Sparse ") {
		t.Fatalf("sparse config: %v", err)
	}

	small, err := transport.NewChanNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if _, err := Run(context.Background(), base, small, Options{}); err == nil ||
		!strings.Contains(err.Error(), "endpoints") {
		t.Fatalf("size mismatch: %v", err)
	}
}

// TestRunNodeRejectsHybridWorld: the F_mine trusted party cannot be split
// across processes, so per-process execution of an ideal-crypto committee
// protocol must fail loudly instead of stalling to the round budget.
func TestRunNodeRejectsHybridWorld(t *testing.T) {
	netw, err := transport.NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3}
	_, err = RunNode(context.Background(), cfg, netw.Endpoints()[0], Options{})
	if err == nil || !strings.Contains(err.Error(), "trusted party") {
		t.Fatalf("RunNode with ideal core: %v", err)
	}
	// Protocols without an F_mine suite replicate fine: quadratic's leader
	// oracle and PKI are deterministic in the seed.
	if err := func() error {
		qn, err := transport.NewChanNetwork(3)
		if err != nil {
			return err
		}
		defer qn.Close()
		qcfg := scenario.Config{Protocol: scenario.Quadratic, N: 3, F: 1}
		reports := make([]*Report, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i, ep := range qn.Endpoints() {
			wg.Add(1)
			go func(i int, ep transport.Transport) {
				defer wg.Done()
				reports[i], errs[i] = RunNode(context.Background(), qcfg, ep, Options{})
			}(i, ep)
		}
		wg.Wait()
		for i := range errs {
			if errs[i] != nil {
				return errs[i]
			}
			if !reports[i].Ok() {
				return fmt.Errorf("node %d violations: %v %v %v", i,
					reports[i].Consistency, reports[i].Validity, reports[i].Termination)
			}
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCancellation(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 5, Lambda: 6}
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg, netw, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: %v", err)
	}
}

// stubbornNode never decides: it multicasts the same message each round and
// never halts, driving the cluster into its round-budget path.
type stubbornNode struct{}

func (stubbornNode) Step(int, []netsim.Delivered) []netsim.Send {
	return []netsim.Send{netsim.Multicast(broadcast.InputMsg{B: types.Zero})}
}
func (stubbornNode) Output() (types.Bit, bool) { return types.NoBit, false }
func (stubbornNode) Halted() bool              { return false }

const stubbornProtocol = scenario.Protocol("cluster-test-stubborn")

func init() {
	scenario.RegisterProtocol(stubbornProtocol, func(cfg scenario.Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		nodes := make([]netsim.Node, cfg.N)
		for i := range nodes {
			nodes[i] = stubbornNode{}
		}
		return nodes, nil, 4, nil
	})
	scenario.RegisterDecoder(stubbornProtocol, broadcast.Decode)
}

// TestRoundBudgetExhaustion: when no node ever halts, the cluster must stop
// at the derived budget with the same termination violation and metrics the
// simulator reports.
func TestRoundBudgetExhaustion(t *testing.T) {
	cfg := scenario.Config{Protocol: stubbornProtocol, N: 5, F: 1}
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Termination == nil {
		t.Fatal("simulator terminated a stubborn protocol")
	}
	live := runChan(t, cfg, Options{})
	assertSameResult(t, live, sim)
	if live.Rounds != 4 {
		t.Fatalf("rounds = %d, want the 4-step budget", live.Rounds)
	}
}
