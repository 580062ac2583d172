package netsim

import (
	"errors"
	"reflect"
	"testing"

	"ccba/internal/testenv"
	"ccba/internal/types"
)

// The tests in this file pin what Config.Sparse means now that there is one
// engine (DESIGN.md §6): an assertion that selects nothing. On every
// configuration it accepts, deliveries (content and order), metrics, round
// counts, and outputs are those of the same run without it, at every
// GOMAXPROCS; everything else is rejected at construction.

// runScriptSparse mirrors runScript with the assertion set.
func runScriptSparse(t *testing.T, n int, scripts map[int][]Send) ([]*scriptNode, *Result) {
	t.Helper()
	nodes := make([]Node, n)
	sn := make([]*scriptNode, n)
	for i := range nodes {
		sn[i] = &scriptNode{script: scripts[i], rounds: 1}
		nodes[i] = sn[i]
	}
	rt, err := NewRuntime(Config{N: n, F: 2, MaxRounds: 5, Sparse: true}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sn, rt.Run()
}

// With and without Sparse, at every GOMAXPROCS, per-recipient delivery
// sequences are identical for a hostile mix of multicasts, unicasts
// (including to self and to out-of-range recipients), interleaved across
// senders — the exact envelope-order merge semantics inbox documents.
func TestSparseMatchesDenseDelivery(t *testing.T) {
	const n = 5
	scripts := map[int][]Send{
		0: {
			Multicast(markMsg{Tag: 10}),
			Unicast(2, markMsg{Tag: 11}),
			Multicast(markMsg{Tag: 12}),
		},
		1: {
			Unicast(1, markMsg{Tag: 20}),  // self-unicast
			Unicast(17, markMsg{Tag: 21}), // out of range: dropped, still counted
			Unicast(types.NodeID(-3), markMsg{Tag: 22}),
		},
		3: {
			Unicast(2, markMsg{Tag: 30}),
			Multicast(markMsg{Tag: 31}),
		},
	}
	testenv.SetGOMAXPROCS(t, 1)
	dense, denseRes := runScript(t, n, scripts, nil)
	for _, procs := range testenv.Procs {
		testenv.SetGOMAXPROCS(t, procs)
		sparse, sparseRes := runScriptSparse(t, n, scripts)
		for i := 0; i < n; i++ {
			if d, s := tags(dense[i].got), tags(sparse[i].got); !equalU32(d, s) {
				t.Errorf("GOMAXPROCS=%d node %d: dense delivered %v, sparse delivered %v", procs, i, d, s)
			}
		}
		if denseRes.Metrics != sparseRes.Metrics {
			t.Errorf("GOMAXPROCS=%d metrics: dense %+v, sparse %+v", procs, denseRes.Metrics, sparseRes.Metrics)
		}
		if denseRes.Rounds != sparseRes.Rounds {
			t.Errorf("GOMAXPROCS=%d rounds: dense %d, sparse %d", procs, denseRes.Rounds, sparseRes.Rounds)
		}
	}
}

// A multi-round protocol (every node multicasting every round, then
// deciding) must give the same Result with and without Sparse, at every
// GOMAXPROCS.
func TestSparseMatchesDenseMultiRound(t *testing.T) {
	input := func(i int) types.Bit { return types.BitFromBool(i%3 != 0) }
	run := func(sparse bool, procs int) *Result {
		testenv.SetGOMAXPROCS(t, procs)
		rt, err := NewRuntime(Config{N: 40, F: 5, MaxRounds: 20, Sparse: sparse}, echoNodes(40, 4, input), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run()
	}
	d := run(false, 1)
	// Every node multicasts once per round until it halts in round 4.
	if d.Rounds != 5 || d.Metrics.HonestMulticasts != 160 {
		t.Fatalf("dense run: %d rounds, %d multicasts; want 5 and 160", d.Rounds, d.Metrics.HonestMulticasts)
	}
	for _, procs := range testenv.Procs {
		if s := run(true, procs); !reflect.DeepEqual(d, s) {
			t.Fatalf("GOMAXPROCS=%d: dense %+v, sparse %+v", procs, d, s)
		}
	}
}

// Sparse asserts the regime in which the engine holds no n-sized state;
// everything else must be rejected at construction with the specific error.
func TestSparseRejections(t *testing.T) {
	nodes := func() []Node { return echoNodes(4, 2, allZero) }
	cases := []struct {
		name string
		cfg  Config
		adv  Adversary
		want error
	}{
		{"worst-case net", Config{N: 4, F: 1, Sparse: true, Net: Faults{Delta: 2, Spread: SpreadHold}}, nil, ErrSparseNet},
		{"adversary", Config{N: 4, F: 1, Sparse: true}, &lateStatic{}, ErrSparseAdversary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRuntime(tc.cfg, nodes(), tc.adv)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	// The explicit DeltaOne model and a nil adversary are the accepted
	// regime.
	if _, err := NewRuntime(Config{N: 4, F: 1, Sparse: true, Net: DeltaOne()}, nodes(), Passive{}); err != nil {
		t.Fatalf("explicit delta-one + passive rejected: %v", err)
	}
}
