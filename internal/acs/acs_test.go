package acs

import (
	"bytes"
	"testing"

	"ccba/internal/aba"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
)

func seedByte(b byte) [32]byte {
	var s [32]byte
	s[0] = b
	return s
}

func payload(i int) []byte { return []byte{0xA0, byte(i)} }

func buildNodes(n, f int, seed [32]byte) ([]netsim.AsyncNode, []*Node) {
	suite := fmine.NewIdeal(seed, aba.CoinProb)
	src := aba.NewCoinSource(seed)
	nodes := make([]netsim.AsyncNode, n)
	typed := make([]*Node, n)
	for i := 0; i < n; i++ {
		typed[i] = NewNode(Config{
			N: n, F: f, Me: types.NodeID(i),
			Input: payload(i),
			Suite: suite, Source: src, Sink: obs.Sink{},
		})
		nodes[i] = typed[i]
	}
	return nodes, typed
}

// checkACS asserts the three ACS properties over the honest (non-crashed)
// nodes: set agreement, |set| ≥ n−f, and every included payload matching
// the slot owner's real input.
func checkACS(t *testing.T, res *netsim.Result, typed []*Node, n, f int) {
	t.Helper()
	var ref []types.NodeID
	for i, nd := range typed {
		if res.Corrupt[i] {
			continue
		}
		set, ok := nd.OutputSet()
		if !ok {
			t.Fatalf("node %d has no output", i)
		}
		if len(set) < n-f {
			t.Fatalf("node %d output set size %d < n-f=%d", i, len(set), n-f)
		}
		if ref == nil {
			ref = set
		} else if len(ref) != len(set) {
			t.Fatalf("node %d set size %d != %d", i, len(set), len(ref))
		} else {
			for k := range ref {
				if ref[k] != set[k] {
					t.Fatalf("node %d set differs at %d: %d != %d", i, k, set[k], ref[k])
				}
			}
		}
		for _, j := range set {
			if !bytes.Equal(nd.Payload(j), payload(int(j))) {
				t.Fatalf("node %d slot %d payload %x != input %x", i, j, nd.Payload(j), payload(int(j)))
			}
		}
	}
	if ref == nil {
		t.Fatal("no honest node produced output")
	}
}

func TestACSAllModes(t *testing.T) {
	for _, mode := range []netsim.SchedMode{netsim.SchedFIFO, netsim.SchedRandom, netsim.SchedAdvDelay} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, n := range []int{4, 7} {
				f := (n - 1) / 3
				for s := byte(0); s < 5; s++ {
					nodes, typed := buildNodes(n, f, seedByte(s))
					rt, err := netsim.NewEventRuntime(netsim.EventConfig{N: n, F: f, Seed: seedByte(s), Sched: mode}, nodes)
					if err != nil {
						t.Fatal(err)
					}
					res := rt.Run()
					if err := netsim.CheckTermination(res); err != nil {
						t.Fatalf("n=%d seed=%d: %v", n, s, err)
					}
					if err := netsim.CheckConsistency(res); err != nil {
						t.Fatalf("n=%d seed=%d: %v", n, s, err)
					}
					checkACS(t, res, typed, n, f)
				}
			}
		})
	}
}

// TestACSWithCrashes: f crashed nodes neither block termination nor sneak
// unbacked slots into the output, and the set still reaches n−f.
func TestACSWithCrashes(t *testing.T) {
	n, f := 7, 2
	for s := byte(0); s < 5; s++ {
		crashed := make([]bool, n)
		crashed[1], crashed[4] = true, true
		nodes, typed := buildNodes(n, f, seedByte(s))
		rt, err := netsim.NewEventRuntime(netsim.EventConfig{
			N: n, F: f, Seed: seedByte(s), Sched: netsim.SchedRandom, Crashed: crashed,
		}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		if err := netsim.CheckTermination(res); err != nil {
			t.Fatalf("seed=%d: %v", s, err)
		}
		checkACS(t, res, typed, n, f)
	}
}

// TestACSFaultFreeIncludesAll: with no faults and FIFO delivery every slot's
// BRB completes, so the agreed set can (and on these seeds does) include
// slots beyond the n−f floor — the E15 set-size-vs-faults observable.
func TestACSFaultFreeIncludesAll(t *testing.T) {
	n, f := 4, 1
	nodes, typed := buildNodes(n, f, seedByte(7))
	rt, err := netsim.NewEventRuntime(netsim.EventConfig{N: n, F: f, Seed: seedByte(7), Sched: netsim.SchedFIFO}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	if err := netsim.CheckTermination(res); err != nil {
		t.Fatal(err)
	}
	checkACS(t, res, typed, n, f)
	set, _ := typed[0].OutputSet()
	if len(set) != n {
		t.Fatalf("fault-free FIFO run agreed on %d slots, want all %d", len(set), n)
	}
}

// audited runs a Node and, after every Start and Deliver, recomputes by
// scanning the n slots each tally the node keeps incrementally — the scans
// progress, tryOutput and Halted used to run on every delivery.
type audited struct {
	*Node
	t *testing.T
}

func (a audited) Start() []netsim.Send {
	out := a.Node.Start()
	a.audit()
	return out
}

func (a audited) Deliver(d netsim.Delivered) []netsim.Send {
	out := a.Node.Deliver(d)
	a.audit()
	return out
}

func (a audited) audit() {
	a.t.Helper()
	nd := a.Node
	decided, ones, awaited, halted := 0, 0, 0, 0
	for j := 0; j < nd.n; j++ {
		if b, ok := nd.abas[j].Decided(); ok {
			decided++
			if b == types.One {
				ones++
				if !nd.brbDone[j] {
					awaited++
				}
			}
		}
		if nd.abas[j].Halted() {
			halted++
		}
		if nd.abas[j].Started() != nd.started[j] {
			a.t.Fatalf("node %d slot %d: started flag %v, ABA says %v", nd.me, j, nd.started[j], nd.abas[j].Started())
		}
		// Every enabled start has been taken by the time a call returns.
		if nd.brbDone[j] && !nd.started[j] && !nd.filledZeros {
			a.t.Fatalf("node %d slot %d: BRB delivered but its ABA was left idle", nd.me, j)
		}
	}
	if nd.decided != decided || nd.ones != ones || nd.awaited != awaited || nd.halted != halted {
		a.t.Fatalf("node %d tallies decided=%d ones=%d awaited=%d halted=%d, scans say %d %d %d %d",
			nd.me, nd.decided, nd.ones, nd.awaited, nd.halted, decided, ones, awaited, halted)
	}
	if want := ones >= nd.n-nd.f; nd.filledZeros != want {
		a.t.Fatalf("node %d: filledZeros=%v with %d one-decisions of n-f=%d", nd.me, nd.filledZeros, ones, nd.n-nd.f)
	}
	if want := decided == nd.n && awaited == 0; nd.outputDone != want {
		a.t.Fatalf("node %d: outputDone=%v with %d/%d decided, %d payloads awaited", nd.me, nd.outputDone, decided, nd.n, awaited)
	}
	if want := nd.outputDone && halted == nd.n; nd.Halted() != want {
		a.t.Fatalf("node %d: Halted()=%v with output=%v and %d/%d ABAs halted", nd.me, nd.Halted(), nd.outputDone, halted, nd.n)
	}
}

// TestTalliesMatchScans audits whole executions — every scheduler, with and
// without a crash set — so the tallies are checked against their scans on
// pre-input ABA traffic, late BRB deliveries and the zero-fill alike. The
// send order the composition rules must keep is pinned one level up, by the
// ACS cases of the async determinism goldens.
func TestTalliesMatchScans(t *testing.T) {
	for _, mode := range []netsim.SchedMode{netsim.SchedFIFO, netsim.SchedRandom, netsim.SchedAdvDelay} {
		for _, crashes := range []int{0, 3} {
			for s := byte(0); s < 4; s++ {
				n, f := 10, 3
				nodes, typed := buildNodes(n, f, seedByte(s))
				for i := range nodes {
					nodes[i] = audited{typed[i], t}
				}
				var crashed []bool
				if crashes > 0 {
					crashed = make([]bool, n)
					for _, id := range []int{2, 5, 9}[:crashes] {
						crashed[id] = true
					}
				}
				rt, err := netsim.NewEventRuntime(netsim.EventConfig{N: n, F: f, Seed: seedByte(s), Sched: mode, Crashed: crashed}, nodes)
				if err != nil {
					t.Fatal(err)
				}
				res := rt.Run()
				if err := netsim.CheckTermination(res); err != nil {
					t.Fatalf("mode %s crashes=%d seed=%d: %v", mode, crashes, s, err)
				}
				checkACS(t, res, typed, n, f)
			}
		}
	}
}
