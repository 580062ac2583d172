package ccba

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"path"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ccba/internal/cluster"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/testenv"
	"ccba/internal/transport"
	"ccba/internal/wire"
)

// TestEquivalenceMatrix is the one place the repository runs a config two
// ways and compares the results. A row is one fixed-seed config, and its
// reference is Run at GOMAXPROCS 1, untraced. A column is another way to
// execute it: more stepping workers, Sparse, a tracer, the unscreened
// keep-all node set, the live chan cluster with and without scheduling
// lag, and loopback TCP. Every cell requires of its run
//
//   - the reference's Result (outputs, decided, halted, corrupt,
//     omission-faulty, rounds, Metrics) and checker verdicts;
//   - the row's canonical trace digest, which the traced column's run
//     (GOMAXPROCS 1) sets;
//   - every node's own Definitions 6–7 counts wherever the column sees
//     them: equal to the first such column's, and summing to Metrics.
//
// A row may sweep more seeds: each extra seed is a subtest seed-k that
// holds every column to that seed's own reference, as the row's seed is.
// The sweeps sit on the rows where a live run is likeliest to drift from
// the simulator: drops and a crash window at Δ = 1, the chaos menu at
// Δ = 2, and the rows whose chan-lag cells shake the round barrier. This
// is the only place a live run is compared with the simulator.
//
// A column skips a row only for a reason its SKIP line states: its runtime
// refuses the row (the run must then fail), the row is past the column's
// size limit, or -short picked another column of the same family or
// another of the row's extra seeds. A row the simulator refuses — a
// delay-only model at Δ = 1 — must be refused by every column in the
// simulator's words, except Sparse, which refuses every non-lockstep row
// first.
func TestEquivalenceMatrix(t *testing.T) {
	for _, g := range equivGroups() {
		t.Run(g.name, func(t *testing.T) {
			for _, row := range g.rows {
				t.Run(row.name, func(t *testing.T) { row.check(t) })
			}
		})
	}
	t.Run("cross-row", equivCrossRow)
}

// The fixed-seed goldens pin the observable behaviour of three executions:
// a hash of every node's (output, decided) pair, the round count, and all
// four Definitions 6–7 counters, captured from the seed tree's round engine
// (commit 3c34f38). The matrix asserts them on each row's reference run,
// and traceGoldenDigest — the canonical JSONL trace of core-ideal-n80
// (DESIGN.md §10) — on its traced run; every other column then reproduces
// both byte for byte, which is what makes cmd/tracediff's line-by-line
// alignment sound.
type goldenCase struct {
	name    string
	cfg     Config
	outputs string // first 16 hex chars of sha256 over (outputs, decided)
	rounds  int
	metrics Metrics
	trace   string // canonical trace digest, "" where none is pinned
}

var goldenCases = []goldenCase{
	{"core-ideal-n80", Config{Protocol: Core, N: 80, F: 24, Lambda: 16, Crypto: Ideal}, "4d30e1f10fb6597b", 11,
		Metrics{HonestMulticasts: 101, HonestMulticastBytes: 34613, HonestMessages: 8080, HonestMessageBytes: 2769040}, traceGoldenDigest},
	{"core-real-n40", Config{Protocol: Core, N: 40, F: 12, Lambda: 12, Crypto: Real}, "fb8e69bdfa2ad15b", 7,
		Metrics{HonestMulticasts: 53, HonestMulticastBytes: 16134, HonestMessages: 2120, HonestMessageBytes: 645360}, ""},
	{"quadratic-n31", Config{Protocol: Quadratic, N: 31, F: 15}, "332810fe8e8b97f1", 7,
		Metrics{HonestMulticasts: 156, HonestMulticastBytes: 152019, HonestMessages: 4836, HonestMessageBytes: 4712589}, ""},
}

const traceGoldenDigest = "7dbfcf95599988a9"

func outputsDigest(rep *Report) string {
	h := sha256.New()
	for _, b := range rep.Outputs {
		h.Write([]byte{byte(b)})
	}
	for _, d := range rep.Decided {
		v := byte(0)
		if d {
			v = 1
		}
		h.Write([]byte{v})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// netBase is the n = 24 core config the network-model rows run.
var netBase = Config{Protocol: Core, N: 24, F: 7, Lambda: 8, MaxIters: 12}

// netModelCases declares every network model the matrix runs: the classic
// models, and the chaos composite's faults alone and together. delta-one
// runs at Δ = 1 only. The models that only delay — delta, jitter and
// partition — hold nothing at Δ = 1, and neither does a chaos partition,
// so those rows are refused everywhere.
var netModelCases = []struct {
	name string
	set  func(*Config)
}{
	{"delta", func(c *Config) { c.Net = NetWorstCase }},
	{"jitter", func(c *Config) { c.Net = NetJitter }},
	{"omission", func(c *Config) { c.Net, c.OmissionRate = NetOmission, 0.25 }},
	{"partition", func(c *Config) { c.Net = NetPartition }},
	{"chaos-drop", func(c *Config) { c.Net, c.OmissionRate = NetChaos, 0.3 }},
	{"chaos-crash", func(c *Config) { c.Net, c.CrashFrom, c.CrashRounds = NetChaos, 1, 3 }},
	{"chaos-drop-crash", func(c *Config) { c.Net, c.OmissionRate, c.CrashFrom, c.CrashRounds = NetChaos, 0.3, 1, 3 }},
	{"chaos-all", func(c *Config) {
		c.Net, c.OmissionRate, c.CrashFrom, c.CrashRounds, c.PartitionRounds = NetChaos, 0.3, 1, 3, 4
	}},
}

// equivRow is one fixed-seed config of the matrix. The scenario is
// resolved afresh for every run: adversaries are stateful.
type equivRow struct {
	name string
	sc   Scenario
	seed [32]byte
	// seeds is how many extra seeds the row sweeps: seed k is the row's
	// seed with its last byte set to k.
	seeds  int
	golden *goldenCase
	// fact is what the reference must show beyond the goldens, or nil.
	fact func(t *testing.T, ref *Report)
}

type equivGroup struct {
	name string
	rows []equivRow
}

func seedByte(b byte) (s [32]byte) {
	s[0] = b
	return s
}

func equivGroups() []equivGroup {
	// Every registered synchronous scenario up to n = 10⁴: core-sparse-n100k
	// alone would take most of the matrix's time.
	var scenarios []equivRow
	for _, name := range ScenarioNames() {
		sc, _ := LookupScenario(name)
		if !sc.Config.Protocol.Async() && sc.Config.N <= 10_000 {
			scenarios = append(scenarios, equivRow{name: name, sc: sc, seed: seedByte(7)})
		}
	}

	var goldens []equivRow
	for i := range goldenCases {
		g := &goldenCases[i]
		goldens = append(goldens, equivRow{name: g.name, sc: Scenario{Config: g.cfg}, seed: seedByte(7), golden: g})
	}

	// Protocols and crypto modes no registered scenario runs passively.
	protocols := []equivRow{
		{name: "core-real-n48", sc: Scenario{Config: Config{Protocol: Core, N: 48, F: 14, Lambda: 12, Crypto: Real}}, seed: seedByte(11)},
		{name: "core-broadcast-n60", sc: Scenario{Config: Config{Protocol: CoreBroadcast, N: 60, F: 18, Lambda: 14, SenderInput: One}}, seed: seedByte(11)},
		{name: "core-broadcast-n200", sc: Scenario{Config: Config{Protocol: CoreBroadcast, N: 200, F: 60, Lambda: 40, Sender: 3, SenderInput: One}}, seed: seedByte(7)},
		{name: "phaseking-plain-n30", sc: Scenario{Config: Config{Protocol: PhaseKingPlain, N: 30, F: 9, Epochs: 8}}, seed: seedByte(11)},
		{name: "chenmicali-n60", sc: Scenario{Config: Config{Protocol: ChenMicali, N: 60, F: 20, Lambda: 24, Epochs: 6}}, seed: seedByte(11)},
	}

	sweeps := map[string]int{
		"delta-one": 9, "jitter-delta2": 9, "jitter-delta3": 9,
		"chaos-drop-delta1": 10, "chaos-crash-delta1": 5, "chaos-all-delta2": 5,
	}
	nets := []equivRow{{name: "delta-one", sc: Scenario{Config: netBase}, seed: seedByte(9), seeds: sweeps["delta-one"]}}
	for _, m := range netModelCases {
		for delta := 1; delta <= 3; delta++ {
			cfg := netBase
			m.set(&cfg)
			if delta > 1 {
				cfg.Delta = delta
			}
			name := fmt.Sprintf("%s-delta%d", m.name, delta)
			nets = append(nets, equivRow{name: name, sc: Scenario{Config: cfg}, seed: seedByte(9), seeds: sweeps[name]})
		}
	}
	// Meshes small enough for the TCP column: lockstep, and every chaos fault.
	nets = append(nets,
		equivRow{name: "delta-one-n4", seed: seedByte(7), sc: Scenario{Config: Config{Protocol: Core, N: 4, F: 1, Lambda: 3}}, fact: holds},
		equivRow{name: "chaos-all-n4-delta2", seed: seedByte(7), sc: Scenario{Config: Config{
			Protocol: Core, N: 4, F: 1, Lambda: 3, MaxIters: 12,
			Net: NetChaos, Delta: 2, OmissionRate: 0.4, CrashFrom: 1, CrashRounds: 2, PartitionRounds: 3,
		}}})

	// E12's counterexample to "safety holds under every legal schedule":
	// with nobody corrupted, core at n = 10 loses consistency under a Δ = 3
	// partition for seed 1131 (ba -n 10 -f 3 -lambda 6 -net partition
	// -delta 3 -seed 1131). Delays past one round leave the model the paper
	// proves safety in, and every runtime must reproduce the violation.
	e12 := equivRow{name: "partition-n10-delta3-seed1131", sc: Scenario{Config: Config{
		Protocol: Core, N: 10, F: 3, Lambda: 6, Net: NetPartition, Delta: 3,
	}}, fact: func(t *testing.T, ref *Report) {
		if ref.NumCorrupt() != 0 || ref.Consistency == nil || ref.Validity != nil {
			t.Errorf("%d corrupted, consistency=%v validity=%v; want a consistency violation with nobody corrupted",
				ref.NumCorrupt(), ref.Consistency, ref.Validity)
		}
	}}
	binary.LittleEndian.PutUint64(e12.seed[:8], 1131)

	return []equivGroup{
		{"scenario", scenarios},
		{"golden", goldens},
		{"protocol", protocols},
		{"net", nets},
		{"e12", []equivRow{e12}},
	}
}

// holds requires the paper's three properties of the reference.
func holds(t *testing.T, ref *Report) {
	if !ref.Ok() {
		t.Errorf("violation: consistency=%v validity=%v termination=%v", ref.Consistency, ref.Validity, ref.Termination)
	}
}

// config resolves the row for one run.
func (row equivRow) config(t *testing.T) Config {
	t.Helper()
	cfg, err := row.sc.Resolve(row.seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// equivCell is what one run showed.
type equivCell struct {
	rep     *Report
	trace   string    // canonical trace digest
	perNode []Metrics // each node's own counts; nil where the run cannot see them
}

// equivColumn is one way to execute a row.
type equivColumn struct {
	name string
	// limit says why the column does not run this row at all, or "".
	limit func(t *testing.T, cfg Config) string
	// refuses reports whether the column's runtime refuses configs like
	// cfg by design; the run must then fail.
	refuses func(cfg Config) bool
	// run executes cfg traced into rec.
	run func(t *testing.T, cfg Config, rec *obs.Recorder) (equivCell, error)
}

var equivColumns = []equivColumn{
	sharded(testenv.Procs[1]), sharded(testenv.Procs[2]), sharded(testenv.Procs[3]),
	sparse(1), sparse(4),
	{name: "keep-all", limit: shortPick("keep-all", "keep-all", "chan"), run: runKeepAll},
	chanColumn("chan", 0),
	chanColumn("chan-lag", time.Millisecond),
	{
		name: "tcp",
		limit: func(_ *testing.T, cfg Config) string {
			if cfg.N > 16 {
				return fmt.Sprintf("loopback TCP runs rows with N ≤ 16, this one has N = %d", cfg.N)
			}
			return ""
		},
		refuses: liveRefuses,
		run: func(t *testing.T, cfg Config, rec *obs.Recorder) (equivCell, error) {
			if err := cluster.Check(cfg, false); err != nil {
				return equivCell{}, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer netw.Close()
			return runLive(t, ctx, cfg, netw, cluster.Options{RoundTimeout: 30 * time.Second}, rec)
		},
	},
}

// sharded steps the nodes on procs workers.
func sharded(procs int) equivColumn {
	var family []string
	for _, p := range testenv.Procs[1:] {
		family = append(family, fmt.Sprintf("sharded-p%d", p))
	}
	name := fmt.Sprintf("sharded-p%d", procs)
	return equivColumn{
		name:  name,
		limit: shortPick(name, family...),
		run: func(t *testing.T, cfg Config, rec *obs.Recorder) (equivCell, error) {
			return runSim(t, cfg, procs, rec)
		},
	}
}

// shortPick limits column member under -short: a row runs only the member
// of family that a hash of the row's name picks, so every member still
// runs on some rows.
func shortPick(member string, family ...string) func(t *testing.T, cfg Config) string {
	return func(t *testing.T, _ Config) string {
		if !testing.Short() {
			return ""
		}
		h := fnv.New32a()
		h.Write([]byte(path.Dir(t.Name())))
		if pick := family[h.Sum32()%uint32(len(family))]; pick != member {
			return fmt.Sprintf("-short runs %s of %v on this row", pick, family)
		}
		return ""
	}
}

// sparse runs under Config.Sparse on workers stepping workers. Sparse
// asserts the delta-one, passive regime and refuses every other row.
func sparse(workers int) equivColumn {
	return equivColumn{
		name:  fmt.Sprintf("sparse-w%d", workers),
		limit: shortPick(fmt.Sprintf("sparse-w%d", workers), "sparse-w1", "sparse-w4"),
		refuses: func(cfg Config) bool {
			return cfg.Adversary != nil || (cfg.Net != "" && cfg.Net != NetDeltaOne)
		},
		run: func(t *testing.T, cfg Config, rec *obs.Recorder) (equivCell, error) {
			cfg.Sparse = true
			c, err := runSim(t, cfg, workers, rec)
			if err == nil && c.rep.Intern == nil {
				t.Error("a Sparse run reported no intern statistics")
			}
			return c, err
		},
	}
}

// chanColumn runs the live cluster over in-process channels. With maxLag
// set, every node pauses a seed-random time below it before each multicast
// (laggedNetwork); that column sleeps, so it runs without -short only.
func chanColumn(name string, maxLag time.Duration) equivColumn {
	limit := shortPick(name, "keep-all", "chan")
	if maxLag > 0 {
		limit = func(*testing.T, Config) string {
			if testing.Short() {
				return "the lagged chan cluster sleeps; it runs without -short"
			}
			return ""
		}
	}
	return equivColumn{
		name:    name,
		limit:   limit,
		refuses: liveRefuses,
		run: func(t *testing.T, cfg Config, rec *obs.Recorder) (equivCell, error) {
			chans, err := transport.NewChanNetwork(cfg.N)
			if err != nil {
				t.Fatal(err)
			}
			defer chans.Close()
			var netw transport.Network = chans
			if maxLag > 0 {
				h := fnv.New64a()
				h.Write([]byte(t.Name()))
				netw = newLaggedNetwork(chans, h.Sum64(), maxLag)
			}
			return runLive(t, context.Background(), cfg, netw, cluster.Options{}, rec)
		},
	}
}

// liveRefuses: a live cluster executes honest protocols only.
func liveRefuses(cfg Config) bool { return cfg.Adversary != nil }

// atProcs runs f at GOMAXPROCS procs — the round engine steps nodes on
// min(GOMAXPROCS, n) workers — and restores the setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// digest is the first 16 hex digits of the SHA-256 of rec's canonical
// JSONL export.
func digest(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	h := sha256.New()
	if err := rec.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runSim runs cfg through Run, traced into rec, at GOMAXPROCS procs.
func runSim(t *testing.T, cfg Config, procs int, rec *obs.Recorder) (equivCell, error) {
	cfg.Tracer = rec
	var rep *Report
	var err error
	atProcs(procs, func() { rep, err = Run(cfg) })
	if err != nil {
		return equivCell{}, err
	}
	return equivCell{rep: rep, trace: digest(t, rec)}, nil
}

// runKeepAll executes cfg as Run does — the same network model, round
// budget, adversary and checkers — but with BuildNodes' node set, which
// keeps every core iteration instead of the lockstep window, and no ticket
// screen, so every node verifies every ticket it receives. Each node is
// wrapped to tally its own sends. It steps on the test's GOMAXPROCS, as
// the live columns do.
func runKeepAll(t *testing.T, cfg Config, rec *obs.Recorder) (equivCell, error) {
	cfg.Tracer = rec
	norm, err := cfg.Normalized()
	if err != nil {
		return equivCell{}, err
	}
	nodes, seize, steps, err := BuildNodes(cfg)
	if err != nil {
		return equivCell{}, err
	}
	maxRounds, err := norm.RoundBudget(steps)
	if err != nil {
		return equivCell{}, err
	}
	net, err := norm.Faults()
	if err != nil {
		return equivCell{}, err
	}
	perNode := make([]Metrics, norm.N)
	for i, nd := range nodes {
		nodes[i] = &senderTally{Node: nd, n: norm.N, metrics: &perNode[i]}
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: norm.N, F: norm.F, MaxRounds: maxRounds,
		Seize: seize, Net: net, Tracer: norm.Tracer,
	}, nodes, norm.Adversary)
	if err != nil {
		return equivCell{}, err
	}
	rep := scenario.Evaluate(norm, rt.Run())
	return equivCell{rep: rep, trace: digest(t, rec), perNode: perNode}, nil
}

// senderTally wraps a lockstep node to tally its own sends, as the engine
// counts them: at send time, while the node is so-far honest. It hands the
// node a copy of its inbox without the engine's marks, so a core node
// leaves its state class at its first delivery and verifies every ticket
// it receives itself, as the keep-all column promises. The column runs
// unscreened, so the copy drops no verdict.
type senderTally struct {
	netsim.Node
	n       int
	metrics *netsim.Metrics
}

func (c *senderTally) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	unmarked := make([]netsim.Delivered, len(delivered))
	for i, d := range delivered {
		unmarked[i] = netsim.Delivered{From: d.From, Msg: d.Msg}
	}
	sends := c.Node.Step(round, unmarked)
	for _, s := range sends {
		c.metrics.CountSend(s.To, c.n, wire.Size(s.Msg))
	}
	return sends
}

// runLive runs cfg as a live cluster over netw, traced into rec.
func runLive(t *testing.T, ctx context.Context, cfg Config, netw transport.Network, opts cluster.Options, rec *obs.Recorder) (equivCell, error) {
	opts.Tracer = rec
	rep, err := cluster.Run(ctx, cfg, netw, opts)
	if err != nil {
		return equivCell{}, err
	}
	return equivCell{rep: rep.Report, trace: digest(t, rec), perNode: rep.PerNode}, nil
}

// laggedNetwork wraps a network so every node pauses for a seed-random
// duration before each multicast: per-node scheduling skew, which the
// synchronizer, not the protocol, must absorb. Nodes reach each barrier in
// a different order every run, and the run must still be the simulator's —
// Δ-synchrony is an assumption about the network, not about the nodes
// stepping in lockstep.
type laggedNetwork struct {
	transport.Network
	eps []transport.Transport
}

type laggedTransport struct {
	transport.Transport
	mu     sync.Mutex
	rng    *rand.Rand
	maxLag time.Duration
}

func (l *laggedTransport) Multicast(env transport.Envelope) error {
	l.mu.Lock()
	d := time.Duration(l.rng.Int64N(int64(l.maxLag)))
	l.mu.Unlock()
	time.Sleep(d)
	return l.Transport.Multicast(env)
}

func newLaggedNetwork(inner transport.Network, seed uint64, maxLag time.Duration) *laggedNetwork {
	eps := make([]transport.Transport, len(inner.Endpoints()))
	for i, ep := range inner.Endpoints() {
		eps[i] = &laggedTransport{Transport: ep, rng: rand.New(rand.NewPCG(seed, uint64(i))), maxLag: maxLag}
	}
	return &laggedNetwork{Network: inner, eps: eps}
}

func (l *laggedNetwork) Endpoints() []transport.Transport { return l.eps }

// equivRef is a row's reference run and what the row's cells establish
// for the cells after them.
type equivRef struct {
	rep   *Report // nil when the simulator refuses the row
	err   error
	trace string
	// events is how many events the traced reference emitted.
	events int
	// perNode is the first column's that sees them, intern the first
	// Sparse column's statistics.
	perNode []Metrics
	intern  *InternStats
}

// check runs the row's seed, then each extra seed as a row of its own;
// -short runs the one extra seed a hash of the row's name picks.
func (row equivRow) check(t *testing.T) {
	row.checkSeed(t)
	pick := 0
	if testing.Short() && row.seeds > 0 {
		h := fnv.New32a()
		h.Write([]byte(t.Name()))
		pick = 1 + int(h.Sum32()%uint32(row.seeds))
	}
	for k := 1; k <= row.seeds; k++ {
		t.Run(fmt.Sprintf("seed-%d", k), func(t *testing.T) {
			if pick != 0 && k != pick {
				t.Skipf("-short runs seed-%d of this row's %d extra seeds", pick, row.seeds)
			}
			extra := equivRow{name: row.name, sc: row.sc, seed: row.seed}
			extra.seed[len(extra.seed)-1] = byte(k)
			extra.checkSeed(t)
		})
	}
}

// checkSeed runs the row's reference and holds every column to it.
func (row equivRow) checkSeed(t *testing.T) {
	var ref equivRef
	atProcs(1, func() { ref.rep, ref.err = Run(row.config(t)) })
	rec := obs.NewRecorder(0)
	traced, tracedErr := runSim(t, row.config(t), 1, rec)
	if ref.err == nil {
		if tracedErr != nil {
			t.Fatal(tracedErr)
		}
		ref.trace, ref.events = traced.trace, rec.Len()
	}
	if g := row.golden; g != nil {
		holds(t, ref.rep)
		if got := outputsDigest(ref.rep); got != g.outputs {
			t.Errorf("outputs digest = %s, want golden %s", got, g.outputs)
		}
		if ref.rep.Rounds != g.rounds {
			t.Errorf("rounds = %d, want golden %d", ref.rep.Rounds, g.rounds)
		}
		if ref.rep.Metrics != g.metrics {
			t.Errorf("metrics = %+v, want golden %+v", ref.rep.Metrics, g.metrics)
		}
	}
	if row.fact != nil {
		if ref.err != nil {
			t.Fatal(ref.err)
		}
		row.fact(t, ref.rep)
	}

	// The traced run is the row's trace reference, so it ran above; its
	// cell checks that tracing left the execution alone.
	t.Run("traced", func(t *testing.T) {
		if ref.err != nil {
			if tracedErr == nil || tracedErr.Error() != ref.err.Error() {
				t.Fatalf("got %v, want the simulator's refusal %q", tracedErr, ref.err)
			}
			return
		}
		ref.compare(t, traced)
		if g := row.golden; g != nil && g.trace != "" && traced.trace != g.trace {
			t.Errorf("trace digest = %s, want golden %s", traced.trace, g.trace)
		}
	})
	for _, col := range equivColumns {
		t.Run(col.name, func(t *testing.T) { ref.cell(t, row.config(t), col) })
	}
}

// cell runs cfg under col and holds it to the reference.
func (ref *equivRef) cell(t *testing.T, cfg Config, col equivColumn) {
	if col.limit != nil {
		if why := col.limit(t, cfg); why != "" {
			t.Skip(why)
		}
	}
	// A cell must emit the reference's events, so its ring holds one more:
	// an extra event changes the digest or overflows the ring, and either
	// fails the cell. A default ring is 24 MB to zero for every cell.
	got, err := col.run(t, cfg, obs.NewRecorder(ref.events+1))
	switch {
	case col.refuses != nil && col.refuses(cfg):
		if err == nil {
			t.Fatal("ran a config this runtime refuses")
		}
		t.Skipf("refused: %v", err)
	case ref.err != nil:
		if err == nil || err.Error() != ref.err.Error() {
			t.Fatalf("got %v, want the simulator's refusal %q", err, ref.err)
		}
		return
	case err != nil:
		t.Fatal(err)
	}
	ref.compare(t, got)
}

func (ref *equivRef) compare(t *testing.T, got equivCell) {
	t.Helper()
	if !reflect.DeepEqual(got.rep.Result, ref.rep.Result) {
		t.Errorf("Result differs from the reference:\n got %+v\nwant %+v", got.rep.Result, ref.rep.Result)
	}
	if v, w := verdicts(got.rep), verdicts(ref.rep); v != w {
		t.Errorf("checker verdicts %s, reference %s", v, w)
	}
	if got.trace != ref.trace {
		t.Errorf("trace digest %s, the traced reference's %s; align the two with cmd/tracediff", got.trace, ref.trace)
	}
	if st := got.rep.Intern; st != nil {
		if ref.intern == nil {
			ref.intern = st
		} else if *st != *ref.intern {
			t.Errorf("intern stats %+v, the first Sparse column's %+v", *st, *ref.intern)
		}
	}
	if got.perNode == nil {
		return
	}
	var sum Metrics
	for _, m := range got.perNode {
		sum.Add(m)
	}
	if sum != ref.rep.Metrics {
		t.Errorf("per-node counts sum to %+v, the reference measured %+v", sum, ref.rep.Metrics)
	}
	if ref.perNode == nil {
		ref.perNode = got.perNode
		return
	}
	for i, m := range got.perNode {
		if m != ref.perNode[i] {
			t.Errorf("node %d sent %+v, %+v in the first column that counts per node", i, m, ref.perNode[i])
		}
	}
}

func verdicts(rep *Report) string {
	return fmt.Sprintf("(consistency %v, validity %v, termination %v)", rep.Consistency, rep.Validity, rep.Termination)
}

// equivCrossRow holds the facts that relate two configs rather than two
// runs of one.
func equivCrossRow(t *testing.T) {
	run := func(t *testing.T, cfg Config) *Report {
		t.Helper()
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// A drop-only chaos model is the standalone omission model: the same
	// derived seed, faulty set and per-link decisions. With the chan cell
	// of net/chaos-drop-delta1, a live chaos run is the simulator's
	// omission run.
	t.Run("chaos-drop-is-omission", func(t *testing.T) {
		cfg := netBase
		cfg.Seed = seedByte(9)
		cfg.Net, cfg.OmissionRate = NetChaos, 0.3
		chaos := run(t, cfg)
		cfg.Net = NetOmission
		if omission := run(t, cfg); !reflect.DeepEqual(chaos.Result, omission.Result) {
			t.Errorf("chaos drops %+v\nomission model %+v", chaos.Result, omission.Result)
		}
	})
	// Naming the default model changes nothing.
	t.Run("explicit-delta-one", func(t *testing.T) {
		for _, g := range goldenCases {
			cfg := g.cfg
			cfg.Seed = seedByte(7)
			implicit := run(t, cfg)
			cfg.Net, cfg.Delta = NetDeltaOne, 1
			if explicit := run(t, cfg); !reflect.DeepEqual(implicit.Result, explicit.Result) {
				t.Errorf("%s: explicit delta-one %+v\ndefault %+v", g.name, explicit.Result, implicit.Result)
			}
		}
	})
}
