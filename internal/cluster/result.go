package cluster

import (
	"context"
	"fmt"
	"slices"

	"ccba/internal/netsim"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// resultRecord is one node's contribution to the final Result: its decision,
// halted flag and own communication metrics.
type resultRecord struct {
	output  types.Bit
	decided bool
	halted  bool
	metrics netsim.Metrics
}

// assemble builds the Report from all n records, indexed by node, and
// evaluates the paper's three properties on it. Both routes go through it:
// Run with the records its node goroutines return, RunNode with the records
// the exchange collected. The omission-faulty senders are the network
// model's, as in the simulator's Result.
func (p *plan) assemble(rounds int, recs []resultRecord) *Report {
	n := len(recs)
	res := &netsim.Result{
		Outputs: make([]types.Bit, n),
		Decided: make([]bool, n),
		Halted:  make([]bool, n),
		Corrupt: make([]bool, n), // live runs are adversary-free
		Rounds:  rounds,
	}
	if p.net != nil {
		res.OmissionFaulty = slices.Clone(p.net.Faulty)
	}
	perNode := make([]netsim.Metrics, n)
	for i, rec := range recs {
		res.Outputs[i] = rec.output
		res.Decided[i] = rec.decided
		res.Halted[i] = rec.halted
		perNode[i] = rec.metrics
		res.Metrics.Add(rec.metrics)
	}
	return &Report{Report: scenario.Evaluate(p.cfg, res), PerNode: perNode}
}

func encodeResult(rec resultRecord) []byte {
	w := wire.Writer{}
	w.Bit(rec.output)
	w.U8(b2u(rec.decided))
	w.U8(b2u(rec.halted))
	rec.metrics.EncodeTo(&w)
	return w.Buf
}

// decodeResult parses a peer's record and fails closed: a flag byte other
// than 0 or 1, or a counter this platform's int cannot hold, is malformed.
func decodeResult(buf []byte) (resultRecord, error) {
	r := wire.NewReader(buf)
	rec := resultRecord{output: r.Bit(), decided: readFlag(r, "decided"), halted: readFlag(r, "halted")}
	rec.metrics.DecodeFrom(r)
	if err := r.Finish(); err != nil {
		return resultRecord{}, err
	}
	return rec, nil
}

func readFlag(r *wire.Reader, what string) bool {
	b := r.U8()
	r.Expect(b <= 1, what+" flag is neither 0 nor 1")
	return b == 1
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// exchangeResults multicasts this node's record and collects everyone's —
// the one step a node whose peers live in other processes needs to learn
// the full outcome. Every node's round count is identical, a deterministic
// function of the halted flags all nodes collected through the same
// barriers.
func (r *runner) exchangeResults(ctx context.Context, rec resultRecord, rounds int) ([]resultRecord, error) {
	n := r.cfg.N
	env := transport.Envelope{
		Kind: transport.EnvResult, From: r.self,
		Round: uint32(rounds), Payload: encodeResult(rec),
		Cell: new(transport.DecodeCell),
	}
	if err := r.tr.Multicast(env); err != nil {
		return nil, fmt.Errorf("result exchange: %w", err)
	}

	collectCtx, cancel := r.barrierCtx(ctx)
	defer cancel()
	recs := make([]resultRecord, n)
	seen := make([]bool, n)
	for got := 0; got < n; {
		var env transport.Envelope
		if len(r.results) > 0 {
			// Results buffered by the final barrier (fast peers run one
			// round of skew ahead) come first.
			env, r.results = r.results[0], r.results[1:]
		} else {
			var err error
			env, err = r.tr.Recv(collectCtx)
			if err != nil {
				return nil, fmt.Errorf("result exchange (%d/%d nodes): %w", got, n, err)
			}
		}
		if env.Kind != transport.EnvResult || int(env.From) < 0 || int(env.From) >= n || seen[env.From] {
			continue // stragglers from the final barrier are harmless
		}
		rec, err := transport.Decode(env, decodeResult)
		if err != nil {
			return nil, fmt.Errorf("result from node %d: %w", env.From, err)
		}
		seen[env.From] = true
		got++
		recs[env.From] = rec
	}
	return recs, nil
}
