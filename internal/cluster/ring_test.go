package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// frame is a data envelope's (sender, round, seq) key, all a test of the
// delivery order needs.
type frame struct{ from, round, seq uint32 }

func data(from, round, seq uint32) transport.Envelope {
	return transport.Envelope{Kind: transport.EnvData, From: types.NodeID(from), Round: round, Seq: seq}
}

// drain empties delivery round at's slot and returns its inbox as keys.
func drain(r *runner, at uint32) []frame {
	s := r.slotFor(at)
	var got []frame
	for _, run := range s.inbox() {
		for _, env := range run {
			got = append(got, frame{uint32(env.From), env.Round, env.Seq})
		}
	}
	s.reset()
	return got
}

// TestRingWindow drives the runner's filing directly. Under the worst-case
// model at Δ = 3 every link but the self-link takes Δ rounds, so in round
// r = 5 a round-6 frame from a peer lands in the last of the Δ + 1 slots
// and reaches the state machine in round r + 1 + Δ = 9, sorted into the
// lockstep engine's (round, sender, seq) order with whatever else arrived,
// in any order, for that round. A frame or marker of a round outside
// [r, r + 1] fails closed, naming its sender and round.
func TestRingWindow(t *testing.T) {
	const cur, delta = 5, 3
	cfg := chaosBase
	cfg.Net, cfg.Delta = scenario.NetWorstCase, delta
	p, err := prepare(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tcp", func(t *testing.T) {
		r := p.newRunner(0, nil)
		if len(r.ring) != delta+1 {
			t.Fatalf("ring of %d slots, want Δ+1 = %d", len(r.ring), delta+1)
		}
		// Envelopes received one at a time, out of order.
		for _, env := range []transport.Envelope{
			data(7, 6, 1), data(2, 6, 0), data(7, 6, 0), data(3, 5, 0),
			data(0, 6, 0), data(2, 6, 2), data(0, 5, 1), data(4, 5, 0),
		} {
			if err := r.ingest(env, cur); err != nil {
				t.Fatal(err)
			}
		}
		want := map[uint32][]frame{
			6: {{0, 5, 1}}, // self-links take one round
			7: {{0, 6, 0}},
			8: {{3, 5, 0}, {4, 5, 0}},
			9: {{2, 6, 0}, {2, 6, 2}, {7, 6, 0}, {7, 6, 1}},
		}
		for at := uint32(cur + 1); at <= cur+1+delta; at++ {
			if got := drain(r, at); !reflect.DeepEqual(got, want[at]) {
				t.Errorf("delivery round %d: %v, want %v", at, got, want[at])
			}
		}
	})

	t.Run("chan", func(t *testing.T) {
		// A barrier's runs are filed one sender at a time by their link's
		// delay and merged with a unicast received on its own.
		r := p.newRunner(0, nil)
		runs := [][]transport.Envelope{
			{data(0, cur, 0), data(0, cur, 1)},
			{data(1, cur, 0)},
			{data(9, cur, 0)},
		}
		for _, env := range []transport.Envelope{
			data(4, cur, 2),
			{Kind: transport.EnvBarrier, From: 3, Round: cur, Seq: 2, Runs: runs},
		} {
			if err := r.ingest(env, cur); err != nil {
				t.Fatal(err)
			}
		}
		if m := r.marks[cur%2]; m.syncs != cfg.N || m.halts != 2 {
			t.Fatalf("round %d tally %+v, want %d syncs and 2 halts", cur, m, cfg.N)
		}
		if got, want := drain(r, cur+1), []frame{{0, cur, 0}, {0, cur, 1}}; !reflect.DeepEqual(got, want) {
			t.Errorf("delivery round %d: %v, want %v", cur+1, got, want)
		}
		if got, want := drain(r, cur+delta), []frame{{1, cur, 0}, {4, cur, 2}, {9, cur, 0}}; !reflect.DeepEqual(got, want) {
			t.Errorf("delivery round %d: %v, want %v", cur+delta, got, want)
		}
	})

	t.Run("delta-one log stands", func(t *testing.T) {
		// A lone barrier log is the inbox as it stands, shared.
		lp, err := prepare(chaosBase, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := lp.newRunner(0, nil)
		log := [][]transport.Envelope{{data(1, cur, 0)}, {data(2, cur, 0)}}
		if err := r.ingest(transport.Envelope{Kind: transport.EnvBarrier, From: 1, Round: cur, Runs: log}, cur); err != nil {
			t.Fatal(err)
		}
		if got := r.slotFor(cur + 1).inbox(); &got[0][0] != &log[0][0] {
			t.Fatal("a lone barrier log was copied, not walked in place")
		}
	})

	t.Run("outside the window", func(t *testing.T) {
		for _, env := range []transport.Envelope{
			data(2, cur+2, 0),
			data(2, cur-1, 0),
			{Kind: transport.EnvSync, From: 2, Round: cur + 2},
			{Kind: transport.EnvSync, From: 2, Round: cur - 1},
			{Kind: transport.EnvBarrier, From: 2, Round: cur + 2},
		} {
			r := p.newRunner(0, nil)
			err := r.ingest(env, cur)
			if !errors.Is(err, errWindow) || !strings.Contains(err.Error(), fmt.Sprintf("from node 2 for round %d", env.Round)) {
				t.Errorf("kind %d round %d in round %d: got %v, want the window error naming node 2 and the round", env.Kind, env.Round, cur, err)
			}
		}
	})
}
