package cluster

import (
	"errors"
	"slices"

	"ccba/internal/transport"
)

// A node's traffic waits for its delivery round in a ring of Δ + 1 slots,
// delivery round d's in slot d mod (Δ+1). A peer runs at most one round
// ahead (it needs this node's round-r sync to finish round r) and a network
// model holds a frame at most Δ rounds, so in round r everything in hand is
// for delivery rounds r+1 … r+1+Δ, one slot each; a frame or marker of any
// round outside [r, r+1] fails closed (ingest), since modulo indexing would
// file it in a live slot.

// errWindow fails a frame or marker the ring has no slot for.
var errWindow = errors.New("outside the window of the current round and the next")

// slot is one delivery round's traffic: envelopes received one at a time
// (unicasts; every data frame over TCP), and pieces of the chan network's
// round logs as they were handed over, shared read-only with every other
// recipient.
type slot struct {
	envs   []transport.Envelope
	logs   [][][]transport.Envelope
	runs   [][]transport.Envelope // inbox scratch
	frames int                    // envelopes filed, for the in-flight gauge
}

// slotFor returns delivery round at's slot.
func (r *runner) slotFor(at uint32) *slot {
	return &r.ring[at%uint32(len(r.ring))]
}

// inbox returns the slot's traffic as runs whose concatenation is the
// lockstep engine's (round, sender, sequence) order. A lone log piece —
// every all-ack delta-one round's batch on the chan network — is in that
// order already and is walked as it stands, shared; anything else is
// gathered into s.runs and sorted.
func (s *slot) inbox() [][]transport.Envelope {
	if len(s.envs) == 0 && len(s.logs) == 1 {
		return s.logs[0]
	}
	runs := s.runs[:0]
	for _, log := range s.logs {
		runs = append(runs, log...)
	}
	if len(s.envs) > 0 {
		// Envelopes received one at a time arrive in no set order: merge
		// the runs in and sort.
		for _, run := range runs {
			s.envs = append(s.envs, run...)
		}
		slices.SortFunc(s.envs, transport.Order)
		runs = append(runs[:0], s.envs)
	} else {
		// Each run is one (round, sender) in sequence order, so ordering
		// the runs orders the inbox.
		slices.SortFunc(runs, transport.RunsOrder)
	}
	s.runs = runs
	return runs
}

// reset empties the slot for the round Δ+1 later, releasing its payload
// references.
func (s *slot) reset() {
	clear(s.envs)
	clear(s.logs)
	clear(s.runs)
	s.envs, s.logs, s.runs, s.frames = s.envs[:0], s.logs[:0], s.runs[:0], 0
}

// fileRuns files round's log for delivery. Under delta-one the log is one
// piece, which stays the inbox as it stands (see inbox). Under a network
// model each run, one sender's, is filed whole by its link's delay: the
// schedule decides a (round, from, to) link once for all its frames.
func (r *runner) fileRuns(round uint32, runs [][]transport.Envelope) {
	if len(runs) == 0 {
		return
	}
	if r.net == nil {
		r.fileLog(round+1, runs)
		return
	}
	for i, run := range runs {
		if at, ok := r.arrival(round, run[0].From); ok {
			r.fileLog(at, runs[i:i+1:i+1])
		} else {
			for range run {
				r.opts.Telemetry.Drop(run[0].From, r.self)
			}
		}
	}
}

// fileLog adds a round-log piece to delivery round at's slot.
func (r *runner) fileLog(at uint32, log [][]transport.Envelope) {
	k := 0
	for _, run := range log {
		k += len(run)
	}
	s := r.slotFor(at)
	s.logs = append(s.logs, log)
	s.frames += k
	r.opts.Telemetry.AddInFlight(k)
}
