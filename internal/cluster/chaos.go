package cluster

import (
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/types"
)

// links is the network model a live run executes: the schedule
// scenario.Config.Faults lowers, the one the simulator runs, validated
// against (N, F). prepare builds it for every model but delta-one, whose
// runs never consult it.
//
// A delay is a number of rounds, never a length of time. The recipient
// files a round-r frame for delivery in round r + d, where d is the
// simulator's answer for the frame's (round, from, to) link, so on the
// all-ack barrier a live run of any model at any Δ is the simulator's run.
// Sync markers never meet the schedule: the round clock is the synchronous
// model's assumption, not the adversary's to bend.
type links struct {
	faults netsim.Faults
	delta  int
	faulty []bool // omission-faulty senders, n long; nil for none
}

// delay is the simulator's per-link rule (netsim.Runtime's linkDelay) for a
// run without corrupt senders: the rounds a round-r frame from from takes
// to reach to, in [1, Δ], or 0 when the schedule drops it. Self-links
// always take one round. Only a faulty sender's frame may be dropped; a
// drop asked of an honest link holds it to Δ.
func (l *links) delay(round int, from, to types.NodeID) int {
	if from == to {
		return 1
	}
	d, _ := l.faults.Decide(round, from, to)
	if d == netsim.Drop {
		if l.dropsFrom(from) {
			return 0
		}
		d = l.delta
	}
	return min(max(d, 1), l.delta)
}

func (l *links) dropsFrom(from types.NodeID) bool {
	return l.faulty != nil && l.faulty[from]
}

// traceDrops emits the fault events of a round-r send to to (Broadcast for
// a multicast) from from: one per dropped link, numbered by *seq in
// recipient order. A sender calls it for its sends in send order, which is
// the simulator's per-(round, sender) numbering. A unicast to no node
// reaches no link, as in the simulator.
func (l *links) traceDrops(sink obs.Sink, round int, from, to types.NodeID, n int, seq *int) {
	if !l.dropsFrom(from) {
		return
	}
	lo, hi := int(to), int(to)+1
	if to == types.Broadcast {
		lo, hi = 0, n
	}
	for j := max(lo, 0); j < min(hi, n); j++ {
		if types.NodeID(j) == from {
			continue
		}
		if d, kind := l.faults.Decide(round, from, types.NodeID(j)); d == netsim.Drop {
			sink.Fault(round, from, types.NodeID(j), *seq, kind)
			*seq++
		}
	}
}
