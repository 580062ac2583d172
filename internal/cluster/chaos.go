package cluster

import (
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// A live run executes the network model the simulator runs: the schedule
// scenario.Config.Faults lowers, kept in the plan for every model but
// delta-one, whose runs never consult it. A delay is a number of rounds,
// never a length of time. The recipient files a round-r frame for delivery
// in round r + d, where d is the model's Link answer for the frame's
// (round, from, to) link, so on the all-ack barrier a live run of any model
// at any Δ is the simulator's run. Sync markers never meet the schedule:
// the round clock is the synchronous model's assumption, not the
// adversary's to bend.

// arrival is the delivery round of a round-r frame from from: r + 1 under
// delta-one, else r + d for the link's delay d. ok is false when the
// schedule drops the frame.
func (r *runner) arrival(round uint32, from types.NodeID) (at uint32, ok bool) {
	if r.net == nil {
		return round + 1, true
	}
	d, _ := r.net.Link(int(round), from, r.self)
	if d == netsim.Drop {
		return 0, false
	}
	return round + uint32(d), true
}

// traceDrops emits the fault events of a round-r send to to (Broadcast for
// a multicast) from this node: one per dropped link, numbered by *seq in
// recipient order. The node calls it for its sends in send order, which is
// the simulator's per-(round, sender) numbering. Only a faulty sender's
// links drop, and a unicast to no node reaches no link, as in the
// simulator.
func (r *runner) traceDrops(round int, to types.NodeID, seq *int) {
	n, from := r.cfg.N, r.self
	if int(from) >= len(r.net.Faulty) || !r.net.Faulty[from] {
		return
	}
	lo, hi := int(to), int(to)+1
	if to == types.Broadcast {
		lo, hi = 0, n
	}
	for j := max(lo, 0); j < min(hi, n); j++ {
		if d, kind := r.net.Link(round, from, types.NodeID(j)); d == netsim.Drop {
			r.obs.Fault(round, from, types.NodeID(j), *seq, kind)
			*seq++
		}
	}
}
