package brb

import (
	"ccba/internal/netsim"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Instance is one node's view of one Bracha reliable-broadcast instance.
// It is a pure state machine: Start and Handle return the sends their
// event triggers, and the embedding runtime (the standalone Node, or an
// ACS slot) moves them onto the wire.
//
// Thresholds, for n > 3f: echo on the broadcaster's SEND; ready on
// ⌊(n+f)/2⌋+1 ECHOs (a quorum any two of which intersect in an honest
// node) or on f+1 READYs (the amplification step, which makes delivery
// totalitarian); deliver on 2f+1 READYs.
type Instance struct {
	n, f        int
	broadcaster types.NodeID
	me          types.NodeID

	echoSent  bool
	readySent bool
	delivered bool
	payload   []byte

	// tallies holds the per-payload echo/ready counts. Distinct payloads
	// only arise from an equivocating broadcaster, so the list stays at one
	// entry in every honest execution; a linear scan keeps the bookkeeping
	// deterministic without sorted-map machinery.
	tallies []*tally

	// out backs the slice Start and Handle return: an event triggers at
	// most one send, and callers consume it before the next call.
	out [1]netsim.Send
}

// tally counts distinct-sender echoes and readies for one payload value.
type tally struct {
	payload []byte
	echo    []bool
	echoN   int
	ready   []bool
	readyN  int
}

// NewInstance builds one node's instance of broadcaster's reliable
// broadcast in an (n, f) system.
func NewInstance(n, f int, broadcaster, me types.NodeID) *Instance {
	return &Instance{n: n, f: f, broadcaster: broadcaster, me: me}
}

// Start produces the broadcaster's initial multicast. Non-broadcasters
// start passively and return nothing.
func (in *Instance) Start(payload []byte) []netsim.Send {
	if in.me != in.broadcaster {
		return nil
	}
	return in.emit(SendMsg{Payload: payload})
}

// emit returns the one multicast of m an event triggered.
func (in *Instance) emit(m wire.Message) []netsim.Send {
	in.out[0] = netsim.Multicast(m)
	return in.out[:]
}

// Delivered returns the delivered payload and whether delivery happened.
func (in *Instance) Delivered() ([]byte, bool) { return in.payload, in.delivered }

// Handle processes one message from an authenticated sender and returns
// the sends it triggers, plus whether this call delivered the payload.
func (in *Instance) Handle(from types.NodeID, msg wire.Message) (out []netsim.Send, deliveredNow bool) {
	switch m := msg.(type) {
	case SendMsg:
		if from != in.broadcaster || in.echoSent {
			return nil, false
		}
		in.echoSent = true
		out = in.emit(EchoMsg{Payload: m.Payload})
	case EchoMsg:
		t := in.tally(m.Payload)
		if t.echo[from] {
			return nil, false
		}
		t.echo[from] = true
		t.echoN++
		out = in.advance(t)
	case ReadyMsg:
		t := in.tally(m.Payload)
		if t.ready[from] {
			return nil, false
		}
		t.ready[from] = true
		t.readyN++
		out = in.advance(t)
		if !in.delivered && t.readyN >= 2*in.f+1 {
			in.delivered = true
			in.payload = t.payload
			return out, true
		}
	}
	return out, false
}

// advance sends READY once the payload's echo quorum or ready
// amplification threshold is met.
func (in *Instance) advance(t *tally) []netsim.Send {
	if !in.readySent && (t.echoN >= (in.n+in.f)/2+1 || t.readyN >= in.f+1) {
		in.readySent = true
		return in.emit(ReadyMsg{Payload: t.payload})
	}
	return nil
}

// tally returns the counter entry for payload, allocating on first sight.
func (in *Instance) tally(payload []byte) *tally {
	for _, t := range in.tallies {
		if string(t.payload) == string(payload) {
			return t
		}
	}
	t := &tally{
		payload: append([]byte(nil), payload...),
		echo:    make([]bool, in.n),
		ready:   make([]bool, in.n),
	}
	in.tallies = append(in.tallies, t)
	return t
}
