// Package cluster is the live execution layer: it runs the same sans-I/O
// netsim.Node state machines the lockstep simulator runs as concurrent node
// processes exchanging wire-encoded envelopes over a pluggable transport —
// one goroutine per node over in-process channels, or one OS process per
// node over a TCP mesh.
//
// The simulator stays the oracle, and most of a live round is the
// simulator's own code: a node steps through netsim.StepNode, the per-node
// step the lockstep engine's shards run, which traces the round start, the
// inbox, the sends and the decide/halt transitions and accounts each send
// (Definitions 6 and 7); every frame is filed by netsim.Faults.Link, the
// simulator's per-link rule; and the inbox order is transport.Order, the
// lockstep engine's (round, sender, sequence) order. What the package adds
// is a transport, a barrier and a result exchange:
//
//   - Transport. Every protocol message travels as a round-tagged,
//     per-sender sequence-numbered envelope whose payload is the message's
//     canonical wire encoding, decoded at delivery (transport.Decode): the
//     in-process recipients of one multicast share a single decode, value
//     or error, and treat the message as read-only; an envelope that
//     crossed a socket is decoded by its one receiver.
//   - Barrier. After transmitting its round-r sends, each node issues a
//     sync marker carrying its halted flag (Transport.Multicast of an
//     EnvSync). A TCP mesh delivers n per-link markers, each accounting for
//     one node; the in-process chan network counts the arrivals in one
//     shared tally and delivers a single aggregated marker accounting for
//     all n (and their halted count) once the last node has arrived,
//     carrying the round's multicasts as one log. Either way a peer's
//     round-r data is in hand no later than the marker that accounts for
//     that peer, and a node enters round r+1 only once its round-r markers
//     account for all n nodes — so when a node advances, and so the run, is
//     a function of (config, seed) alone, with no wall-clock timeouts in
//     the in-process case. Over TCP, Options.RoundTimeout bounds the wait
//     so a dead peer fails the run instead of hanging it; on the chan
//     network the timeout error names the nodes that never arrived.
//   - Delivery ring. A peer runs at most one round ahead and a network
//     model holds a frame at most Δ rounds, so a node files its traffic in
//     a ring of Δ + 1 slots indexed by delivery round, and a data frame or
//     marker of any round but the current one and the next fails the run.
//     A slot is drained in transport.Order: a chan barrier's log, already
//     in that order, is walked as it stands and shared by all n
//     recipients; anything received envelope by envelope is sorted. A
//     network model's delays are rounds the ring holds a frame for, never a
//     timer, so a run of any model at any Δ is the simulator's run, trace
//     included (chaos.go; DESIGN.md §7, experiment E14).
//   - Result exchange. When every node's halted flag is up (or the round
//     budget is exhausted), each node's result record — decision, halted
//     flag, its own metrics — becomes one row of the Result, assembled by
//     one function on both routes. Run holds all n nodes in one process, so
//     its goroutines hand their records straight back and it evaluates the
//     paper's three security properties once. RunNode's peers live in other
//     processes, so there the nodes exchange records over the transport and
//     every participant assembles the complete Result locally.
//
// The runtime executes honest protocols only: the simulator's adversary
// interface is an omniscient round-scoped window over all in-flight
// envelopes, which no distributed runtime can offer, so configs carrying an
// adversary (and scenarios naming one) are rejected — attack experiments
// belong to the simulator. Check states every such refusal, and a caller
// can ask it before building a transport.
//
// Architecture: DESIGN.md §2 — live cluster runtime over pluggable
// transports; DESIGN.md §7 — the synchronizer and the network models.
package cluster
