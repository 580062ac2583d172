// Package cluster is the live execution layer: it drives the same
// sans-I/O netsim.Node state machines the lockstep simulator runs, but as
// concurrent node processes exchanging wire-encoded envelopes over a
// pluggable transport — one goroutine per node over in-process channels, or
// one OS process per node over a TCP mesh.
//
// The simulator stays the oracle. A cluster execution must agree with the
// lockstep engine on every protocol-visible fact — each node's decision,
// the round count, and the per-node communication metrics — for the same
// scenario.Config and seed. The round synchronizer makes that possible,
// and every node runs the same one whatever carries its markers:
//
//   - Every protocol message travels as a round-tagged, per-sender
//     sequence-numbered envelope whose payload is the message's canonical
//     wire encoding.
//   - After transmitting its round-r sends, each node issues a sync marker
//     carrying its halted flag (Transport.Multicast of an EnvSync). What
//     comes back depends on the transport: a TCP mesh delivers n
//     per-link markers, each accounting for one node; the in-process chan network counts the arrivals in one
//     shared tally and delivers a single aggregated marker accounting for
//     all n (and their halted count) once the last node has arrived — n
//     envelopes per round instead of n², with no coordinator across
//     processes, and carrying the round's multicasts as one log. In both
//     cases a peer's round-r data is in this node's hands no later than
//     the marker that accounts for that peer. A node enters round r+1
//     only once its round-r markers account for all n nodes — there is no
//     other way forward, so when a node advances, and so the run, is a
//     function of (config, seed) alone. The barrier realises the paper's
//     synchronous model exactly (every round-r message is in hand before
//     any round-r+1 computation) with no wall-clock timeouts in the
//     in-process case; a network model's delays are rounds the recipient
//     holds a frame for (DESIGN.md §7). Over TCP, Options.RoundTimeout
//     bounds the barrier wait so a dead peer fails the run instead of
//     hanging it; on the chan network the timeout error names the nodes
//     that never arrived.
//   - Each round's traffic is delivered in (sender, sequence) order — a
//     chan barrier's log is walked as it comes, anything received envelope
//     by envelope is sorted — reproducing the deterministic envelope order
//     of the lockstep engine's delivery merge — this is what makes live runs
//     bit-compatible with the simulator despite arbitrary goroutine and
//     network interleaving. Delivery decodes each envelope from its
//     canonical payload bytes (transport.Decode): the in-process recipients
//     of one multicast share a single decode, value or error, and treat the
//     message as read-only; an envelope that crossed a socket is decoded
//     by its one receiver.
//   - When every node's halted flag is up (or the round budget is
//     exhausted), each node's result record — decision, halted flag, its
//     own metrics — becomes one row of the Result, assembled by one
//     function on both routes. Run holds all n nodes in one process, so
//     its goroutines hand their records straight back and it evaluates the
//     paper's three security properties once. RunNode's peers live in other
//     processes, so there the nodes exchange records over the transport
//     and every participant — a single TCP process in a multi-machine mesh
//     included — assembles the complete Result locally.
//
// The runtime executes honest protocols only: the simulator's adversary
// interface is an omniscient round-scoped window over all in-flight
// envelopes, which no distributed runtime can offer, so configs carrying an
// adversary (and scenarios naming one) are rejected — attack experiments
// belong to the simulator. Check states every such refusal, and a caller
// can ask it before building a transport. The config's network model does
// run live: for any model but delta-one, each recipient puts every data
// frame to the schedule scenario.Config.Faults lowers — the one the
// simulator runs — and files it for the round the simulator delivers it
// in, or drops it (chaos.go). A delay is a number of rounds, never a
// timer, so a run of any model at any Δ is the simulator's run, trace
// included (DESIGN.md §7, experiment E14).
//
// Architecture: DESIGN.md §2 — live cluster runtime over pluggable
// transports; DESIGN.md §7 — the synchronizer and the network models.
package cluster
