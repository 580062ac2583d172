// Package transport carries wire-encoded cluster envelopes between live
// protocol nodes.
//
// The lockstep simulator in internal/netsim hands messages between state
// machines as Go values inside one goroutine; this package is the other half
// of the bridge internal/cluster builds: each node runs concurrently (a
// goroutine, or a whole process) and exchanges Envelopes — round-tagged,
// sequence-numbered frames whose payload is the canonical wire encoding of a
// protocol message — over a Transport addressed by node index.
//
// Two implementations are provided:
//
//   - the in-process channel transport (NewChanNetwork): one unbounded
//     mailbox per node, per-sender FIFO, no sockets. It is the reference
//     transport the cluster runtime is cross-validated on — a chan-transport
//     run must agree bit-for-bit with the lockstep engine on every
//     protocol-visible fact. It moves a round, not an envelope: a data
//     multicast joins its sender's run for the round, a multicast EnvSync
//     publishes that run to a tally the endpoints share, and the n-th
//     arrival of a round pushes one EnvBarrier ("all n synced, Seq of them
//     halted", with the round's runs in sender order) into each mailbox —
//     n envelopes per round instead of n per multicast plus n² markers.
//     Unicasts and result records still go mailbox by mailbox.
//   - the TCP transport (ListenTCP/NewTCPNetwork): length-prefixed framing
//     of the same envelope encoding over a dial-mesh of localhost or
//     cross-host connections, with a hello handshake identifying the sender
//     and graceful shutdown via context.
//
// Both preserve the only ordering property the cluster round synchronizer
// needs: a sender's round-r data is in hand no later than the marker that
// accounts for its round-r sync — over TCP because envelopes from one
// sender arrive at one recipient in send order (per-link FIFO), on the chan
// network because the EnvBarrier carries the round's multicasts. Over TCP
// cross-sender interleaving is arbitrary and the synchronizer sorts each
// round's traffic into the deterministic lockstep order; a chan barrier's
// log already is in that order.
//
// A multicast's in-process recipients share the envelope's payload bytes
// and, when the sender attached one, its DecodeCell: Decode parses the
// payload once between them. Nothing but bytes crosses a socket, so a TCP
// recipient decodes for itself.
//
// The paper assumes authenticated point-to-point channels throughout; like
// the simulator, the transports implement that assumption rather than
// enforce it cryptographically — Envelope.From is trusted. Signatures inside
// the payloads (the real-crypto mode) are still verified by the protocols
// themselves.
//
// A third layer wraps either implementation: the chaos transport
// (WrapChaos/NewChaosNetwork) injects the simulator's own fault schedule
// below the protocol surface. Every data frame and sync marker is put to
// netsim.Faults.Decide — drops on faulty senders' links, crash windows,
// timed partitions and per-link delays, each delay held (d−1) round
// intervals — so the decisions match a simulated run link for link; the
// per-frame reorder coin and wall-clock timing are the only live-only
// parts (DESIGN.md §7). Its Multicast
// is n per-link Sends, so chaos runs keep per-link sync markers on both
// transports; since those bypass the chan network's tally, one
// ChanNetwork's endpoints are wrapped all (NewChaosNetwork) or none —
// WrapChaos rejects a lone chan endpoint.
//
// Architecture: DESIGN.md §2 — live envelope transports under the cluster runtime.
package transport
