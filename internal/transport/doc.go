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
//     protocol-visible fact. It carries the round barrier in O(n) envelopes:
//     a multicast EnvSync arrives at a tally the endpoints share, and the
//     n-th arrival of a round pushes one EnvBarrier ("all n synced, Seq of
//     them halted") into each mailbox instead of every node pushing n
//     markers.
//   - the TCP transport (ListenTCP/NewTCPNetwork): length-prefixed framing
//     of the same envelope encoding over a dial-mesh of localhost or
//     cross-host connections, with a hello handshake identifying the sender
//     and graceful shutdown via context.
//
// Both preserve the only ordering property the cluster round synchronizer
// needs: envelopes from one sender arrive at one recipient in send order
// (per-link FIFO), so a sender's round-r data precedes the marker that
// accounts for its round-r sync — its own per-link EnvSync, or the chan
// network's EnvBarrier, which is pushed only after every sender has pushed
// its round-r data and arrived. Cross-sender interleaving is arbitrary; the
// synchronizer re-sorts each round's traffic into the deterministic
// lockstep order.
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
// (WrapChaos/NewChaosNetwork) injects a seed-deterministic fault schedule
// — drops on faulty senders' links, delay/reorder within the Δ window,
// timed partitions, crash windows — below the protocol surface, under the
// same power boundary the simulator enforces (DESIGN.md §7). Its Multicast
// is n per-link Sends, so chaos runs keep per-link sync markers on both
// transports; since those bypass the chan network's tally, one
// ChanNetwork's endpoints are wrapped all (NewChaosNetwork) or none —
// WrapChaos rejects a lone chan endpoint.
//
// Architecture: DESIGN.md §2 — live envelope transports under the cluster runtime.
package transport
