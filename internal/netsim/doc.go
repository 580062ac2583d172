// Package netsim implements the paper's execution model (Appendix A.1): a
// synchronous, round-based network of n interactive state machines under an
// adaptive adversary.
//
// Every protocol in this repository is written "sans I/O" as a Node state
// machine; the Runtime drives rounds, routes multicast and pairwise
// messages by the network model (Faults), lets the adversary observe and
// intervene between sending and delivery, and accounts communication
// complexity in both the classical (Definition 6) and multicast
// (Definition 7) senses.
//
// Message timing is the network model's: each (sender, recipient) link of
// a round-r send is assigned a delivery round in [r+1, r+∆], or dropped.
// Every schedule is one Faults value — lockstep ∆ = 1 (the zero value, the
// default), worst-case ∆-delay, seeded jitter, per-link omission faults, a
// temporary partition, a crash window, or the chaos composite of them all
// — exercising the adversary's classic synchronous power of delaying
// honest messages up to the bound. The per-link rule is Faults.Link, and a
// live cluster's recipients apply the same Link to every frame, so both
// runtimes run one schedule. The model's power boundary holds by
// construction (see Faults): honest-to-honest messages always arrive by ∆,
// and only links from the ≤ F omission-faulty senders are dropped.
//
// The adversary model is enforced structurally:
//
//   - The adversary sees the messages so-far-honest nodes send in round r
//     before choosing its round-r corruptions and injections (a rushing,
//     adaptive adversary).
//   - A node corrupted in round r can be made to send additional messages in
//     round r, but the messages it already sent can be erased only by a
//     StronglyAdaptive adversary — "after-the-fact removal", the exact
//     boundary Theorems 1 and 2 of the paper turn on. The Runtime rejects
//     removal requests from weaker adversaries.
//   - Corruption budgets are enforced; corrupting a node hands its state
//     machine and secret keys to the adversary and stops the Runtime from
//     stepping it.
//
// There is one round engine (Runtime): nodes step in min(GOMAXPROCS, n)
// contiguous id shards, each node through StepNode — the one per-node step,
// which a live cluster node runs too, so both runtimes trace and account a
// round's inbox and sends by the same code — a serial shard-order merge
// builds the envelope list,
// and per-round state is sized by actual traffic under every net model: a
// multicast is one delivery-ring entry, not n. It holds n-sized state only
// when the configuration asks for it — corruption status under a
// non-Passive adversary, the decide bitmap under a Tracer — so executions
// with hundreds of thousands of nodes need no separate path. Config.Sparse
// selects nothing; it asserts the passive regime and makes NewRuntime fail
// closed outside it (DESIGN.md §6).
//
// The asynchronous track has its own driver, EventRuntime (event.go): no
// rounds, a loop that pops the (prio, seq)-least in-flight link, hands it to
// an AsyncNode and admits the sends that delivery triggers. Its scheduler
// state (linkqueue.go) is a k-way merge over the sends in flight: a table
// stores each admitted Send once, with its links' offsets sorted by
// (prio, seq) at admission — a multicast's recipient is recovered from
// seq − first seq through the ascending list of live nodes — and a typed
// 4-ary heap holds one pointer-free (prio, seq, send index) entry per send,
// its least undelivered link. A pop replaces that entry with the send's next
// link, so the heap is as large as the sends in flight, not their fan-out.
// Records are recycled when their last link pops, so the state is sized by
// traffic in flight and the steady-state loop allocates nothing. The three
// SchedModes differ only in how prio is derived from seq and share the one
// queue; the order is total, so an execution is a pure function of
// (config, seed).
// EventRuntime.Stop says which exit ended a run — every live node halted,
// the queue drained (deadlock), or the MaxDeliveries cap (DESIGN.md §11).
//
// A Result is judged by the one set of property checkers
// (CheckConsistency, CheckAgreementValidity, CheckBroadcastValidity,
// CheckTermination): they range over Result.EachForeverHonest and allocate
// nothing on a passing execution, so there is no separate large-N variant
// of them either.
//
// Architecture: DESIGN.md §2 — synchronous round runtime and network models;
// DESIGN.md §11 — the event runtime.
package netsim
