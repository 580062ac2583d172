// Package obs is the deterministic observability layer: typed round-
// lifecycle events emitted by the simulator (dense and sparse), and the
// live cluster through one nil-guarded Sink; an append-only Recorder with
// canonical JSONL export whose content is a pure function of the seed; and
// the explicitly non-deterministic Telemetry counters behind the expvar/pprof
// endpoint a live `ba -transport chan|tcp -obs-addr` run serves, which hold
// every wall-clock measurement.
//
// Architecture: DESIGN.md §10 — the event taxonomy, the determinism
// boundary between the trace and timing channels, and the canonical order
// cmd/tracediff aligns on.
package obs
