//! Distributed campaign fabric: a coordinator that leases slot ranges to
//! worker processes and journals the campaign as a single node would.
//!
//! The fabric splits one iterative campaign across a fleet of worker
//! processes without giving up the workspace's determinism contract:
//! the coordinator's journal of an N-worker run — under any
//! partitioning, lease reassignment, or mid-run `kill -9` of a worker —
//! is **byte-identical** to the journal a single node would have written.
//!
//! Three pieces:
//!
//! * [`wire`] — the JSON lease protocol (integers exact, measured
//!   values as IEEE-754 bit patterns);
//! * [`worker`] — a node that measures leased slot ranges through the
//!   batched persistent path, journals them to its own shard store (its
//!   evaluation cache and replay log), and serves that cache to peers;
//! * [`coordinator`] — drives the iterative session, resolves cache hits
//!   from its own journal, leases the misses, re-leases on worker death,
//!   and journals every batch from the lease answers.
//!
//! Why it works: every slot's fault stream is keyed by its global slot
//! index, so a slot measures to the same record wherever it lands, and
//! a lease answer carries that whole record. The coordinator journals
//! each batch as a single node does — cache hits from its own journal,
//! measurements slot-ascending, then the batch-end marker — so worker
//! death only moves slots to another worker (synchronous re-lease) and
//! never touches the journal.
//!
//! Cold runs federate *nothing*: peer caches are consulted only when a
//! worker is started with `--peers`, the warm-rerun configuration. A
//! warm rerun resolves every slot from replay, local cache, or a peer's
//! cache and performs zero model evaluations.

pub mod coordinator;
pub mod plane;
pub mod wire;
pub mod worker;

pub use coordinator::{run_fleet_campaign, FleetConfig, FleetError, FleetOutcome};
pub use plane::{start_plane, PlaneConfig};
pub use worker::{HttpPeers, Worker, WorkerConfig};
