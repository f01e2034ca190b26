//! Distributed campaign fabric: a coordinator that leases slot ranges to
//! worker processes and journals the campaign as a single node would.
//!
//! The fabric splits one iterative campaign across a fleet of worker
//! processes without giving up the workspace's determinism contract:
//! the coordinator's journal of an N-worker run — under any
//! partitioning, lease reassignment, or mid-run `kill -9` of a worker —
//! is **byte-identical** to the journal a single node would have written.
//!
//! Four pieces:
//!
//! * [`wire`] — the JSON lease protocol (integers exact, measured
//!   values as IEEE-754 bit patterns);
//! * [`worker`] — a node that measures leased slot ranges through the
//!   persistent path, journals them to its own shard store (its
//!   evaluation cache and replay log), and serves that cache to peers;
//! * [`coordinator`] — drives the iterative session over its own
//!   journal, leases the slots the session could not resolve from it,
//!   and re-leases on worker death;
//! * [`plane`] — the coordinator's observability endpoint: the whole
//!   fleet's metrics and one stitched trace, scraped as a single target.
//!   It and both worker endpoints answer `/healthz`, `/metrics` and
//!   `/metrics.json` from the shared HTTP core ([`optassign_httpd`]).
//!
//! Why it works: every slot's fault stream is keyed by its global slot
//! index, so a slot measures to the same record wherever it lands, and
//! a lease answer carries that whole record. The coordinator resolves
//! and journals each batch through the code a single node runs — replay
//! and cache hits from its own journal, measurements slot-ascending,
//! then the batch-end marker — so worker death only moves slots to
//! another worker (synchronous re-lease) and never touches the journal,
//! and a coordinator rerun on its data dir resumes the journal.
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
