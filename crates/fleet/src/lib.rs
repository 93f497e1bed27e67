//! # neurofail-fleet
//!
//! The multi-process certification fleet of the `neurofail` workspace:
//! N worker *processes*, each embedding one supervised
//! [`CertServer`](neurofail_serve::CertServer) per admitted plan, behind
//! one [`FleetRouter`] front-end — serving equivalence, campaign
//! determinism, and crash recovery carried across the process boundary.
//!
//! * [`proto`] — the wire protocol: length-prefixed, versioned,
//!   checksummed frames over the workspace's own
//!   [`ByteWriter`](neurofail_tensor::ByteWriter)/
//!   [`ByteReader`](neurofail_tensor::ByteReader) codec. Any damaged
//!   frame surfaces as a typed [`ProtocolError`] and a connection reset —
//!   never a panic, a hang, or a silently wrong value (fuzz-certified in
//!   `tests/fleet_protocol.rs`). Senders queue whole frames
//!   ([`proto::push_message`]) and write a burst of them at once, just
//!   before the sending thread would block; receivers read through a
//!   buffer, so a burst costs one read.
//! * [`transport`] — unix-domain sockets or localhost TCP behind one
//!   address string; the router binds a unix socket, workers dial in, the
//!   router supervises.
//! * [`worker`] — the worker process shell: env-configured
//!   ([`run_worker_from_env`]), starting one server per plan as it is
//!   registered and serving every frame through the same engine a
//!   single-process deployment uses, so fleet answers are
//!   *protocol-transported*, not recomputed differently.
//! * [`router`] — plans admitted **once** at the router (one typed
//!   `CompiledPlan::compile`; structure hash = home shard), hot plans' input
//!   space partitioned round-robin across the fleet, campaigns sharded
//!   by trial range with a deterministic trial-order merge, and PR 7's
//!   supervision over sockets: heartbeats, per-connection in-flight
//!   tables (a dead worker's unanswered rows requeue — never dropped,
//!   never double-answered), strike-based quarantine, typed
//!   `#[non_exhaustive]` errors with `retry_after` hints over the wire.
//!
//! ## Contracts (ARCHITECTURE.md, contract 15)
//!
//! * **Fleet equivalence** — every fleet-served value and every
//!   fleet-run campaign is bitwise equal to a single-process
//!   `CertServer`/`run_campaign` over the same plans and inputs, for any
//!   worker count and across mid-run membership changes
//!   (`tests/fleet_equivalence.rs`).
//! * **Chaos certification** — under seeded process kills and
//!   failpoint-armed workers, no accepted request is lost, duplicated,
//!   or answered wrongly; every surviving worker's request log
//!   replay-verifies bitwise; a killed worker's warm streaming state
//!   degrades only to recomputation, visible solely in the statistics
//!   (`tests/fleet_chaos.rs`, `--features failpoints`).
//!
//! ## Example
//!
//! See `examples/fleet.rs`: a two-worker fleet serving queries and a
//! sharded campaign, with one worker killed mid-run.

#![warn(missing_docs)]

pub mod proto;
pub mod router;
pub mod transport;
pub mod worker;

pub use proto::{Message, ProtocolError, WireTrial, WireWorkerStats};
pub use router::{
    reexec_spawner, FleetAudit, FleetConfig, FleetError, FleetHandle, FleetPlanId, FleetRouter,
    FleetStats, WorkerAudit, WorkerLaunch, WorkerSpawner,
};
pub use transport::{FleetListener, FleetStream, Transport};
pub use worker::{run_worker, run_worker_from_env, ENV_ADDR, ENV_CHAOS, ENV_GEN, ENV_WORKER};
