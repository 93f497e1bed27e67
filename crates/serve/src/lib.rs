//! # neurofail-serve
//!
//! Async certification serving for the `neurofail` workspace: answer many
//! small independent disturbance queries `|F_neu(x) − F_fail(x)|` against
//! long-lived registered fault plans, at batched-engine throughput.
//!
//! Campaigns evaluate one plan over a large input set; a *service*
//! receives the transpose — a stream of single-input queries from many
//! concurrent clients, each against some registered plan. Serving each
//! query as its own scalar evaluation forfeits everything the batched
//! substrate won. This crate closes that gap with **micro-batching**: per
//! shard, a worker collects queued queries and flushes them — on
//! `max_batch` rows, or when the `max_wait` coalescing deadline expires,
//! whichever is first — through the suffix engine: one nominal
//! checkpoint for the flush, from the worker's
//! [`CheckpointCache`](neurofail_inject::CheckpointCache), plus a faulty
//! pass per plan **resumed** at that plan's first faulty layer
//! ([`CompiledPlan::output_error_resumed`](neurofail_inject::CompiledPlan::output_error_resumed)
//! semantics, bitwise equal to the two-full-passes
//! [`output_error_batch`](neurofail_inject::CompiledPlan::output_error_batch)
//! reference). With [`ServeConfig::coalesce_plans`], plans sharing one
//! network are grouped onto **shared-net shards**, so queries against
//! *different* plans coalesce into a single nominal pass too; the skipped
//! prefix work is reported as [`ServeStats::nominal_rows_saved`].
//!
//! The design is thread + bounded-channel based (no async runtime — the
//! workspace is dependency-free), built from:
//!
//! * [`neurofail_inject::PlanRegistry`] — the plan set being served;
//! * [`neurofail_par::channel`] — bounded FIFO queues giving backpressure
//!   and deadline-based flush timing;
//! * per-worker [`neurofail_nn::BatchWorkspace`]s reused across flushes
//!   (allocation-free in the steady state).
//!
//! ## Contracts
//!
//! * **Bitwise serving equivalence** — every served value equals a direct
//!   singleton `output_error_batch` evaluation of that input, bit for bit,
//!   regardless of how requests were coalesced, how many workers a shard
//!   runs, or the arrival order. This is the batched engine's per-row
//!   independence surfacing at the service boundary, and is
//!   property-tested in `tests/serve_equivalence.rs`.
//! * **Deterministic replay** — with [`ServeConfig::record_log`] on, the
//!   server records `(plan, seq, input, value)` for every request;
//!   [`RequestLog::verify`] replays each entry directly and requires
//!   bitwise agreement.
//! * **Graceful shutdown** — [`CertServer::shutdown`] stops intake
//!   (type-enforced: it consumes the server), drains every queued
//!   request, joins the workers, and leaves all outstanding
//!   [`ResponseHandle`]s resolvable. No accepted request is dropped.
//! * **Crash-recovery invisibility** — every shard runs under a
//!   supervisor: a panicked worker is respawned, its staged-but-
//!   unanswered rows are requeued (never dropped, never double-answered),
//!   and a plan whose flushes keep panicking is quarantined. Every
//!   accepted request is answered bitwise-correctly exactly once or fails
//!   with a typed [`RequestError`] ([`Deadline`](RequestError::Deadline),
//!   [`Quarantined`](RequestError::Quarantined),
//!   [`WorkerDied`](RequestError::WorkerDied)); chaos changes *which* of
//!   the two — and the recovery statistics — never an answered value.
//!   Exercised by `tests/chaos_serve.rs` under `--features failpoints`.
//! * **Graceful degradation** — per-request deadlines
//!   ([`CertServer::submit_within`]), capped-exponential
//!   deterministic-jitter retry ([`CertServer::submit_with_retry`]), and
//!   overload shedding ([`ServeConfig::shed_budget`], typed
//!   [`SubmitError::Overloaded`]) make overload observable and bounded
//!   instead of silent and unbounded.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use neurofail_inject::{InjectionPlan, PlanRegistry};
//! use neurofail_nn::activation::Activation;
//! use neurofail_nn::MlpBuilder;
//! use neurofail_serve::{CertServer, ServeConfig};
//! use neurofail_data::rng::rng;
//! use neurofail_tensor::init::Init;
//!
//! // A trained (here: randomly initialised) network and a fault plan.
//! let net = Arc::new(
//!     MlpBuilder::new(2)
//!         .dense(8, Activation::Sigmoid { k: 1.0 })
//!         .dense(8, Activation::Sigmoid { k: 1.0 })
//!         .init(Init::Uniform { a: 0.8 })
//!         .build(&mut rng(7)),
//! );
//! let mut registry = PlanRegistry::new();
//! let plan = registry
//!     .register(net, &InjectionPlan::crash([(0, 1), (1, 3)]), 1.0)
//!     .unwrap();
//!
//! // Serve it. Queries coalesce into batched evaluations transparently.
//! let server = CertServer::start(&registry, ServeConfig::default());
//! let disturbance = server.query(plan, &[0.25, 0.75]).unwrap();
//! assert!(disturbance >= 0.0);
//!
//! // Asynchronous use: submit now, wait later.
//! let handle = server.submit(plan, vec![0.5, 0.5]).unwrap();
//! let response = handle.wait_response().unwrap();
//! assert!(response.batch_rows >= 1);
//!
//! let stats = server.stats(plan).unwrap();
//! assert_eq!(stats.rows_served, 2);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod replay;
pub mod server;
pub mod stats;

pub use config::ServeConfig;
/// The shared store handle [`CertServer::start_with_store`] takes,
/// re-exported so deployments can build it without naming the inject
/// crate.
pub use neurofail_inject::{share_store, SharedArtifactStore};
pub use replay::{LogEntry, ReplayError, RequestLog};
pub use server::{
    CertServer, RequestError, ResponseHandle, RetryPolicy, ServedResponse, SubmitError,
};
pub use stats::{
    ServeStats, BATCH_BUCKETS, BATCH_BUCKET_LABELS, RETRY_BUCKETS, RETRY_BUCKET_LABELS,
};
