//! The certification server: plan-sharded workers behind micro-batching
//! queues, under crash supervision.
//!
//! Topology: every **shard** — one registered plan, or, with
//! [`ServeConfig::coalesce_plans`], the whole group of plans sharing one
//! network — gets a bounded request queue ([`neurofail_par::channel`]),
//! one or more worker threads that own clones of the shard's
//! [`RegisteredPlan`]s and private [`BatchWorkspace`]s, and a
//! **supervisor** thread watching the workers. Workers run the
//! micro-batching loop:
//!
//! 1. block on the queue for a first request;
//! 2. greedily drain further requests (without blocking) up to
//!    [`ServeConfig::max_batch`];
//! 3. if the batch is still short, wait for more until the
//!    [`ServeConfig::max_wait`] deadline;
//! 4. reap rows that must not be served (expired deadlines, quarantined
//!    plans — each failed with a typed [`RequestError`]), stage the rest
//!    into the shard's per-worker **in-flight table**, get **one nominal
//!    checkpoint** for the whole flush from the worker's
//!    [`CheckpointCache`] (capacity 1, over the shard's store), resume
//!    each plan's faulty pass at its first faulty layer against that
//!    checkpoint (the suffix engine), and answer each row exactly once by
//!    *taking* it out of the table.
//!
//! The worker cache is the only way a flush gets its nominal pass. A
//! flush identical to the worker's previous one reuses its checkpoint; a
//! flush that *starts* bitwise with the previous one (re-certification
//! traffic resubmitting a probe set plus new arrivals) extends it by the
//! new rows only; any other flush is looked up in the shard's store, if
//! it has one (a shard-mate's, an earlier worker's or an earlier
//! process's flush), and only a miss runs a full nominal pass, written
//! through. A serve checkpoint never exceeds [`ServeConfig::max_batch`]
//! rows, so the cache needs no row budget.
//!
//! ## Supervision (crash recovery)
//!
//! A worker panic can strand two kinds of rows: whatever the dead worker
//! had staged in its in-flight table, and whatever is still queued. The
//! shard supervisor turns both into ordinary delays instead of losses:
//!
//! * it learns of the death through a control event sent by the worker's
//!   drop guard, joins the thread, and recovers every row still `Some`
//!   in the dead worker's in-flight table — answered rows were already
//!   taken out (`None`), so a recovered row can never be double-answered;
//! * it respawns the worker with the recovered rows as its **first
//!   batch** (no queue round-trip, so recovery cannot deadlock on a full
//!   queue), fresh workspaces and an empty checkpoint cache — the
//!   discarded checkpoint only changes
//!   [`checkpoint_hits`](crate::ServeStats::checkpoint_hits) statistics,
//!   never values;
//! * a panic that strikes *inside one plan's suffix resume* is attributed
//!   to that plan; after [`ServeConfig::max_plan_strikes`] strikes the
//!   plan is **quarantined** — its submissions fail fast with
//!   [`SubmitError::Quarantined`] and its queued rows are failed typed —
//!   so one poison plan cannot crash-loop a coalesced shard.
//!
//! The resulting contract (ARCHITECTURE.md contract 12): every accepted
//! request is answered bitwise-correctly exactly once, or fails with a
//! typed [`RequestError`]; worker death changes *which* of the two and
//! the recovery statistics, never an answered value.
//!
//! Per-row batch independence plus the suffix engine's bitwise contract
//! make the coalescing semantically invisible: each response is bitwise
//! the value a direct singleton
//! [`output_error_batch`](neurofail_inject::CompiledPlan::output_error_batch)
//! evaluation returns. Shutdown is graceful by construction — dropping
//! the queue senders lets workers drain everything still queued before
//! they observe the disconnect and exit; the supervisor exits once every
//! worker has wound down normally.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neurofail_inject::{
    CheckpointCache, CheckpointSource, PlanId, PlanRegistry, RegisteredPlan, SharedArtifactStore,
};
use neurofail_nn::BatchWorkspace;
use neurofail_par::channel::{self, TrySendError};
use neurofail_par::oneshot::Oneshot;
use neurofail_par::seed::splitmix64;
use neurofail_tensor::Matrix;

use crate::config::ServeConfig;
use crate::replay::{LogEntry, RequestLog};
use crate::stats::{ServeStats, ShardStats};

/// Why a submission was not accepted.
///
/// Non-exhaustive: future server versions may refuse submissions for new
/// reasons; match with a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// No plan with this id is registered.
    UnknownPlan(
        /// The offending id.
        PlanId,
    ),
    /// The input's length does not match the plan's network.
    DimensionMismatch {
        /// Input dimension the plan's network expects.
        expected: usize,
        /// Length of the submitted input.
        got: usize,
    },
    /// The shard's queue is at capacity (returned by
    /// [`CertServer::try_submit`] only; [`CertServer::submit`] blocks
    /// instead). Carries the observed depth and a backoff hint so callers
    /// — and [`CertServer::submit_with_retry`] — can wait an informed
    /// amount instead of guessing.
    QueueFull {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
        /// Estimated time until the queue has drained (depth × the
        /// shard's EWMA per-row flush cost) — a reasonable first backoff.
        retry_after: Duration,
    },
    /// The overload budget ([`ServeConfig::shed_budget`]) rejected the
    /// submission: the estimated queue wait exceeds what the deployment
    /// is willing to let a new request absorb. Degradation made graceful
    /// and observable (counted in
    /// [`requests_shed`](crate::ServeStats::requests_shed)).
    Overloaded {
        /// Queue depth observed at shed time.
        depth: usize,
        /// The wait estimate that broke the budget.
        estimated_wait: Duration,
    },
    /// The plan was quarantined after repeated flush panics
    /// ([`ServeConfig::max_plan_strikes`]); it no longer accepts traffic.
    Quarantined(
        /// The quarantined plan.
        PlanId,
    ),
    /// Every worker of this plan's shard has died and nothing would ever
    /// serve the request. Unreachable under supervision (dead workers are
    /// respawned); retained for exhaustive handling by older callers.
    ShardDown(
        /// The affected plan.
        PlanId,
    ),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownPlan(id) => write!(f, "no registered {id}"),
            SubmitError::DimensionMismatch { expected, got } => {
                write!(f, "input dimension {got}, plan expects {expected}")
            }
            SubmitError::QueueFull {
                depth,
                capacity,
                retry_after,
            } => write!(
                f,
                "shard queue full (depth {depth}/{capacity}, retry after ~{retry_after:?})"
            ),
            SubmitError::Overloaded {
                depth,
                estimated_wait,
            } => write!(
                f,
                "overloaded: estimated wait {estimated_wait:?} at depth {depth} exceeds the shed budget"
            ),
            SubmitError::Quarantined(id) => {
                write!(f, "{id} is quarantined after repeated flush panics")
            }
            SubmitError::ShardDown(id) => {
                write!(f, "every worker of {id}'s shard has died")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *accepted* request was not answered with a value. The typed
/// half of the serving contract: chaos may turn an answer into one of
/// these, never into a wrong or missing value.
///
/// Non-exhaustive: future server versions may fail requests for new
/// reasons; match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The serving worker died before answering and the row could not be
    /// recovered (e.g. the server shut down mid-recovery).
    WorkerDied,
    /// The request's deadline expired before a worker staged it.
    Deadline,
    /// The request's plan was quarantined while the request was queued or
    /// in flight.
    Quarantined(
        /// The quarantined plan.
        PlanId,
    ),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::WorkerDied => write!(f, "serving worker died before answering"),
            RequestError::Deadline => write!(f, "request deadline expired before serving"),
            RequestError::Quarantined(id) => {
                write!(f, "{id} was quarantined while the request was pending")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Backoff policy for [`CertServer::submit_with_retry`]: capped
/// exponential backoff with deterministic jitter.
///
/// Retry `k` (1-based) sleeps `min(cap, max(jitter · base · 2^(k−1),
/// hint))`, where `hint` is the server's `retry_after` / `estimated_wait`
/// from the rejection and `jitter ∈ [0.5, 1.0)` is derived purely from
/// `(jitter_seed, k)` via SplitMix64 — so a retry schedule is replayable,
/// chaos-test friendly, and still decorrelates concurrent clients that
/// use different seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total submission attempts (≥ 1); `1` means no retries.
    pub max_attempts: u32,
    /// First retry's nominal backoff (doubled each further retry).
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(10),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (1-based), given the server's
    /// backoff `hint` from the rejection. Pure: same `(policy, attempt,
    /// hint)` → same duration.
    pub fn backoff(&self, attempt: u32, hint: Duration) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let u = splitmix64(self.jitter_seed ^ u64::from(attempt));
        let jitter = 0.5 + (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 0.5;
        exp.mul_f64(jitter).max(hint).min(self.cap)
    }
}

/// A served response with its serving metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedResponse {
    /// The disturbance `|F_neu(x) − F_fail(x)|`.
    pub value: f64,
    /// The request's global submission sequence number.
    pub seq: u64,
    /// How many rows rode in the flush that served this request.
    pub batch_rows: usize,
    /// Submit→response latency.
    pub latency: Duration,
}

/// One request's resolution: its response, or why it failed.
type Resolution = Result<ServedResponse, RequestError>;

/// Worker-side half of a request's [`Oneshot`]: fulfil or fail it once.
/// Dropping it unresolved (worker panic with the row unrecoverable) fails
/// the request with [`RequestError::WorkerDied`] so the waiter errors
/// instead of hanging; after an answer that fill is ignored.
struct Responder(Arc<Oneshot<Resolution>>);

impl Responder {
    fn send(self, resp: ServedResponse) {
        self.0.fill(Ok(resp));
    }

    fn fail(self, err: RequestError) {
        self.0.fill(Err(err));
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.0.fill(Err(RequestError::WorkerDied));
    }
}

/// Caller-side handle to one in-flight query.
///
/// Dropping the handle is allowed (fire-and-forget); the worker still
/// evaluates and logs the request.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<Oneshot<Resolution>>,
    seq: u64,
}

impl ResponseHandle {
    /// The request's global submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until the request resolves and return the served value.
    ///
    /// # Errors
    /// The typed [`RequestError`] if the request failed instead of being
    /// served (deadline expiry, plan quarantine, unrecoverable worker
    /// death).
    pub fn wait(self) -> Result<f64, RequestError> {
        self.wait_response().map(|r| r.value)
    }

    /// Block until the request resolves, returning value + metadata.
    ///
    /// # Errors
    /// As [`wait`](Self::wait).
    pub fn wait_response(self) -> Result<ServedResponse, RequestError> {
        self.slot.wait()
    }

    /// Non-blocking probe: `Some` once the request resolved — `Ok` with
    /// the response, `Err` with the typed failure. The resolution stays
    /// readable; a later [`wait`](Self::wait) returns it again.
    pub fn try_wait(&self) -> Option<Result<ServedResponse, RequestError>> {
        self.slot.wait_for(Duration::ZERO)
    }
}

/// One queued query. `slot` indexes the plan within its shard's plan
/// group (always 0 for per-plan shards).
struct Request {
    slot: usize,
    seq: u64,
    input: Vec<f64>,
    submitted: Instant,
    deadline: Option<Instant>,
    resp: Responder,
}

/// `current_slot` sentinel: the worker is not inside any plan's suffix
/// resume, so a panic is not attributable to a plan.
const SLOT_NONE: usize = usize::MAX;

/// Entries of each worker's checkpoint cache: the previous flush's
/// checkpoint, which the next flush reuses or extends.
const WORKER_CACHE_ENTRIES: usize = 1;

/// Worker→supervisor control events.
enum Event {
    /// Worker thread `worker` exited; `panicked` distinguishes a crash
    /// from the orderly queue-drained exit.
    Down {
        /// The worker's index within its shard.
        worker: usize,
        /// Whether the thread was unwinding when the event fired.
        panicked: bool,
    },
}

/// Sends the `Down` event when the worker thread exits — by panic or by
/// orderly return — so the supervisor learns of every death exactly once.
struct DownGuard {
    ctl: channel::Sender<Event>,
    worker: usize,
}

impl Drop for DownGuard {
    fn drop(&mut self) {
        let _ = self.ctl.send(Event::Down {
            worker: self.worker,
            panicked: std::thread::panicking(),
        });
    }
}

/// State shared by a shard's workers, supervisor, and the submit path.
struct ShardShared {
    /// Shard index (thread naming on respawn).
    shard: usize,
    /// The shard's plan group — one entry per slot, all sharing a net.
    plans: Vec<(PlanId, RegisteredPlan)>,
    /// The shard queue's receive side. Held here (not per worker) so
    /// respawned workers can re-attach; the queue disconnects only when
    /// the server drops its sender at shutdown.
    rx: channel::Receiver<Request>,
    cfg: ServeConfig,
    stats: Arc<ShardStats>,
    log: Option<Arc<Mutex<Vec<LogEntry>>>>,
    /// Per-worker in-flight tables: the rows a worker has staged but not
    /// yet answered. `Some` = staged, `None` = answered (taken). The
    /// supervisor recovers the `Some` rows of a dead worker — answered
    /// rows are structurally impossible to recover twice.
    inflight: Vec<Mutex<Vec<Option<Request>>>>,
    /// Per-worker: the plan slot whose suffix resume is executing, or
    /// [`SLOT_NONE`]. Read by the supervisor (after joining the dead
    /// thread) to attribute a panic to a plan.
    current_slot: Vec<AtomicUsize>,
    /// Per-plan-slot flush-panic strike counters.
    strikes: Vec<AtomicU32>,
    /// Per-plan-slot quarantine flags (set at `max_plan_strikes`).
    quarantined: Vec<AtomicBool>,
    /// Shared persistent checkpoint tier
    /// ([`CertServer::start_with_store`]) under every worker's checkpoint
    /// cache, so shard-mates, respawned workers, and future processes
    /// reuse each other's flushes. `None` = memory only.
    store: Option<SharedArtifactStore>,
}

/// One shard: the queue's send side, the supervisor handle, and the
/// shared state (stats, quarantine flags, in-flight tables).
struct Shard {
    /// `Some` while the server accepts traffic; taken (dropped) at
    /// shutdown so workers can drain and exit.
    tx: Option<channel::Sender<Request>>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<ShardShared>,
    input_dim: usize,
}

/// The async certification server: registered plans behind supervised
/// micro-batching worker shards. See the [crate docs](crate) for the full
/// contract and a usage example.
pub struct CertServer {
    shards: Vec<Shard>,
    /// `PlanId.0 → (shard index, slot within the shard's plan group)`.
    routes: Vec<(usize, usize)>,
    seq: AtomicU64,
    log: Option<Arc<Mutex<Vec<LogEntry>>>>,
    cfg: ServeConfig,
}

impl CertServer {
    /// Spawn a server over every plan in `registry` (cloned out of it; the
    /// caller keeps the registry, e.g. for replay verification).
    ///
    /// With [`ServeConfig::coalesce_plans`] set, plans in the same
    /// admission family (registered against content-equal networks —
    /// `Arc` identity not required) share one shard, and each flush
    /// serves all of them from a single nominal pass plus per-plan suffix
    /// resumes; otherwise every plan gets its own shard (whose flushes
    /// still run the suffix engine for the one plan they serve). Every
    /// shard also gets a supervisor thread that respawns panicked workers
    /// and requeues their staged rows (see the [module docs](self)).
    ///
    /// # Panics
    /// On nonsensical `cfg` (zero `max_batch`, `queue_capacity` or
    /// `max_plan_strikes`).
    pub fn start(registry: &PlanRegistry, cfg: ServeConfig) -> CertServer {
        Self::start_inner(registry, cfg, None)
    }

    /// [`start`](Self::start), with a shared persistent checkpoint tier:
    /// every worker's checkpoint cache consults `store` before running a
    /// flush's nominal pass and writes fresh checkpoints through. With a
    /// populated store, the server's **first** query over a known input
    /// set is served without any nominal forward pass (a warm start —
    /// [`ServeStats::store_hits`]); and because the store outlives
    /// workers, shard-mates and restarted workers reuse each other's
    /// flushes where a worker's own cache cannot.
    ///
    /// The store's own contract keeps this safe: hits are bitwise-verified
    /// against the stored network and input set, so served values are
    /// bitwise identical to compute, and store damage degrades to a
    /// compute (`tests/serve_equivalence.rs`, `tests/store_corruption.rs`).
    pub fn start_with_store(
        registry: &PlanRegistry,
        cfg: ServeConfig,
        store: SharedArtifactStore,
    ) -> CertServer {
        Self::start_inner(registry, cfg, Some(store))
    }

    fn start_inner(
        registry: &PlanRegistry,
        cfg: ServeConfig,
        store: Option<SharedArtifactStore>,
    ) -> CertServer {
        cfg.validate();
        let log = cfg
            .record_log
            .then(|| Arc::new(Mutex::new(Vec::<LogEntry>::new())));
        // Partition plans into shard groups: singletons, or per admission
        // family. Families are assigned at registration over net *content*
        // (`NetId`: hash indexes, bytes prove — `PlanRegistry::register`),
        // so plans registered against content-equal nets coalesce even
        // when their `Arc`s differ, and the grouping here is pure index
        // comparison.
        let mut groups: Vec<Vec<(PlanId, RegisteredPlan)>> = Vec::new();
        let mut routes = Vec::with_capacity(registry.len());
        for (id, entry) in registry.iter() {
            let group = if cfg.coalesce_plans {
                groups
                    .iter()
                    .position(|g| g[0].1.family() == entry.family())
            } else {
                None
            };
            match group {
                Some(g) => {
                    routes.push((g, groups[g].len()));
                    groups[g].push((id, entry.clone()));
                }
                None => {
                    routes.push((groups.len(), 0));
                    groups.push(vec![(id, entry.clone())]);
                }
            }
        }
        let shards = groups
            .into_iter()
            .enumerate()
            .map(|(shard_idx, plans)| {
                let (tx, rx) = channel::bounded::<Request>(cfg.queue_capacity);
                let workers = cfg.workers.worker_count();
                // Control channel sized so every worker can post its Down
                // event without blocking even if the supervisor is busy.
                let (ctl_tx, ctl_rx) = channel::bounded::<Event>(workers * 2 + 4);
                let stats = Arc::new(ShardStats::default());
                let input_dim = plans[0].1.input_dim();
                let plan_count = plans.len();
                let shared = Arc::new(ShardShared {
                    shard: shard_idx,
                    plans,
                    rx,
                    cfg,
                    stats: Arc::clone(&stats),
                    log: log.clone(),
                    inflight: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
                    current_slot: (0..workers).map(|_| AtomicUsize::new(SLOT_NONE)).collect(),
                    strikes: (0..plan_count).map(|_| AtomicU32::new(0)).collect(),
                    quarantined: (0..plan_count).map(|_| AtomicBool::new(false)).collect(),
                    store: store.clone(),
                });
                let handles: Vec<Option<JoinHandle<()>>> = (0..workers)
                    .map(|w| Some(spawn_worker(&shared, w, Vec::new(), ctl_tx.clone())))
                    .collect();
                let supervisor = {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("neurofail-serve-sup{shard_idx}"))
                        .spawn(move || supervisor_loop(shared, ctl_rx, ctl_tx, handles))
                        .expect("spawn serve supervisor")
                };
                Shard {
                    tx: Some(tx),
                    supervisor: Some(supervisor),
                    shared,
                    input_dim,
                }
            })
            .collect();
        CertServer {
            shards,
            routes,
            seq: AtomicU64::new(0),
            log,
            cfg,
        }
    }

    /// Number of registered plans being served.
    pub fn plan_count(&self) -> usize {
        self.routes.len()
    }

    /// Number of worker shards (equals the plan count unless
    /// [`ServeConfig::coalesce_plans`] grouped shared-net plans).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Input dimension queries against `plan` must have.
    pub fn input_dim(&self, plan: PlanId) -> Option<usize> {
        let &(shard, _) = self.routes.get(plan.0)?;
        Some(self.shards[shard].input_dim)
    }

    fn checked_shard(&self, plan: PlanId, input: &[f64]) -> Result<(&Shard, usize), SubmitError> {
        let &(shard, slot) = self
            .routes
            .get(plan.0)
            .ok_or(SubmitError::UnknownPlan(plan))?;
        let shard = &self.shards[shard];
        if input.len() != shard.input_dim {
            return Err(SubmitError::DimensionMismatch {
                expected: shard.input_dim,
                got: input.len(),
            });
        }
        if shard.shared.quarantined[slot].load(Ordering::Relaxed) {
            return Err(SubmitError::Quarantined(plan));
        }
        Ok((shard, slot))
    }

    fn make_request(
        &self,
        slot: usize,
        input: Vec<f64>,
        deadline: Option<Instant>,
    ) -> (Request, ResponseHandle) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let oneshot = Oneshot::new();
        (
            Request {
                slot,
                seq,
                input,
                submitted: Instant::now(),
                deadline,
                resp: Responder(Arc::clone(&oneshot)),
            },
            ResponseHandle { slot: oneshot, seq },
        )
    }

    /// `retry_after` hint: estimated time until the shard's queue drains
    /// (depth × EWMA per-row flush cost, ≥ 1 queue slot's worth).
    fn drain_estimate(shard: &Shard, depth: usize) -> Duration {
        Duration::from_nanos(
            shard
                .shared
                .stats
                .est_row_cost_ns()
                .saturating_mul(depth.max(1) as u64),
        )
    }

    fn submit_inner(
        &self,
        plan: PlanId,
        input: Vec<f64>,
        deadline: Option<Instant>,
        block: bool,
    ) -> Result<ResponseHandle, SubmitError> {
        let (shard, slot) = self.checked_shard(plan, &input)?;
        let tx = shard.tx.as_ref().expect("server accepts traffic");
        // Chaos site: force the backpressure path without a full queue.
        if neurofail_par::failpoint_reject!("serve::submit") {
            shard.shared.stats.on_reject();
            let depth = tx.len();
            return Err(SubmitError::QueueFull {
                depth,
                capacity: self.cfg.queue_capacity,
                retry_after: Self::drain_estimate(shard, depth),
            });
        }
        // Overload shedding: reject-newest once the estimated queue wait
        // exceeds the budget, instead of queueing work that would miss
        // any latency target anyway.
        if let Some(budget) = self.cfg.shed_budget {
            let depth = tx.len();
            let estimated_wait = Duration::from_nanos(
                shard
                    .shared
                    .stats
                    .est_row_cost_ns()
                    .saturating_mul(depth as u64),
            );
            if estimated_wait > budget {
                shard.shared.stats.on_shed();
                return Err(SubmitError::Overloaded {
                    depth,
                    estimated_wait,
                });
            }
        }
        let (req, handle) = self.make_request(slot, input, deadline);
        if block {
            match tx.send(req) {
                Ok(depth) => {
                    shard.shared.stats.on_submit(depth);
                    Ok(handle)
                }
                // All receiver clones are gone ⇒ every shard worker died
                // unsupervised. Unreachable while the supervisor lives.
                Err(_) => Err(SubmitError::ShardDown(plan)),
            }
        } else {
            match tx.try_send(req) {
                Ok(depth) => {
                    shard.shared.stats.on_submit(depth);
                    Ok(handle)
                }
                Err(TrySendError::Full(_)) => {
                    shard.shared.stats.on_reject();
                    let depth = tx.len();
                    Err(SubmitError::QueueFull {
                        depth,
                        capacity: self.cfg.queue_capacity,
                        retry_after: Self::drain_estimate(shard, depth),
                    })
                }
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShardDown(plan)),
            }
        }
    }

    /// Enqueue a disturbance query against `plan`, blocking while the
    /// shard's queue is full (backpressure).
    ///
    /// # Errors
    /// [`SubmitError::UnknownPlan`] / [`SubmitError::DimensionMismatch`]
    /// on malformed submissions (the queue is never touched),
    /// [`SubmitError::Quarantined`] for a quarantined plan,
    /// [`SubmitError::Overloaded`] when the shed budget rejects the
    /// submission, and [`SubmitError::ShardDown`] in the unsupervised
    /// worker-death case (unreachable under supervision).
    pub fn submit(&self, plan: PlanId, input: Vec<f64>) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(plan, input, None, true)
    }

    /// [`submit`](Self::submit) with an explicit per-request deadline:
    /// if no worker has staged the request `timeout` from now, it fails
    /// with [`RequestError::Deadline`] instead of being served late.
    ///
    /// # Errors
    /// As [`submit`](Self::submit).
    pub fn submit_within(
        &self,
        plan: PlanId,
        input: Vec<f64>,
        timeout: Duration,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(plan, input, Some(Instant::now() + timeout), true)
    }

    /// Enqueue without blocking: a full queue is reported as
    /// [`SubmitError::QueueFull`] (and counted in the shard's
    /// [`ServeStats::rejected`]) instead of waiting.
    ///
    /// # Errors
    /// As [`CertServer::submit`], plus [`SubmitError::QueueFull`].
    pub fn try_submit(&self, plan: PlanId, input: Vec<f64>) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(plan, input, None, false)
    }

    /// [`try_submit`](Self::try_submit) with capped-exponential backoff:
    /// on [`QueueFull`](SubmitError::QueueFull) or
    /// [`Overloaded`](SubmitError::Overloaded), sleep per
    /// [`RetryPolicy::backoff`] (never less than the server's own
    /// `retry_after` hint) and try again, up to
    /// [`RetryPolicy::max_attempts`] total attempts. Retries are counted
    /// in the shard's [`retry_hist`](crate::ServeStats::retry_hist) and
    /// [`total_backoff`](crate::ServeStats::total_backoff).
    ///
    /// # Errors
    /// The last rejection once attempts are exhausted; non-retryable
    /// errors (unknown plan, dimension mismatch, quarantine) immediately.
    ///
    /// # Panics
    /// If `policy.max_attempts` is 0.
    pub fn submit_with_retry(
        &self,
        plan: PlanId,
        input: &[f64],
        policy: RetryPolicy,
    ) -> Result<ResponseHandle, SubmitError> {
        assert!(policy.max_attempts >= 1, "max_attempts must be >= 1");
        let mut attempt = 0u32;
        loop {
            match self.try_submit(plan, input.to_vec()) {
                Ok(handle) => return Ok(handle),
                Err(err) => {
                    let hint = match &err {
                        SubmitError::QueueFull { retry_after, .. } => *retry_after,
                        SubmitError::Overloaded { estimated_wait, .. } => *estimated_wait,
                        _ => return Err(err),
                    };
                    attempt += 1;
                    if attempt >= policy.max_attempts {
                        return Err(err);
                    }
                    let backoff = policy.backoff(attempt, hint);
                    if let Some(&(shard, _)) = self.routes.get(plan.0) {
                        self.shards[shard]
                            .shared
                            .stats
                            .on_retry(attempt, backoff.as_nanos() as u64);
                    }
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    /// Synchronous convenience: submit and wait.
    ///
    /// # Errors
    /// As [`CertServer::submit`].
    ///
    /// # Panics
    /// If the request fails with a typed [`RequestError`] (quarantine,
    /// unrecoverable worker death) — use [`submit`](Self::submit) +
    /// [`ResponseHandle::wait`] to handle those.
    pub fn query(&self, plan: PlanId, input: &[f64]) -> Result<f64, SubmitError> {
        let handle = self.submit(plan, input.to_vec())?;
        Ok(handle.wait().expect("serving worker answered"))
    }

    /// Snapshot `plan`'s serving statistics. Under
    /// [`ServeConfig::coalesce_plans`], plans grouped onto one shared-net
    /// shard share one statistics block — the snapshot covers the whole
    /// shard's traffic.
    pub fn stats(&self, plan: PlanId) -> Option<ServeStats> {
        let &(shard, _) = self.routes.get(plan.0)?;
        let s = &self.shards[shard];
        let depth = s.tx.as_ref().map_or(0, channel::Sender::len);
        Some(s.shared.stats.snapshot(depth))
    }

    /// Whether `plan` is currently quarantined (crossed
    /// [`ServeConfig::max_plan_strikes`] attributed flush panics).
    pub fn is_quarantined(&self, plan: PlanId) -> Option<bool> {
        let &(shard, slot) = self.routes.get(plan.0)?;
        Some(self.shards[shard].shared.quarantined[slot].load(Ordering::Relaxed))
    }

    /// Drain the recorded request log (entries sorted by submission
    /// sequence number). Empty unless
    /// [`ServeConfig::record_log`](crate::ServeConfig::record_log) was set.
    /// Entries of in-flight requests appear only once served — call after
    /// their responses (or after [`CertServer::shutdown`]) for a complete
    /// log. Requests that failed typed (deadline, quarantine) are never
    /// logged: the log holds exactly the answered requests.
    pub fn take_log(&self) -> RequestLog {
        let mut entries = match &self.log {
            Some(log) => std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner)),
            None => Vec::new(),
        };
        entries.sort_by_key(|e| e.seq);
        RequestLog { entries }
    }

    fn shutdown_inner(&mut self) {
        for shard in &mut self.shards {
            // Dropping the sender disconnects the queue; workers drain
            // whatever is still queued, then exit.
            shard.tx = None;
        }
        for shard in &mut self.shards {
            if let Some(sup) = shard.supervisor.take() {
                // The supervisor exits once every worker wound down
                // normally; it respawns workers that panic during the
                // drain, so the drain always completes.
                let _ = sup.join();
            }
        }
    }

    /// Graceful shutdown: stop accepting traffic, let workers drain every
    /// queued request (all outstanding [`ResponseHandle`]s resolve — with
    /// a value, or a typed error for deadline-expired / quarantined
    /// rows), join workers and supervisors, and return each plan's final
    /// stats in [`PlanId`] order (plans sharing a coalesced shard report
    /// that shard's stats).
    ///
    /// Taking `self` by value makes the grace period type-checked: no
    /// other thread can still hold `&self` to submit with.
    pub fn shutdown(mut self) -> Vec<ServeStats> {
        self.shutdown_inner();
        self.routes
            .iter()
            .map(|&(shard, _)| self.shards[shard].shared.stats.snapshot(0))
            .collect()
    }
}

impl Drop for CertServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn spawn_worker(
    shared: &Arc<ShardShared>,
    worker: usize,
    initial: Vec<Request>,
    ctl: channel::Sender<Event>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let name = format!("neurofail-serve-shard{}", shared.shard);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(shared, worker, initial, ctl))
        .expect("spawn serve worker")
}

/// The shard supervisor: joins dead workers, recovers their staged rows,
/// respawns them, and quarantines plans that keep killing flushes. Exits
/// once every worker has wound down normally (which requires the server
/// to have dropped the queue sender — i.e. shutdown).
fn supervisor_loop(
    shared: Arc<ShardShared>,
    ctl_rx: channel::Receiver<Event>,
    ctl_tx: channel::Sender<Event>,
    mut handles: Vec<Option<JoinHandle<()>>>,
) {
    let mut live = handles.len();
    while live > 0 {
        // The receive cannot disconnect: this loop holds `ctl_tx` (for
        // respawned workers' guards), so exit is by live-count only.
        let Ok(Event::Down { worker, panicked }) = ctl_rx.recv() else {
            break;
        };
        if let Some(handle) = handles[worker].take() {
            // After the join the dead thread's in-flight lock is free and
            // its memory effects are visible.
            let _ = handle.join();
        }
        if !panicked {
            live -= 1;
            continue;
        }
        shared.stats.on_restart();
        // Attribute the panic: a crash inside one plan's suffix resume
        // strikes that plan; enough strikes quarantine it so a poison
        // plan cannot crash-loop the shard. Panics elsewhere (recv,
        // staging, nominal pass) are whole-shard events — no strike.
        let slot = shared.current_slot[worker].swap(SLOT_NONE, Ordering::Relaxed);
        if slot != SLOT_NONE {
            let strikes = shared.strikes[slot].fetch_add(1, Ordering::Relaxed) + 1;
            if strikes >= shared.cfg.max_plan_strikes
                && !shared.quarantined[slot].swap(true, Ordering::Relaxed)
            {
                shared.stats.on_quarantine();
            }
        }
        // Recover the staged-but-unanswered rows: everything still `Some`
        // in the dead worker's in-flight table. Answered rows were taken
        // out, so a recovered row cannot have been answered — requeueing
        // can never double-answer. The dead worker's panic poisoned the
        // table's lock; the rows under it are intact.
        let mut recovered: Vec<Request> = shared.inflight[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .flatten()
            .collect();
        // Rows of a now-quarantined plan would crash the respawned worker
        // again; fail them typed instead of requeueing.
        let mut i = 0;
        while i < recovered.len() {
            let s = recovered[i].slot;
            if shared.quarantined[s].load(Ordering::Relaxed) {
                recovered
                    .swap_remove(i)
                    .resp
                    .fail(RequestError::Quarantined(shared.plans[s].0));
            } else {
                i += 1;
            }
        }
        shared.stats.on_requeue(recovered.len() as u64);
        // Respawn with the recovered rows as the worker's first batch —
        // no queue round-trip, so recovery cannot deadlock on a full
        // queue and recovered rows never contend with new arrivals.
        handles[worker] = Some(spawn_worker(&shared, worker, recovered, ctl_tx.clone()));
    }
    // Every worker exited normally: the queue is disconnected and fully
    // drained, and every in-flight table is empty. Nothing to sweep.
}

/// The micro-batching worker loop (one per shard worker thread).
///
/// `initial` is the recovered-row handoff from a dead predecessor (empty
/// at server start): those rows form the worker's first batch. The loop
/// stages every batch into the shard's per-worker in-flight table before
/// computing, and answers each row by *taking* it out — the invariant the
/// supervisor's recovery rests on (see the [module docs](self)).
fn worker_loop(
    shared: Arc<ShardShared>,
    w: usize,
    initial: Vec<Request>,
    ctl: channel::Sender<Event>,
) {
    let _down = DownGuard { ctl, worker: w };
    let cfg = shared.cfg;
    let plans = &shared.plans;
    let rx = &shared.rx;
    let stats = &shared.stats;
    let dim = plans[0].1.input_dim();
    let net = Arc::clone(plans[0].1.net());
    // The shard's identity, computed once at registration: no flush
    // hashes the network, not even a respawned worker's first.
    let net_id = plans[0].1.net_id();
    let depth = net.depth();
    // The worker's one nominal-checkpoint path. A respawned worker starts
    // with an empty cache — a discarded checkpoint only costs
    // `checkpoint_hits`, never values.
    let mut cache = CheckpointCache::new(WORKER_CACHE_ENTRIES);
    if let Some(store) = &shared.store {
        cache.attach_shared_store(Arc::clone(store));
    }
    let mut ws_scratch = BatchWorkspace::default();
    let mut xs = Matrix::zeros(0, dim);
    let mut group_input = Matrix::zeros(0, 0);
    let mut batch: Vec<Request> = Vec::with_capacity(cfg.max_batch);
    let mut recovered = initial;
    let mut order: Vec<usize> = Vec::with_capacity(cfg.max_batch);
    let mut values: Vec<f64> = Vec::with_capacity(cfg.max_batch);
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(cfg.max_batch);

    loop {
        shared.current_slot[w].store(SLOT_NONE, Ordering::Relaxed);
        neurofail_par::failpoint!("serve::recv");
        if recovered.is_empty() {
            // Phase 1: block for the batch's first request (or exit once
            // the server dropped the sender and the queue is drained).
            let Ok(first) = rx.recv() else { break };
            batch.push(first);

            // Phase 2: greedy bulk drain (one queue lock for the whole
            // grab), then wait out the flush deadline if still short.
            let mut room = cfg.max_batch - batch.len();
            rx.recv_up_to(&mut batch, room);
            if !cfg.max_wait.is_zero() && batch.len() < cfg.max_batch {
                let deadline = Instant::now() + cfg.max_wait;
                while batch.len() < cfg.max_batch {
                    match rx.recv_deadline(deadline) {
                        Ok(req) => {
                            batch.push(req);
                            room = cfg.max_batch - batch.len();
                            rx.recv_up_to(&mut batch, room);
                        }
                        Err(_) => break, // deadline passed or disconnected
                    }
                }
            }
        } else {
            // Recovered handoff: serve it first, topped up (non-blocking)
            // with whatever is already queued.
            batch.append(&mut recovered);
            let room = cfg.max_batch.saturating_sub(batch.len());
            if room > 0 {
                rx.recv_up_to(&mut batch, room);
            }
        }

        // Reap rows that must not be served: quarantined plans (poison
        // rows would crash-loop the shard) and expired deadlines — each
        // failed with its typed error. Order within the batch does not
        // matter (per-row independence), so swap_remove is fine.
        let now = Instant::now();
        let mut i = 0;
        while i < batch.len() {
            let slot = batch[i].slot;
            if shared.quarantined[slot].load(Ordering::Relaxed) {
                batch
                    .swap_remove(i)
                    .resp
                    .fail(RequestError::Quarantined(plans[slot].0));
            } else if batch[i].deadline.is_some_and(|d| d <= now) {
                stats.on_deadline_expired(1);
                batch.swap_remove(i).resp.fail(RequestError::Deadline);
            } else {
                i += 1;
            }
        }
        if batch.is_empty() {
            continue;
        }

        // Stage the batch into the shard's in-flight table *before* any
        // computation: from here until each row's answer takes it back
        // out, the supervisor can recover every row of a panicked flush.
        // The lock is uncontended (the supervisor only touches it after
        // joining this thread) and held for the whole flush.
        let rows = batch.len();
        let mut inflight = shared.inflight[w]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        debug_assert!(inflight.is_empty(), "previous flush fully answered");
        inflight.extend(batch.drain(..).map(Some));
        neurofail_par::failpoint!("serve::flush");
        let compute_start = Instant::now();

        // Phase 3: one shared nominal checkpoint plus per-plan suffix
        // resumes for the whole flush. Rows are staged grouped by slot (stable
        // within a slot), but per-row independence makes the staging
        // order irrelevant to the values served.
        order.clear();
        order.extend(0..rows);
        if plans.len() > 1 {
            order.sort_by_key(|&i| inflight[i].as_ref().expect("staged").slot);
        }
        xs.resize(rows, dim);
        for (row, &i) in order.iter().enumerate() {
            xs.row_mut(row)
                .copy_from_slice(&inflight[i].as_ref().expect("staged").input);
        }
        // The flush's nominal checkpoint: the worker cache's previous
        // flush (reused, or extended by the new rows), the store, or a
        // nominal pass written through — bitwise the same every way
        // (contracts 9 and 13), so the resumes below cannot tell.
        let ck = cache.checkpoint_with_id(&net, net_id, &xs);
        let reused = (ck.source.reused_rows(rows) * depth) as u64;
        let ck_hit = matches!(
            ck.source,
            CheckpointSource::Resident | CheckpointSource::Extended { .. }
        );
        let ck_reused = if ck_hit { reused } else { 0 };
        if ck.source == CheckpointSource::Store {
            stats.on_store_hit(reused);
        }
        if ck.published {
            stats.on_store_publish();
        }
        let (ws_nominal, nominal) = (ck.ws, ck.nominal_y);
        neurofail_par::failpoint!("serve::mid_flush");
        values.clear();
        values.resize(rows, 0.0);
        let mut saved = 0u64;
        let mut r0 = 0usize;
        while r0 < rows {
            let slot = inflight[order[r0]].as_ref().expect("staged").slot;
            let mut r1 = r0 + 1;
            while r1 < rows && inflight[order[r1]].as_ref().expect("staged").slot == slot {
                r1 += 1;
            }
            let entry = &plans[slot].1;
            let from = entry.ir().first_faulty_layer();
            // A panic between these two stores is attributed to `slot`'s
            // plan by the supervisor (strike accounting).
            shared.current_slot[w].store(slot, Ordering::Relaxed);
            neurofail_par::failpoint!("serve::resume");
            let faulty = if r1 - r0 == rows {
                // A whole-flush group resumes directly against the
                // checkpoint, no row copy.
                entry.compiled().resume_batch_checkpointed(
                    &net,
                    &xs,
                    ws_nominal,
                    &mut ws_scratch,
                    from,
                )
            } else {
                // A partial group copies its rows of the resume input —
                // the layer-(from−1) checkpoint taps, or `xs` itself for
                // plans faulting layer 0 — and resumes over just those.
                let src: &Matrix = if from == 0 {
                    &xs
                } else {
                    &ws_nominal.outs[from - 1]
                };
                group_input.resize(r1 - r0, src.cols());
                for (gr, r) in (r0..r1).enumerate() {
                    group_input.row_mut(gr).copy_from_slice(src.row(r));
                }
                entry
                    .compiled()
                    .resume_batch_from(&net, &group_input, &mut ws_scratch, from)
            };
            for (gr, r) in (r0..r1).enumerate() {
                values[order[r]] = (nominal[r] - faulty[gr]).abs();
            }
            shared.current_slot[w].store(SLOT_NONE, Ordering::Relaxed);
            saved += from as u64 * (r1 - r0) as u64;
            r0 = r1;
        }
        let done = Instant::now();
        let flush_ns = done.duration_since(compute_start).as_nanos() as u64;
        stats.observe_row_cost(flush_ns / rows as u64);

        // Phase 4: account, record, respond — in that order, so a caller
        // that has already received its response never observes stats (or
        // a log) missing the flush that served it. (A flush interrupted
        // by a panic *after* this accounting recomputes its recovered
        // rows in a later flush, so chaos can double-count rows in the
        // flush statistics — never in answers or the log.)
        latencies_ns.clear();
        latencies_ns.extend((0..rows).map(|i| {
            done.duration_since(inflight[i].as_ref().expect("staged").submitted)
                .as_nanos() as u64
        }));
        stats.on_flush(rows, &latencies_ns, saved, ck_hit, ck_reused);
        for (i, &value) in values.iter().enumerate() {
            neurofail_par::failpoint!("serve::answer");
            // Take → log → answer: after the take this row can no longer
            // be recovered (it is being answered); before it, a panic
            // leaves it `Some` for requeue. Double answers are therefore
            // structurally impossible.
            let mut req = inflight[i].take().expect("answered once");
            if let Some(log) = &shared.log {
                // Inputs are moved out of the requests (responses don't
                // need them), so logging adds no per-request allocation.
                log.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(LogEntry {
                        plan: plans[req.slot].0 .0,
                        seq: req.seq,
                        input: std::mem::take(&mut req.input),
                        value,
                    });
            }
            // A dropped handle (fire-and-forget caller) is fine: the slot
            // is still fulfilled, it just becomes unreachable.
            req.resp.send(ServedResponse {
                value,
                seq: req.seq,
                batch_rows: rows,
                latency: done.duration_since(req.submitted),
            });
        }
        inflight.clear();
        drop(inflight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_inject::InjectionPlan;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::layer::DenseLayer;
    use neurofail_nn::network::Layer;
    use neurofail_nn::Mlp;
    use neurofail_par::Parallelism;

    fn test_registry() -> PlanRegistry {
        let net = Arc::new(Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                vec![],
                Activation::Identity,
            ))],
            vec![1.0, 2.0],
            0.0,
        ));
        let mut reg = PlanRegistry::new();
        reg.register(Arc::clone(&net), &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        reg.register(net, &InjectionPlan::none(), 1.0).unwrap();
        reg
    }

    #[test]
    fn query_returns_the_singleton_value() {
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        assert_eq!(server.plan_count(), 2);
        assert_eq!(server.input_dim(PlanId(0)), Some(2));
        let x = [0.5, 0.25];
        let served = server.query(PlanId(0), &x).unwrap();
        let mut ws = BatchWorkspace::default();
        let direct = reg.get(PlanId(0)).unwrap().eval_singleton(&x, &mut ws);
        assert_eq!(served.to_bits(), direct.to_bits());
        // The fault-free plan serves zero disturbance.
        assert_eq!(server.query(PlanId(1), &x).unwrap(), 0.0);
        server.shutdown();
    }

    #[test]
    fn malformed_submissions_are_rejected_without_queueing() {
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        assert_eq!(
            server.submit(PlanId(7), vec![0.0, 0.0]).err(),
            Some(SubmitError::UnknownPlan(PlanId(7)))
        );
        assert_eq!(
            server.submit(PlanId(0), vec![0.0]).err(),
            Some(SubmitError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(server.input_dim(PlanId(9)), None);
        assert!(server.stats(PlanId(9)).is_none());
        assert!(server.is_quarantined(PlanId(9)).is_none());
        assert_eq!(server.is_quarantined(PlanId(0)), Some(false));
        let stats = server.shutdown();
        assert_eq!(stats[0].requests, 0);
    }

    #[test]
    fn coalescing_batches_concurrent_clients() {
        let reg = test_registry();
        let server = CertServer::start(
            &reg,
            ServeConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(2),
                ..ServeConfig::default()
            },
        );
        let n = 64;
        std::thread::scope(|s| {
            for i in 0..n {
                let server = &server;
                s.spawn(move || {
                    let x = [i as f64 / n as f64, 0.25];
                    let resp = server
                        .submit(PlanId(0), x.to_vec())
                        .unwrap()
                        .wait_response()
                        .unwrap();
                    assert!(resp.batch_rows >= 1 && resp.batch_rows <= 8);
                });
            }
        });
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.rows_served, n);
        assert!(stats.flushes <= n, "flushes {} > rows {}", stats.flushes, n);
        // 64 concurrent clients against max_batch 8 must coalesce at
        // least once; mean batch > 1 shows the scheduler actually batched.
        assert!(
            stats.mean_batch > 1.0,
            "no coalescing happened (mean batch {})",
            stats.mean_batch
        );
        // A healthy run never restarts, requeues, sheds or quarantines.
        assert_eq!(stats.worker_restarts, 0);
        assert_eq!(stats.rows_requeued, 0);
        assert_eq!(stats.requests_shed, 0);
        assert_eq!(stats.plans_quarantined, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_all_queued_requests() {
        let reg = test_registry();
        let server = CertServer::start(
            &reg,
            ServeConfig {
                // Tiny batches + long wait: the queue stays populated when
                // shutdown lands.
                max_batch: 2,
                max_wait: Duration::from_millis(1),
                queue_capacity: 512,
                ..ServeConfig::default()
            },
        );
        let handles: Vec<ResponseHandle> = (0..200)
            .map(|i| {
                server
                    .submit(PlanId(i % 2), vec![i as f64 * 1e-3, 0.5])
                    .unwrap()
            })
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats[0].rows_served + stats[1].rows_served, 200);
        let mut ws = BatchWorkspace::default();
        for (i, h) in handles.into_iter().enumerate() {
            let served = h.wait().expect("request survived shutdown");
            let direct = reg
                .get(PlanId(i % 2))
                .unwrap()
                .eval_singleton(&[i as f64 * 1e-3, 0.5], &mut ws);
            assert_eq!(served.to_bits(), direct.to_bits(), "request {i}");
        }
    }

    #[test]
    fn try_submit_reports_backpressure_with_hints() {
        let reg = test_registry();
        // A server whose single worker is easy to stall: capacity 1 queue.
        let server = CertServer::start(
            &reg,
            ServeConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        // Saturate: keep try_submitting until backpressure appears. The
        // worker keeps draining, so loop rather than assert a single call.
        let mut saw_full = false;
        let mut handles = Vec::new();
        for _ in 0..10_000 {
            match server.try_submit(PlanId(0), vec![0.1, 0.2]) {
                Ok(h) => handles.push(h),
                Err(SubmitError::QueueFull {
                    capacity,
                    retry_after,
                    ..
                }) => {
                    assert_eq!(capacity, 1);
                    assert!(retry_after > Duration::ZERO, "hint must be nonzero");
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_full, "queue of capacity 1 never reported Full");
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.rejected, 1);
        server.shutdown();
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn expired_deadline_fails_typed_instead_of_serving_late() {
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        // A zero timeout is expired by the time any worker stages it.
        let h = server
            .submit_within(PlanId(0), vec![0.3, 0.4], Duration::ZERO)
            .unwrap();
        assert_eq!(h.wait(), Err(RequestError::Deadline));
        // The shard keeps serving normally afterwards.
        assert!(server.query(PlanId(0), &[0.3, 0.4]).is_ok());
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.deadlines_expired, 1);
        server.shutdown();
    }

    #[test]
    fn shed_budget_accepts_while_idle() {
        let reg = test_registry();
        // The most aggressive budget still accepts when the queue is
        // empty: shedding is depth × cost, and depth is 0.
        let server = CertServer::start(
            &reg,
            ServeConfig {
                shed_budget: Some(Duration::ZERO),
                ..ServeConfig::default()
            },
        );
        for _ in 0..5 {
            server.query(PlanId(0), &[0.2, 0.8]).unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn retry_backoff_is_deterministic_capped_and_hint_respecting() {
        let p = RetryPolicy::default();
        // Pure in (policy, attempt, hint).
        assert_eq!(p.backoff(1, Duration::ZERO), p.backoff(1, Duration::ZERO));
        // Jitter keeps the nominal backoff within [base/2, base).
        let b1 = p.backoff(1, Duration::ZERO);
        assert!(b1 >= p.base / 2 && b1 < p.base, "{b1:?}");
        // Exponential growth: retry 2's nominal window is [base, 2·base).
        let b2 = p.backoff(2, Duration::ZERO);
        assert!(b2 >= p.base && b2 < p.base * 2, "{b2:?}");
        // The cap clamps deep retries.
        assert_eq!(p.backoff(30, Duration::ZERO), p.cap);
        // The server hint is a floor.
        let hint = Duration::from_millis(3);
        assert!(p.backoff(1, hint) >= hint);
        // ... but the cap still wins.
        assert_eq!(p.backoff(1, Duration::from_secs(9)), p.cap);
    }

    #[test]
    fn submit_with_retry_succeeds_first_try_on_a_healthy_server() {
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        let h = server
            .submit_with_retry(PlanId(0), &[0.4, 0.6], RetryPolicy::default())
            .unwrap();
        assert!(h.wait().is_ok());
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.total_backoff, Duration::ZERO);
        // Non-retryable errors surface immediately.
        assert!(matches!(
            server.submit_with_retry(PlanId(9), &[0.0, 0.0], RetryPolicy::default()),
            Err(SubmitError::UnknownPlan(_))
        ));
        server.shutdown();
    }

    #[test]
    fn multi_worker_shards_serve_identical_values() {
        let reg = test_registry();
        for workers in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let server = CertServer::start(
                &reg,
                ServeConfig {
                    max_batch: 4,
                    workers,
                    ..ServeConfig::default()
                },
            );
            let mut ws = BatchWorkspace::default();
            std::thread::scope(|s| {
                for i in 0..32 {
                    let server = &server;
                    s.spawn(move || {
                        let x = [i as f64 * 0.03, -0.4];
                        server.query(PlanId(0), &x).unwrap()
                    });
                }
            });
            for i in 0..4 {
                let x = [i as f64 * 0.03, -0.4];
                let served = server.query(PlanId(0), &x).unwrap();
                let direct = reg.get(PlanId(0)).unwrap().eval_singleton(&x, &mut ws);
                assert_eq!(served.to_bits(), direct.to_bits(), "{workers:?}");
            }
            server.shutdown();
        }
    }

    #[test]
    fn recorded_log_verifies_against_the_registry() {
        let reg = test_registry();
        let server = CertServer::start(
            &reg,
            ServeConfig {
                record_log: true,
                max_batch: 4,
                max_wait: Duration::from_micros(50),
                ..ServeConfig::default()
            },
        );
        for i in 0..20 {
            server
                .query(PlanId(i % 2), &[i as f64 * 0.05, 0.3])
                .unwrap();
        }
        let log = server.take_log();
        assert_eq!(log.len(), 20);
        // seq order, gap-free.
        let seqs: Vec<u64> = log.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>());
        log.verify(&reg).unwrap();
        // The log was drained.
        assert!(server.take_log().is_empty());
        server.shutdown();
    }

    #[test]
    fn stats_track_latency_and_histogram() {
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        for _ in 0..10 {
            server.query(PlanId(0), &[0.1, 0.9]).unwrap();
        }
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.requests, 10);
        assert_eq!(stats.rows_served, 10);
        assert!(stats.p50_latency > Duration::ZERO);
        assert!(stats.p99_latency >= stats.p50_latency);
        assert_eq!(stats.batch_hist.iter().sum::<u64>(), stats.flushes);
        server.shutdown();
    }

    #[test]
    fn coalesced_shards_group_shared_net_plans_and_serve_bitwise_values() {
        use neurofail_inject::plan::{SynapseFault, SynapseSite, SynapseTarget};
        // One shared net, three plans at different depths (layer 0, layer
        // 1, output synapse) + a second net with its own plan: coalescing
        // must produce 2 shards, serve bitwise-exact values for every
        // plan, and bank nominal_rows_saved for the late plans.
        let net = Arc::new(Mlp::new(
            vec![
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5]),
                    vec![],
                    Activation::Identity,
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 3, vec![1.0, -0.5, 0.25, 0.0, 1.0, -1.0]),
                    vec![],
                    Activation::Identity,
                )),
            ],
            vec![1.0, 2.0],
            0.0,
        ));
        let other = Arc::new(Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                vec![],
                Activation::Identity,
            ))],
            vec![1.0, -1.0],
            0.0,
        ));
        let mut reg = PlanRegistry::new();
        reg.register(Arc::clone(&net), &InjectionPlan::crash([(0, 2)]), 1.0)
            .unwrap();
        reg.register(Arc::clone(&net), &InjectionPlan::crash([(1, 0)]), 1.0)
            .unwrap();
        reg.register(
            Arc::clone(&net),
            &InjectionPlan {
                neurons: vec![],
                synapses: vec![SynapseSite {
                    target: SynapseTarget::Output { from: 1 },
                    fault: SynapseFault::Crash,
                }],
            },
            1.0,
        )
        .unwrap();
        reg.register(Arc::clone(&other), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        let server = CertServer::start(
            &reg,
            ServeConfig {
                coalesce_plans: true,
                max_batch: 16,
                max_wait: Duration::from_millis(2),
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.plan_count(), 4);
        assert_eq!(server.shard_count(), 2, "three shared-net plans, one solo");
        // Concurrent traffic across all four plans.
        let n = 48;
        std::thread::scope(|s| {
            for i in 0..n {
                let server = &server;
                s.spawn(move || {
                    let plan = PlanId(i % 4);
                    let x = [0.07 * i as f64 - 1.0, 0.5 - 0.03 * i as f64];
                    server.query(plan, &x).unwrap()
                });
            }
        });
        // Bitwise serving equivalence per plan.
        let mut ws = BatchWorkspace::default();
        for i in 0..8 {
            let plan = PlanId(i % 4);
            let x = [0.07 * i as f64 - 1.0, 0.5 - 0.03 * i as f64];
            let served = server.query(plan, &x).unwrap();
            let direct = reg.get(plan).unwrap().eval_singleton(&x, &mut ws);
            assert_eq!(served.to_bits(), direct.to_bits(), "{plan}");
        }
        // The shared shard banked suffix savings: the layer-1 plan saves
        // 1 layer-row per row, the output-synapse plan 2 — the layer-0
        // plan none. The solo shard's plan faults layer 0: saves nothing.
        let shared = server.stats(PlanId(0)).unwrap();
        assert!(
            shared.nominal_rows_saved > 0,
            "late-layer plans must bank prefix savings"
        );
        let solo = server.stats(PlanId(3)).unwrap();
        assert_eq!(solo.nominal_rows_saved, 0);
        // Shared-shard stats cover the whole group.
        assert_eq!(shared.rows_served + solo.rows_served, n as u64 + 8);
        server.shutdown();
    }

    #[test]
    fn coalesced_log_replays_bitwise_with_correct_plan_ids() {
        let reg = test_registry(); // two plans on one shared net
        let server = CertServer::start(
            &reg,
            ServeConfig {
                coalesce_plans: true,
                record_log: true,
                max_batch: 8,
                max_wait: Duration::from_micros(200),
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.shard_count(), 1);
        for i in 0..30 {
            server
                .query(PlanId(i % 2), &[i as f64 * 0.04, 0.6])
                .unwrap();
        }
        let log = server.take_log();
        assert_eq!(log.len(), 30);
        // Every entry carries the *plan's* id (not the shard's), so the
        // replay verifies against the registry as before.
        for e in &log.entries {
            assert_eq!(e.plan, (e.seq % 2) as usize);
        }
        log.verify(&reg).unwrap();
        server.shutdown();
    }

    #[test]
    fn per_plan_shards_also_bank_suffix_savings() {
        // Even without cross-plan coalescing, the worker's flush runs the
        // suffix engine: the fault-free plan (first faulty layer = depth)
        // banks one layer-row per served row.
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        for _ in 0..10 {
            server.query(PlanId(1), &[0.4, 0.2]).unwrap(); // the empty plan
        }
        let stats = server.stats(PlanId(1)).unwrap();
        assert_eq!(stats.nominal_rows_saved, 10);
        // The crash-at-layer-0 plan saves nothing.
        server.query(PlanId(0), &[0.4, 0.2]).unwrap();
        assert_eq!(server.stats(PlanId(0)).unwrap().nominal_rows_saved, 0);
        server.shutdown();
    }

    /// A 2-layer net + one registered plan, for the worker-cache tests
    /// (depth > 1 so checkpoint reuse skips a measurable layer count).
    fn two_layer_registry() -> PlanRegistry {
        let net = Arc::new(Mlp::new(
            vec![
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, -0.5]),
                    vec![],
                    Activation::Identity,
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 3, vec![1.0, -0.5, 0.25, 0.0, 1.0, -1.0]),
                    vec![],
                    Activation::Identity,
                )),
            ],
            vec![1.0, 2.0],
            0.0,
        ));
        let mut reg = PlanRegistry::new();
        reg.register(net, &InjectionPlan::crash([(1, 0)]), 1.0)
            .unwrap();
        reg
    }

    fn submit_and_wait(
        server: &CertServer,
        reg: &PlanRegistry,
        inputs: &[[f64; 2]],
    ) -> Vec<(usize, f64)> {
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|x| server.submit(PlanId(0), x.to_vec()).unwrap())
            .collect();
        let mut ws = BatchWorkspace::default();
        handles
            .into_iter()
            .zip(inputs)
            .enumerate()
            .map(|(i, (h, x))| {
                let served = h.wait().expect("served");
                let direct = reg.get(PlanId(0)).unwrap().eval_singleton(x, &mut ws);
                assert_eq!(served.to_bits(), direct.to_bits(), "request {i}");
                (i, served)
            })
            .collect()
    }

    #[test]
    fn worker_cache_reuses_identical_flushes() {
        let reg = two_layer_registry();
        let server = CertServer::start(
            &reg,
            ServeConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(500),
                ..ServeConfig::default()
            },
        );
        let probe = [[0.2, 0.7], [-0.4, 0.1], [0.9, 0.9], [0.0, -1.0]];
        // Two rounds of the same probe set: the second flush's rows match
        // the first's bitwise, so its nominal pass is skipped entirely —
        // and every served value stays bitwise the singleton reference.
        submit_and_wait(&server, &reg, &probe);
        submit_and_wait(&server, &reg, &probe);
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.rows_served, 8);
        if stats.flushes == 2 {
            assert_eq!(stats.checkpoint_hits, 1);
            // 4 reused rows through a depth-2 net.
            assert_eq!(stats.checkpoint_rows_reused, 8);
        } else {
            // Scheduler fragmented a round into several flushes (rare,
            // timing-dependent); reuse accounting is then flush-shape
            // specific, but values above were still bitwise-checked.
            assert!(stats.flushes > 2);
        }
        server.shutdown();
    }

    #[test]
    fn worker_cache_extends_prefix_sharing_flushes() {
        let reg = two_layer_registry();
        let server = CertServer::start(
            &reg,
            ServeConfig {
                max_batch: 6,
                max_wait: Duration::from_millis(500),
                ..ServeConfig::default()
            },
        );
        let head = [[0.3, -0.2], [0.8, 0.5], [-0.6, 0.4]];
        let grown = [
            [0.3, -0.2],
            [0.8, 0.5],
            [-0.6, 0.4],
            [1.0, 1.0],
            [-1.0, 0.25],
            [0.1, 0.6],
        ];
        // Round 2 resubmits round 1's rows plus three new ones, in order:
        // the worker extends its checkpoint by just the new suffix rows.
        submit_and_wait(&server, &reg, &head);
        submit_and_wait(&server, &reg, &grown);
        let stats = server.stats(PlanId(0)).unwrap();
        assert_eq!(stats.rows_served, 9);
        if stats.flushes == 2 {
            assert_eq!(stats.checkpoint_hits, 1);
            // 3 prefix rows reused through a depth-2 net.
            assert_eq!(stats.checkpoint_rows_reused, 6);
        } else {
            assert!(stats.flushes > 2);
        }
        server.shutdown();
    }

    #[test]
    fn dropping_the_server_joins_workers() {
        let reg = test_registry();
        let server = CertServer::start(&reg, ServeConfig::default());
        let h = server.submit(PlanId(0), vec![0.2, 0.2]).unwrap();
        drop(server); // Drop runs the same drain-and-join path as shutdown().
        h.wait().expect("drained on drop");
    }
}
