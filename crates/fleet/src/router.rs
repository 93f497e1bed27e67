//! The fleet front-end: one [`FleetRouter`] owning N worker *processes*,
//! each a [`run_worker`](crate::worker::run_worker) shell around an
//! embedded `CertServer`.
//!
//! The router is PR 7's supervision ported across the process boundary:
//!
//! * **Admission once** — plans are admitted at the router through the
//!   same `inject::ir` pipeline a single process uses (typed
//!   [`PlanError`] rejection before anything touches a socket), and the
//!   resulting structure hash picks the plan's *home* worker. Workers
//!   receive only already-admitted plans, lazily, the first time traffic
//!   routes to them.
//! * **In-flight tables** — every routed query sits in its connection's
//!   in-flight table until its `Answer`/`Refused` frame arrives. A dead
//!   connection's unanswered rows are requeued to the respawned process
//!   (or a sibling once the worker is quarantined) — never dropped; and
//!   because an answer *removes* the table entry before resolving the
//!   caller, a row can be recomputed but never double-answered.
//! * **Heartbeats** — a connection silent past the heartbeat interval
//!   while work is outstanding is pinged; repeated unanswered pings get
//!   the process killed and its work requeued (catches stalls, which
//!   socket EOF alone cannot).
//! * **Strike-based quarantine** — each connection loss is a strike;
//!   strikes clear on useful work and quarantine the worker slot at the
//!   configured cap, exactly like the embedded server quarantines a plan
//!   whose flushes keep panicking.
//! * **Sharded campaigns** — a campaign splits its trial range into
//!   contiguous shards across live workers; per-trial `(stats, worst)`
//!   records come back tagged with their trial index, so the merge is in
//!   trial order no matter the arrival order, reproducing a single
//!   `run_campaign` bit for bit (ARCHITECTURE contract 15).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use neurofail_inject::{
    merge_trials, Admission, CampaignConfig, CampaignResult, InjectionPlan, PlanError, TrialKind,
    TrialResult,
};
use neurofail_nn::{net_to_bytes, Mlp};
use neurofail_par::oneshot::Oneshot;
use neurofail_serve::ServeConfig;

use crate::proto::{
    code, read_message, retry_after, trial_to_result, write_message, Message, ProtocolError,
    WireServeConfig, WireWorkerStats,
};
use crate::transport::{FleetListener, FleetStream, Transport};
use crate::worker::{ENV_ADDR, ENV_CHAOS, ENV_GEN, ENV_STORE, ENV_WORKER};

/// Fleet-wide plan identity, assigned by [`FleetRouter::register`].
/// Distinct from the per-process `PlanId`s workers use internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetPlanId(pub u64);

/// Everything a [`WorkerSpawner`] needs to launch one worker process.
#[derive(Debug, Clone)]
pub struct WorkerLaunch {
    /// The router's dialable address.
    pub addr: String,
    /// The worker's fleet slot index.
    pub worker: usize,
    /// The slot's spawn generation (0 for the first launch, +1 per
    /// respawn). Echoed back in the worker's `Hello` so the router can
    /// reject a dead predecessor's still-queued dial.
    pub spawn_gen: u64,
    /// Shared artifact-store directory, if the fleet uses one.
    pub store_dir: Option<PathBuf>,
    /// Per-worker chaos seed (failpoints builds only).
    pub chaos_seed: Option<u64>,
}

/// Launches one worker process for a slot; called again on every respawn.
pub type WorkerSpawner = Box<dyn FnMut(&WorkerLaunch) -> io::Result<Child> + Send>;

/// The standard spawner: re-exec the current binary with `args`, handing
/// the launch parameters down through the `NEUROFAIL_FLEET_*`
/// environment (the worker side picks them up via
/// [`run_worker_from_env`](crate::worker::run_worker_from_env)). Tests,
/// the bundled example and the benchmark all use this shape.
pub fn reexec_spawner(args: Vec<String>) -> WorkerSpawner {
    Box::new(move |launch: &WorkerLaunch| {
        let exe = std::env::current_exe()?;
        let mut cmd = std::process::Command::new(exe);
        cmd.args(&args)
            .env(ENV_ADDR, &launch.addr)
            .env(ENV_WORKER, launch.worker.to_string())
            .env(ENV_GEN, launch.spawn_gen.to_string())
            .stdout(std::process::Stdio::null());
        if let Some(dir) = &launch.store_dir {
            cmd.env(ENV_STORE, dir);
        }
        if let Some(seed) = launch.chaos_seed {
            cmd.env(ENV_CHAOS, seed.to_string());
        }
        cmd.spawn()
    })
}

/// Fleet deployment knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Socket flavour between router and workers.
    pub transport: Transport,
    /// Serving configuration pushed to every worker's embedded server.
    pub serve: ServeConfig,
    /// Silence threshold before a worker with outstanding work is pinged.
    pub heartbeat: Duration,
    /// Unanswered pings before the process is killed and its work
    /// requeued.
    pub max_missed_pings: u32,
    /// Connection losses (without intervening useful work) before a
    /// worker slot is quarantined instead of respawned.
    pub max_worker_strikes: u32,
    /// Shared [`ArtifactStore`](neurofail_inject::ArtifactStore)
    /// directory handed to every worker (fleet-wide warm starts).
    pub store_dir: Option<PathBuf>,
    /// Base chaos seed; worker `i` self-arms from `seed + i` on every
    /// (re)spawn (failpoints builds only).
    pub chaos_seed: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            transport: Transport::Unix,
            serve: ServeConfig {
                record_log: true,
                ..ServeConfig::default()
            },
            heartbeat: Duration::from_millis(200),
            max_missed_pings: 5,
            max_worker_strikes: 3,
            store_dir: None,
            chaos_seed: None,
        }
    }
}

/// Why the fleet refused or failed a request.
///
/// Non-exhaustive: future fleet versions may fail requests for new
/// reasons; match with a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The plan failed admission at the router (never reached a socket).
    Admission(PlanError),
    /// No plan with this id is registered with the fleet.
    UnknownPlan,
    /// The input's length does not match the plan's network.
    DimensionMismatch {
        /// Dimension the plan's network expects.
        expected: usize,
        /// Length of the submitted input.
        got: usize,
    },
    /// A worker refused the request under load; retry after the hint.
    Busy {
        /// Worker-estimated backoff.
        retry_after: Option<Duration>,
    },
    /// The plan is quarantined (on a worker or fleet-wide).
    Quarantined,
    /// The request's deadline expired on the worker.
    Deadline,
    /// Every worker that could serve the request is gone or quarantined.
    WorkerLost,
    /// The request died to a wire-protocol failure.
    Protocol,
    /// The fleet is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Admission(e) => write!(f, "plan rejected at admission: {e}"),
            FleetError::UnknownPlan => write!(f, "no such fleet plan"),
            FleetError::DimensionMismatch { expected, got } => {
                write!(f, "input dimension {got}, plan expects {expected}")
            }
            FleetError::Busy { retry_after } => match retry_after {
                Some(d) => write!(f, "fleet busy, retry after ~{d:?}"),
                None => write!(f, "fleet busy"),
            },
            FleetError::Quarantined => write!(f, "plan or worker quarantined"),
            FleetError::Deadline => write!(f, "request deadline expired"),
            FleetError::WorkerLost => write!(f, "no live worker can serve the request"),
            FleetError::Protocol => write!(f, "wire protocol failure"),
            FleetError::ShuttingDown => write!(f, "fleet shutting down"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Router-side fleet counters plus, per worker slot, the latest
/// self-reported [`WireWorkerStats`] (None for slots that were down or
/// silent at collection time).
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Queries answered with a value.
    pub answers: u64,
    /// Rows and shards re-sent after a connection loss.
    pub requeues: u64,
    /// Worker processes (re)launched after the initial spawn wave.
    pub respawns: u64,
    /// Worker slots quarantined after repeated strikes.
    pub worker_quarantines: u64,
    /// Processes killed for unanswered heartbeats.
    pub heartbeat_kills: u64,
    /// Frames that violated the protocol (router side).
    pub protocol_errors: u64,
    /// Plans registered with the fleet.
    pub plans: u64,
    /// Per-slot worker self-reports from the latest collection.
    pub workers: Vec<Option<WireWorkerStats>>,
}

/// One worker's audit outcome: its request-log size and whether
/// `RequestLog::verify` replayed every entry bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerAudit {
    /// Entries in the worker's request log.
    pub entries: u64,
    /// Whether every entry replayed bitwise.
    pub ok: bool,
}

/// Fleet-wide audit: per-slot outcomes (None for down/silent slots).
#[derive(Debug, Clone, Default)]
pub struct FleetAudit {
    /// Per-slot audit outcomes.
    pub workers: Vec<Option<WorkerAudit>>,
}

impl FleetAudit {
    /// True when every surviving worker verified its log bitwise.
    pub fn clean(&self) -> bool {
        self.workers.iter().flatten().all(|a| a.ok)
    }
    /// Total verified log entries across surviving workers.
    pub fn entries(&self) -> u64 {
        self.workers.iter().flatten().map(|a| a.entries).sum()
    }
}

// ---------------------------------------------------------------------
// Query handle
// ---------------------------------------------------------------------

/// An outstanding fleet query: wait on it like a
/// [`ResponseHandle`](neurofail_serve::ResponseHandle), across the
/// process boundary.
pub struct FleetHandle {
    slot: Arc<Oneshot<Result<f64, FleetError>>>,
}

impl FleetHandle {
    /// Block until the query resolves.
    pub fn wait(self) -> Result<f64, FleetError> {
        self.slot.wait()
    }

    /// Block up to `timeout`; None if still unresolved.
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<f64, FleetError>> {
        self.slot.wait_for(timeout)
    }
}

// ---------------------------------------------------------------------
// Supervisor events
// ---------------------------------------------------------------------

enum Event {
    Cmd(Cmd),
    Accepted {
        worker: usize,
        gen: u64,
        stream: FleetStream,
    },
    Frame {
        worker: usize,
        gen: u64,
        msg: Message,
    },
    Down {
        worker: usize,
        gen: u64,
    },
    /// A dialer that never produced a valid Hello.
    Noise,
}

enum Cmd {
    Register {
        net_bytes: Vec<u8>,
        plan_bytes: Vec<u8>,
        capacity: f64,
        input_dim: usize,
        structure_hash: u64,
        hot: bool,
        slot: Arc<Oneshot<FleetPlanId>>,
    },
    Submit {
        plan: u64,
        input: Vec<f64>,
        slot: Arc<Oneshot<Result<f64, FleetError>>>,
    },
    Campaign {
        net_bytes: Vec<u8>,
        counts: Vec<u64>,
        kind: TrialKind,
        cfg: CampaignConfig,
        slot: Arc<Oneshot<Result<CampaignResult, FleetError>>>,
    },
    Kill {
        worker: usize,
        slot: Arc<Oneshot<bool>>,
    },
    Stats {
        slot: Arc<Oneshot<FleetStats>>,
    },
    Audit {
        slot: Arc<Oneshot<FleetAudit>>,
    },
    Shutdown {
        slot: Arc<Oneshot<FleetStats>>,
    },
}

// ---------------------------------------------------------------------
// Supervisor state
// ---------------------------------------------------------------------

struct Conn {
    writer: FleetStream,
    gen: u64,
}

struct Pend {
    seq: u64,
    plan: u64,
    input: Vec<f64>,
    slot: Arc<Oneshot<Result<f64, FleetError>>>,
}

#[derive(Clone, Copy)]
struct ShardAssign {
    job: u64,
    shard: u64,
    first: u64,
    count: u64,
}

struct WorkerSlot {
    child: Option<Child>,
    conn: Option<Conn>,
    /// Fleet plan ids this connection has been sent Register for.
    registered: HashSet<u64>,
    in_flight: HashMap<u64, Pend>,
    queued: VecDeque<Pend>,
    shards: HashMap<(u64, u64), ShardAssign>,
    shard_queue: VecDeque<ShardAssign>,
    strikes: u32,
    quarantined: bool,
    last_heard: Instant,
    missed_pings: u32,
    spawn_gen: u64,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            child: None,
            conn: None,
            registered: HashSet::new(),
            in_flight: HashMap::new(),
            queued: VecDeque::new(),
            shards: HashMap::new(),
            shard_queue: VecDeque::new(),
            strikes: 0,
            quarantined: false,
            last_heard: Instant::now(),
            missed_pings: 0,
            spawn_gen: 0,
        }
    }

    fn has_outstanding(&self) -> bool {
        !self.in_flight.is_empty()
            || !self.queued.is_empty()
            || !self.shards.is_empty()
            || !self.shard_queue.is_empty()
    }
}

struct PlanRec {
    net_bytes: Vec<u8>,
    plan_bytes: Vec<u8>,
    capacity: f64,
    input_dim: usize,
    home: usize,
    hot: bool,
    rr: u64,
}

struct Job {
    per_trial: Vec<Option<TrialResult>>,
    filled: usize,
    slot: Arc<Oneshot<Result<CampaignResult, FleetError>>>,
    net_bytes: Vec<u8>,
    counts: Vec<u64>,
    kind: TrialKind,
    cfg: CampaignConfig,
}

struct Collect<T> {
    slot: Arc<Oneshot<T>>,
    want: HashSet<usize>,
    got: Vec<Option<WireWorkerStats>>,
    audits: Vec<Option<WorkerAudit>>,
    deadline: Instant,
}

struct Supervisor {
    rx: mpsc::Receiver<Event>,
    tx: mpsc::Sender<Event>,
    spawner: WorkerSpawner,
    cfg: FleetConfig,
    addr: String,
    workers: Vec<WorkerSlot>,
    plans: HashMap<u64, PlanRec>,
    jobs: HashMap<u64, Job>,
    next_plan: u64,
    next_seq: u64,
    next_job: u64,
    next_nonce: u64,
    stats: FleetStats,
    stats_pending: Option<Collect<FleetStats>>,
    audit_pending: Option<Collect<FleetAudit>>,
    shutting_down: bool,
}

impl Supervisor {
    fn launch(&mut self, i: usize) {
        let launch = WorkerLaunch {
            addr: self.addr.clone(),
            worker: i,
            spawn_gen: self.workers[i].spawn_gen,
            store_dir: self.cfg.store_dir.clone(),
            // Fold the spawn generation in: each life of a slot draws a
            // *distinct* (still deterministic) chaos schedule, so a
            // self-armed worker that dies early cannot crash-loop on the
            // identical hit sequence every respawn.
            chaos_seed: self.cfg.chaos_seed.map(|s| {
                s.wrapping_add(i as u64).wrapping_add(
                    self.workers[i]
                        .spawn_gen
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            }),
        };
        match (self.spawner)(&launch) {
            Ok(child) => self.workers[i].child = Some(child),
            Err(_) => {
                // An unlaunchable slot behaves like a dead one; its work
                // moves on via the quarantine path.
                self.workers[i].strikes = self.cfg.max_worker_strikes;
            }
        }
    }

    fn reap(&mut self, i: usize) {
        if let Some(mut child) = self.workers[i].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Write a frame to worker `i`; a failed write is a connection loss.
    fn send_to(&mut self, i: usize, msg: &Message) -> bool {
        let lost = {
            let Some(conn) = self.workers[i].conn.as_mut() else {
                return false;
            };
            neurofail_par::failpoint!("fleet::send");
            write_message(&mut conn.writer, msg).is_err()
        };
        if lost {
            self.conn_lost(i);
            return false;
        }
        true
    }

    fn ensure_registered(&mut self, i: usize, plan: u64) -> bool {
        if self.workers[i].registered.contains(&plan) {
            return true;
        }
        let Some(rec) = self.plans.get(&plan) else {
            return false;
        };
        let msg = Message::Register {
            plan,
            net: rec.net_bytes.clone(),
            plan_bytes: rec.plan_bytes.clone(),
            capacity: rec.capacity,
        };
        if self.send_to(i, &msg) {
            self.workers[i].registered.insert(plan);
            true
        } else {
            false
        }
    }

    /// Queue a pend on slot `i`, unless the slot is quarantined — then
    /// reroute to a healthy sibling (or fail it if the fleet has none).
    fn enqueue_or_reroute(&mut self, i: usize, pend: Pend) {
        if !self.workers[i].quarantined {
            self.workers[i].queued.push_back(pend);
        } else {
            match self.route(i, 1) {
                Some(sib) => self.dispatch(sib, pend),
                None => pend.slot.fill(Err(FleetError::WorkerLost)),
            }
        }
    }

    /// Route a pend to worker `i`: into the in-flight table *before* the
    /// write, so a failed write requeues it like any other in-flight row.
    fn dispatch(&mut self, i: usize, pend: Pend) {
        if self.workers[i].quarantined {
            return self.enqueue_or_reroute(i, pend);
        }
        if self.workers[i].conn.is_none() {
            self.workers[i].queued.push_back(pend);
            return;
        }
        if !self.ensure_registered(i, pend.plan) {
            return self.enqueue_or_reroute(i, pend);
        }
        let msg = Message::Query {
            seq: pend.seq,
            plan: pend.plan,
            input: pend.input.clone(),
        };
        let seq = pend.seq;
        self.workers[i].in_flight.insert(seq, pend);
        self.send_to(i, &msg);
    }

    fn dispatch_shard(&mut self, i: usize, assign: ShardAssign) {
        if self.workers[i].quarantined {
            match self.route(i, 1) {
                Some(sib) => return self.dispatch_shard(sib, assign),
                None => {
                    if let Some(j) = self.jobs.remove(&assign.job) {
                        j.slot.fill(Err(FleetError::WorkerLost));
                    }
                    return;
                }
            }
        }
        if self.workers[i].conn.is_none() {
            self.workers[i].shard_queue.push_back(assign);
            return;
        }
        let Some(job) = self.jobs.get(&assign.job) else {
            return; // job already failed/finished
        };
        let msg = Message::Shard {
            job: assign.job,
            shard: assign.shard,
            net: job.net_bytes.clone(),
            counts: job.counts.clone(),
            kind: job.kind,
            cfg: job.cfg,
            first: assign.first,
            count: assign.count,
        };
        self.workers[i]
            .shards
            .insert((assign.job, assign.shard), assign);
        self.send_to(i, &msg);
    }

    fn flush(&mut self, i: usize) {
        while self.workers[i].conn.is_some() {
            let Some(pend) = self.workers[i].queued.pop_front() else {
                break;
            };
            self.dispatch(i, pend);
        }
        while self.workers[i].conn.is_some() {
            let Some(assign) = self.workers[i].shard_queue.pop_front() else {
                break;
            };
            self.dispatch_shard(i, assign);
        }
    }

    /// Pick the live, non-quarantined slot for a (plan, salt) pair:
    /// the home slot when healthy, else the nearest healthy sibling.
    fn route(&self, home: usize, salt: u64) -> Option<usize> {
        let n = self.workers.len();
        (0..n)
            .map(|k| (home + salt as usize + k) % n)
            .find(|&i| !self.workers[i].quarantined)
    }

    /// A connection died (EOF, write failure, or heartbeat kill): strike
    /// the slot, requeue everything it owed, and respawn or quarantine.
    fn conn_lost(&mut self, i: usize) {
        if self.workers[i].conn.take().is_none() && self.workers[i].child.is_none() {
            return;
        }
        self.reap(i);
        self.workers[i].missed_pings = 0;
        self.workers[i].registered.clear();
        self.workers[i].strikes += 1;

        let mut pends: Vec<Pend> = self.workers[i].in_flight.drain().map(|(_, p)| p).collect();
        pends.extend(self.workers[i].queued.drain(..));
        let mut shards: Vec<ShardAssign> = self.workers[i].shards.drain().map(|(_, s)| s).collect();
        shards.extend(self.workers[i].shard_queue.drain(..));
        self.stats.requeues += (pends.len() + shards.len()) as u64;

        // Drop this slot from any pending collection so one dead worker
        // cannot stall a stats/audit round until its deadline.
        if let Some(c) = self.stats_pending.as_mut() {
            c.want.remove(&i);
        }
        if let Some(c) = self.audit_pending.as_mut() {
            c.want.remove(&i);
        }
        self.finish_collections(false);

        if self.shutting_down {
            for p in pends {
                p.slot.fill(Err(FleetError::ShuttingDown));
            }
            return;
        }

        if self.workers[i].strikes >= self.cfg.max_worker_strikes {
            if !self.workers[i].quarantined {
                self.workers[i].quarantined = true;
                self.stats.worker_quarantines += 1;
            }
            match self.route(i, 1) {
                Some(sib) => {
                    for p in pends {
                        self.dispatch(sib, p);
                    }
                    for s in shards {
                        self.dispatch_shard(sib, s);
                    }
                }
                None => {
                    for p in pends {
                        p.slot.fill(Err(FleetError::WorkerLost));
                    }
                    let jobs: HashSet<u64> = shards.iter().map(|s| s.job).collect();
                    for job in jobs {
                        if let Some(j) = self.jobs.remove(&job) {
                            j.slot.fill(Err(FleetError::WorkerLost));
                        }
                    }
                }
            }
        } else {
            // Respawn the slot; its work waits in the queues and flushes
            // when the fresh process dials in.
            self.workers[i].spawn_gen += 1;
            self.stats.respawns += 1;
            for p in pends {
                self.workers[i].queued.push_back(p);
            }
            for s in shards {
                self.workers[i].shard_queue.push_back(s);
            }
            self.launch(i);
        }
    }

    fn on_accepted(&mut self, i: usize, gen: u64, stream: FleetStream) {
        if i >= self.workers.len() || self.workers[i].conn.is_some() || self.shutting_down {
            let _ = stream.shutdown();
            return;
        }
        // A stale generation's dial: the process was already declared
        // dead (and its replacement launched) while its Hello sat in the
        // accept queue. Adopting the dead stream would fail the first
        // write and strike the healthy replacement — drop it instead.
        if gen != self.workers[i].spawn_gen {
            let _ = stream.shutdown();
            return;
        }
        if self.workers[i].quarantined {
            let _ = stream.shutdown();
            self.reap(i);
            return;
        }
        let Ok(writer) = stream.try_clone() else {
            let _ = stream.shutdown();
            return;
        };
        self.workers[i].conn = Some(Conn { writer, gen });
        self.workers[i].last_heard = Instant::now();
        self.workers[i].missed_pings = 0;
        self.workers[i].registered.clear();

        // Per-connection reader: frames in, EOF/garbage out as Down.
        let tx = self.tx.clone();
        let mut reader = stream;
        std::thread::spawn(move || loop {
            match read_message(&mut reader) {
                Ok(msg) => {
                    if tx
                        .send(Event::Frame {
                            worker: i,
                            gen,
                            msg,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(_) => {
                    let _ = tx.send(Event::Down { worker: i, gen });
                    return;
                }
            }
        });

        let wire = WireServeConfig {
            max_batch: self.cfg.serve.max_batch as u64,
            max_wait_nanos: self.cfg.serve.max_wait.as_nanos() as u64,
            queue_capacity: self.cfg.serve.queue_capacity as u64,
            record_log: true,
            streaming_ingest: self.cfg.serve.streaming_ingest,
            max_plan_strikes: self.cfg.serve.max_plan_strikes as u64,
        };
        if self.send_to(i, &Message::Configure(wire)) {
            self.flush(i);
        }
    }

    fn on_frame(&mut self, i: usize, gen: u64, msg: Message) {
        let current = matches!(self.workers[i].conn.as_ref(), Some(conn) if conn.gen == gen);
        if !current {
            return; // a stale generation's frame
        }
        self.workers[i].last_heard = Instant::now();
        self.workers[i].missed_pings = 0;
        match msg {
            Message::Answer { seq, value } => {
                if let Some(pend) = self.workers[i].in_flight.remove(&seq) {
                    pend.slot.fill(Ok(value));
                    self.stats.answers += 1;
                    self.workers[i].strikes = 0;
                }
            }
            Message::Refused {
                seq,
                code: c,
                retry_after_nanos,
            } => {
                if let Some(pend) = self.workers[i].in_flight.remove(&seq) {
                    pend.slot.fill(Err(refusal(c, retry_after_nanos)));
                }
            }
            Message::ShardDone { job, shard, trials } => {
                self.workers[i].shards.remove(&(job, shard));
                self.workers[i].strikes = 0;
                let done = if let Some(j) = self.jobs.get_mut(&job) {
                    for t in &trials {
                        let idx = t.trial as usize;
                        if idx < j.per_trial.len() && j.per_trial[idx].is_none() {
                            j.per_trial[idx] = Some(trial_to_result(t));
                            j.filled += 1;
                        }
                    }
                    j.filled == j.per_trial.len()
                } else {
                    false
                };
                if done {
                    let j = self.jobs.remove(&job).expect("job present");
                    let per_trial: Vec<TrialResult> = j
                        .per_trial
                        .into_iter()
                        .map(|t| t.expect("filled"))
                        .collect();
                    j.slot.fill(Ok(merge_trials(per_trial)));
                }
            }
            Message::Pong { .. } | Message::Registered { .. } | Message::Hello { .. } => {}
            Message::StatsReply(s) => {
                if let Some(c) = self.stats_pending.as_mut() {
                    if c.want.remove(&i) {
                        c.got[i] = Some(s);
                    }
                }
                self.finish_collections(false);
            }
            Message::AuditReply { entries, ok } => {
                if let Some(c) = self.audit_pending.as_mut() {
                    if c.want.remove(&i) {
                        c.audits[i] = Some(WorkerAudit { entries, ok });
                    }
                }
                self.finish_collections(false);
            }
            Message::Bye { .. } => {}
            _ => {
                // A router-only frame arriving at the router is a peer
                // bug; count it and reset the connection.
                self.stats.protocol_errors += 1;
                self.conn_lost(i);
            }
        }
    }

    fn finish_collections(&mut self, force: bool) {
        let now = Instant::now();
        if let Some(c) = self.stats_pending.as_ref() {
            if c.want.is_empty() || force || now >= c.deadline {
                let c = self.stats_pending.take().expect("checked");
                let mut out = self.stats.clone();
                out.workers = c.got;
                c.slot.fill(out);
            }
        }
        if let Some(c) = self.audit_pending.as_ref() {
            if c.want.is_empty() || force || now >= c.deadline {
                let c = self.audit_pending.take().expect("checked");
                c.slot.fill(FleetAudit { workers: c.audits });
            }
        }
    }

    fn heartbeat_tick(&mut self) {
        self.finish_collections(false);
        for i in 0..self.workers.len() {
            let silent = {
                let w = &self.workers[i];
                w.conn.is_some()
                    && (w.has_outstanding()
                        || self.stats_pending.is_some()
                        || self.audit_pending.is_some())
                    && w.last_heard.elapsed() > self.cfg.heartbeat
            };
            if !silent {
                continue;
            }
            if self.workers[i].missed_pings >= self.cfg.max_missed_pings {
                self.stats.heartbeat_kills += 1;
                self.conn_lost(i);
            } else {
                self.workers[i].missed_pings += 1;
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                self.send_to(i, &Message::Ping { nonce });
            }
        }
    }

    fn on_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Register {
                net_bytes,
                plan_bytes,
                capacity,
                input_dim,
                structure_hash,
                hot,
                slot,
            } => {
                let id = self.next_plan;
                self.next_plan += 1;
                self.stats.plans += 1;
                let home = (structure_hash % self.workers.len().max(1) as u64) as usize;
                self.plans.insert(
                    id,
                    PlanRec {
                        net_bytes,
                        plan_bytes,
                        capacity,
                        input_dim,
                        home,
                        hot,
                        rr: 0,
                    },
                );
                slot.fill(FleetPlanId(id));
            }
            Cmd::Submit { plan, input, slot } => {
                if self.shutting_down {
                    slot.fill(Err(FleetError::ShuttingDown));
                    return;
                }
                let Some(rec) = self.plans.get_mut(&plan) else {
                    slot.fill(Err(FleetError::UnknownPlan));
                    return;
                };
                if input.len() != rec.input_dim {
                    slot.fill(Err(FleetError::DimensionMismatch {
                        expected: rec.input_dim,
                        got: input.len(),
                    }));
                    return;
                }
                // A hot plan's input space spreads round-robin over the
                // fleet; a cold plan sticks to its home shard.
                let (home, salt) = if rec.hot {
                    rec.rr += 1;
                    (rec.home, rec.rr - 1)
                } else {
                    (rec.home, 0)
                };
                let Some(target) = self.route(home, salt) else {
                    slot.fill(Err(FleetError::WorkerLost));
                    return;
                };
                let seq = self.next_seq;
                self.next_seq += 1;
                self.dispatch(
                    target,
                    Pend {
                        seq,
                        plan,
                        input,
                        slot,
                    },
                );
            }
            Cmd::Campaign {
                net_bytes,
                counts,
                kind,
                cfg,
                slot,
            } => {
                if self.shutting_down {
                    slot.fill(Err(FleetError::ShuttingDown));
                    return;
                }
                if cfg.trials == 0 {
                    slot.fill(Ok(merge_trials(Vec::new())));
                    return;
                }
                let live: Vec<usize> = (0..self.workers.len())
                    .filter(|&i| !self.workers[i].quarantined)
                    .collect();
                if live.is_empty() {
                    slot.fill(Err(FleetError::WorkerLost));
                    return;
                }
                let job = self.next_job;
                self.next_job += 1;
                self.jobs.insert(
                    job,
                    Job {
                        per_trial: vec![None; cfg.trials],
                        filled: 0,
                        slot,
                        net_bytes,
                        counts,
                        kind,
                        cfg,
                    },
                );
                // ~2 contiguous shards per live worker: enough slack for
                // work stealing on death without shredding trial locality.
                let shard_count = cfg.trials.min(2 * live.len());
                let base = cfg.trials / shard_count;
                let extra = cfg.trials % shard_count;
                let mut first = 0u64;
                for s in 0..shard_count {
                    let count = (base + usize::from(s < extra)) as u64;
                    let assign = ShardAssign {
                        job,
                        shard: s as u64,
                        first,
                        count,
                    };
                    first += count;
                    self.dispatch_shard(live[s % live.len()], assign);
                }
            }
            Cmd::Kill { worker, slot } => {
                let killed = worker < self.workers.len()
                    && self.workers[worker].child.is_some()
                    && !self.workers[worker].quarantined;
                if killed {
                    // conn_lost reaps (SIGKILL), requeues everything the
                    // worker owed, and respawns — handled inline so the
                    // caller observes the respawn immediately rather than
                    // waiting for the reader thread's Down event.
                    self.conn_lost(worker);
                }
                slot.fill(killed);
            }
            Cmd::Stats { slot } => {
                let want: HashSet<usize> = (0..self.workers.len())
                    .filter(|&i| self.workers[i].conn.is_some())
                    .collect();
                let n = self.workers.len();
                self.stats_pending = Some(Collect {
                    slot,
                    want: want.clone(),
                    got: vec![None; n],
                    audits: vec![None; n],
                    deadline: Instant::now() + Duration::from_secs(5),
                });
                for i in want {
                    self.send_to(i, &Message::StatsReq);
                }
                self.finish_collections(false);
            }
            Cmd::Audit { slot } => {
                let want: HashSet<usize> = (0..self.workers.len())
                    .filter(|&i| self.workers[i].conn.is_some())
                    .collect();
                let n = self.workers.len();
                self.audit_pending = Some(Collect {
                    slot,
                    want: want.clone(),
                    got: vec![None; n],
                    audits: vec![None; n],
                    deadline: Instant::now() + Duration::from_secs(10),
                });
                for i in want {
                    self.send_to(i, &Message::AuditReq);
                }
                self.finish_collections(false);
            }
            Cmd::Shutdown { slot } => {
                self.shutting_down = true;
                for job in std::mem::take(&mut self.jobs) {
                    job.1.slot.fill(Err(FleetError::ShuttingDown));
                }
                for i in 0..self.workers.len() {
                    for (_, p) in self.workers[i].in_flight.drain() {
                        p.slot.fill(Err(FleetError::ShuttingDown));
                    }
                    for p in self.workers[i].queued.drain(..) {
                        p.slot.fill(Err(FleetError::ShuttingDown));
                    }
                    self.send_to(i, &Message::Shutdown);
                }
                let deadline = Instant::now() + Duration::from_secs(5);
                for i in 0..self.workers.len() {
                    if let Some(child) = self.workers[i].child.as_mut() {
                        loop {
                            match child.try_wait() {
                                Ok(Some(_)) => break,
                                Ok(None) if Instant::now() < deadline => {
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                _ => {
                                    let _ = child.kill();
                                    let _ = child.wait();
                                    break;
                                }
                            }
                        }
                        self.workers[i].child = None;
                    }
                    if let Some(conn) = self.workers[i].conn.take() {
                        let _ = conn.writer.shutdown();
                    }
                }
                slot.fill(self.stats.clone());
            }
        }
    }

    fn run(mut self) {
        for i in 0..self.workers.len() {
            self.launch(i);
        }
        loop {
            match self.rx.recv_timeout(self.cfg.heartbeat) {
                Ok(Event::Cmd(cmd)) => {
                    let is_shutdown = matches!(cmd, Cmd::Shutdown { .. });
                    self.on_cmd(cmd);
                    if is_shutdown {
                        self.finish_collections(true);
                        return;
                    }
                }
                Ok(Event::Accepted {
                    worker,
                    gen,
                    stream,
                }) => self.on_accepted(worker, gen, stream),
                Ok(Event::Frame { worker, gen, msg }) => self.on_frame(worker, gen, msg),
                Ok(Event::Down { worker, gen }) => {
                    let current = matches!(
                        self.workers[worker].conn.as_ref(),
                        Some(conn) if conn.gen == gen
                    );
                    if current {
                        self.conn_lost(worker);
                    }
                }
                Ok(Event::Noise) => self.stats.protocol_errors += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => self.heartbeat_tick(),
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

fn refusal(c: u64, retry_after_nanos: u64) -> FleetError {
    match c {
        code::UNKNOWN_PLAN => FleetError::UnknownPlan,
        code::DIMENSION_MISMATCH => FleetError::DimensionMismatch {
            expected: 0,
            got: 0,
        },
        code::QUEUE_FULL | code::OVERLOADED => FleetError::Busy {
            retry_after: retry_after(retry_after_nanos),
        },
        code::QUARANTINED => FleetError::Quarantined,
        code::DEADLINE => FleetError::Deadline,
        code::SHARD_DOWN | code::WORKER_DIED => FleetError::WorkerLost,
        _ => FleetError::Protocol,
    }
}

// ---------------------------------------------------------------------
// Public front-end
// ---------------------------------------------------------------------

/// The multi-process certification fleet's front-end. See the
/// [module docs](self) for the supervision contract.
pub struct FleetRouter {
    tx: mpsc::Sender<Event>,
    admission: Mutex<Admission>,
    addr: String,
    n_workers: usize,
    supervisor: Option<std::thread::JoinHandle<()>>,
    stop_accept: Arc<AtomicBool>,
    done: AtomicBool,
}

impl FleetRouter {
    /// Bind a listener, launch `n_workers` processes via `spawner`, and
    /// start supervising. Workers dial in asynchronously; traffic
    /// submitted before a worker connects queues and flushes on arrival.
    pub fn start(
        cfg: FleetConfig,
        n_workers: usize,
        spawner: WorkerSpawner,
    ) -> io::Result<FleetRouter> {
        assert!(n_workers >= 1, "a fleet needs at least one worker");
        let listener = FleetListener::bind(cfg.transport)?;
        let addr = listener.addr();
        let (tx, rx) = mpsc::channel::<Event>();
        let stop_accept = Arc::new(AtomicBool::new(false));

        // Accept loop: every dialer must lead with a valid Hello within
        // a bounded window or be dropped as noise.
        let accept_tx = tx.clone();
        let stop = Arc::clone(&stop_accept);
        std::thread::spawn(move || loop {
            let Ok(mut stream) = listener.accept() else {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                return; // drops the listener (and its socket file)
            }
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let hello = read_message(&mut stream);
            let _ = stream.set_read_timeout(None);
            match hello {
                Ok(Message::Hello { worker, gen }) => {
                    if accept_tx
                        .send(Event::Accepted {
                            worker: worker as usize,
                            gen,
                            stream,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                // A clean EOF before any frame is a dial-and-die (a
                // worker SIGKILLed mid-connect), not protocol noise.
                Err(ProtocolError::Closed) => {
                    let _ = stream.shutdown();
                }
                _ => {
                    let _ = stream.shutdown();
                    let _ = accept_tx.send(Event::Noise);
                }
            }
        });

        let supervisor = Supervisor {
            rx,
            tx: tx.clone(),
            spawner,
            addr: addr.clone(),
            workers: (0..n_workers).map(|_| WorkerSlot::new()).collect(),
            plans: HashMap::new(),
            jobs: HashMap::new(),
            next_plan: 0,
            next_seq: 0,
            next_job: 0,
            next_nonce: 0,
            stats: FleetStats::default(),
            stats_pending: None,
            audit_pending: None,
            shutting_down: false,
            cfg,
        };
        let handle = std::thread::spawn(move || supervisor.run());

        Ok(FleetRouter {
            tx,
            admission: Mutex::new(Admission::new()),
            addr,
            n_workers,
            supervisor: Some(handle),
            stop_accept,
            done: AtomicBool::new(false),
        })
    }

    /// The fleet's dialable address (`unix:…` / `tcp:…`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    fn admit(
        &self,
        net: &Arc<Mlp>,
        plan: &InjectionPlan,
        capacity: f64,
        hot: bool,
    ) -> Result<FleetPlanId, FleetError> {
        // Admission happens exactly once, at the router: typed rejection
        // here, and the IR's structure hash becomes the routing fact.
        let ir = self
            .admission
            .lock()
            .expect("admission mutex")
            .admit(net, plan, capacity, None)
            .map_err(FleetError::Admission)?;
        let slot = Oneshot::new();
        self.tx
            .send(Event::Cmd(Cmd::Register {
                net_bytes: net_to_bytes(net),
                plan_bytes: crate::proto::plan_to_bytes(plan),
                capacity,
                input_dim: net.input_dim(),
                structure_hash: ir.structure_hash(),
                hot,
                slot: Arc::clone(&slot),
            }))
            .map_err(|_| FleetError::ShuttingDown)?;
        Ok(slot.wait())
    }

    /// Admit `plan` against `net` and register it with the fleet. The
    /// plan lives on its structure-hash home worker.
    pub fn register(
        &self,
        net: &Arc<Mlp>,
        plan: &InjectionPlan,
        capacity: f64,
    ) -> Result<FleetPlanId, FleetError> {
        self.admit(net, plan, capacity, false)
    }

    /// [`register`](Self::register) for a *hot* plan: its input space is
    /// partitioned round-robin across every worker instead of pinning to
    /// one home shard.
    pub fn register_hot(
        &self,
        net: &Arc<Mlp>,
        plan: &InjectionPlan,
        capacity: f64,
    ) -> Result<FleetPlanId, FleetError> {
        self.admit(net, plan, capacity, true)
    }

    /// Submit one query; resolve it later through the handle.
    pub fn submit(&self, plan: FleetPlanId, input: Vec<f64>) -> FleetHandle {
        let slot = Oneshot::new();
        let handle = FleetHandle {
            slot: Arc::clone(&slot),
        };
        if self
            .tx
            .send(Event::Cmd(Cmd::Submit {
                plan: plan.0,
                input,
                slot,
            }))
            .is_err()
        {
            handle.slot.fill(Err(FleetError::ShuttingDown));
        }
        handle
    }

    /// Submit and wait: the fleet twin of `CertServer::query`.
    pub fn query(&self, plan: FleetPlanId, input: &[f64]) -> Result<f64, FleetError> {
        self.submit(plan, input.to_vec()).wait()
    }

    /// Run a whole campaign sharded across the fleet, blocking until the
    /// deterministic merge completes. Bitwise equal to a single-process
    /// [`run_campaign`](neurofail_inject::run_campaign) with the same
    /// arguments (contract 15).
    pub fn run_campaign(
        &self,
        net: &Mlp,
        counts: &[usize],
        kind: TrialKind,
        cfg: &CampaignConfig,
    ) -> Result<CampaignResult, FleetError> {
        let slot = Oneshot::new();
        self.tx
            .send(Event::Cmd(Cmd::Campaign {
                net_bytes: net_to_bytes(net),
                counts: counts.iter().map(|&c| c as u64).collect(),
                kind,
                cfg: *cfg,
                slot: Arc::clone(&slot),
            }))
            .map_err(|_| FleetError::ShuttingDown)?;
        slot.wait()
    }

    /// SIGKILL worker `i`'s process (supervision requeues its work and
    /// respawns it). Returns false if the slot had no live process.
    pub fn kill_worker(&self, i: usize) -> bool {
        let slot = Oneshot::new();
        if self
            .tx
            .send(Event::Cmd(Cmd::Kill {
                worker: i,
                slot: Arc::clone(&slot),
            }))
            .is_err()
        {
            return false;
        }
        slot.wait()
    }

    /// Router counters plus fresh per-worker self-reports.
    pub fn stats(&self) -> FleetStats {
        let slot = Oneshot::new();
        if self
            .tx
            .send(Event::Cmd(Cmd::Stats {
                slot: Arc::clone(&slot),
            }))
            .is_err()
        {
            return FleetStats::default();
        }
        slot.wait()
    }

    /// Ask every surviving worker to replay-verify its request log.
    pub fn audit(&self) -> FleetAudit {
        let slot = Oneshot::new();
        if self
            .tx
            .send(Event::Cmd(Cmd::Audit {
                slot: Arc::clone(&slot),
            }))
            .is_err()
        {
            return FleetAudit::default();
        }
        slot.wait()
    }

    fn shutdown_inner(&mut self) -> FleetStats {
        if self.done.swap(true, Ordering::SeqCst) {
            return FleetStats::default();
        }
        let slot = Oneshot::new();
        let stats = if self
            .tx
            .send(Event::Cmd(Cmd::Shutdown {
                slot: Arc::clone(&slot),
            }))
            .is_ok()
        {
            slot.wait_for(Duration::from_secs(30)).unwrap_or_default()
        } else {
            FleetStats::default()
        };
        // Unblock and retire the accept thread (it drops the listener
        // and the unix socket file with it).
        self.stop_accept.store(true, Ordering::SeqCst);
        let _ = FleetStream::connect(&self.addr);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        stats
    }

    /// Shut the fleet down: drain, stop every worker process, and return
    /// the final router counters.
    pub fn shutdown(mut self) -> FleetStats {
        self.shutdown_inner()
    }
}

impl Drop for FleetRouter {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
