//! The fleet worker process: a thin socket shell around an embedded
//! [`CertServer`].
//!
//! A worker dials the router's address (handed down through the
//! environment — see [`ENV_ADDR`]), introduces itself with
//! [`Message::Hello`], and then serves the router's frames until told to
//! shut down or until the connection dies. Everything that actually
//! evaluates a disturbance runs through the same supervised serving
//! engine a single-process deployment uses — the worker adds *no*
//! numeric code of its own, which is what makes the fleet's bitwise
//! equivalence to a single [`CertServer`] a protocol property rather
//! than a numerical one.
//!
//! Failure discipline:
//!
//! * a malformed frame is answered with a best-effort [`Message::Bye`]
//!   and a **clean** nonzero exit (never a panic) — the wire-fuzz suite
//!   distinguishes exit code 1 from the panic code 101;
//! * answer-pump and campaign threads carry an abort-on-panic guard: a
//!   panic there (real or chaos-injected) downgrades the whole process
//!   to a kill, which the router's supervision handles, instead of a
//!   silently wedged worker that still answers pings;
//! * with the `failpoints` feature, a worker self-arms a
//!   [`ChaosSchedule`](neurofail_par::failpoint) from [`ENV_CHAOS`], so
//!   process-level chaos composes with the serving engine's own
//!   failpoint sites.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use neurofail_inject::{ArtifactStore, CampaignConfig, PlanRegistry, TrialKind};
use neurofail_nn::{net_from_bytes, Mlp};
use neurofail_par::{failpoint, Parallelism};
use neurofail_serve::{
    share_store, CertServer, LogEntry, RequestError, RequestLog, ServeConfig, SharedArtifactStore,
    SubmitError,
};

use crate::proto::{
    code, plan_from_bytes, push_message, read_message, write_message, Message, ProtocolError,
    WireTrial, WireWorkerStats,
};
use crate::transport::FleetStream;

/// Env var carrying the router's dialable address (`unix:…` / `tcp:…`).
pub const ENV_ADDR: &str = "NEUROFAIL_FLEET_ADDR";
/// Env var carrying this worker's fleet slot index.
pub const ENV_WORKER: &str = "NEUROFAIL_FLEET_WORKER";
/// Env var carrying the shared [`ArtifactStore`] directory (optional).
pub const ENV_STORE: &str = "NEUROFAIL_FLEET_STORE";
/// Env var carrying a chaos seed the worker self-arms from (optional;
/// effective only when built with `--features failpoints`).
pub const ENV_CHAOS: &str = "NEUROFAIL_FLEET_CHAOS";

/// Spawn generation of this worker's slot (stamped into the
/// [`Message::Hello`] handshake so the router can drop stale dials).
pub const ENV_GEN: &str = "NEUROFAIL_FLEET_GEN";

/// Abort the process if the carrying thread panics. A worker whose
/// answer pump died would keep answering pings while never answering
/// queries — the one failure shape supervision cannot see. Escalating
/// the panic to a process death converts it into the failure the router
/// *is* built to handle (connection loss → requeue + respawn).
struct AbortOnPanic;

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::abort();
        }
    }
}

/// Run a worker configured entirely from the [`ENV_ADDR`]-family
/// environment variables; returns the process exit code (0 graceful,
/// 1 protocol error / bad environment). The canonical `main` of a fleet
/// worker — tests and the bundled example re-exec their own binary into
/// this.
pub fn run_worker_from_env() -> i32 {
    let Ok(addr) = std::env::var(ENV_ADDR) else {
        eprintln!("fleet worker: {ENV_ADDR} not set");
        return 1;
    };
    let worker = std::env::var(ENV_WORKER)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    let gen = std::env::var(ENV_GEN)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    let store_dir = std::env::var(ENV_STORE).ok().map(PathBuf::from);
    let chaos_seed: Option<u64> = std::env::var(ENV_CHAOS).ok().and_then(|s| s.parse().ok());
    match run_worker(&addr, worker, gen, store_dir, chaos_seed) {
        Ok(()) => 0,
        Err(ProtocolError::Closed) => 0,
        Err(e) => {
            eprintln!("fleet worker {worker}: {e}");
            1
        }
    }
}

/// Connect to `addr` and serve the router until [`Message::Shutdown`] or
/// connection loss. See [`run_worker_from_env`] for the env-driven
/// wrapper.
pub fn run_worker(
    addr: &str,
    worker: u64,
    gen: u64,
    store_dir: Option<PathBuf>,
    chaos_seed: Option<u64>,
) -> Result<(), ProtocolError> {
    #[cfg(feature = "failpoints")]
    let _chaos = chaos_seed.map(|seed| {
        use neurofail_par::failpoint::{ChaosAction, ChaosSchedule};
        // Low per-hit probabilities, one fire per site: each chaotic
        // worker life fails at most a few times, in ways the router's
        // supervision must absorb (recv panic = process death 101, answer
        // stall = heartbeat kill, campaign panic = abort + shard requeue).
        neurofail_par::failpoint::install(
            ChaosSchedule::new(seed)
                .with_prob("fleet::recv", ChaosAction::Panic, 0.02, 1)
                .with_prob("fleet::answer", ChaosAction::Panic, 0.02, 1)
                .with_prob(
                    "fleet::answer",
                    ChaosAction::Stall(Duration::from_millis(400)),
                    0.02,
                    1,
                )
                .with_prob("fleet::campaign", ChaosAction::Panic, 0.05, 1),
        )
    });
    #[cfg(not(feature = "failpoints"))]
    let _ = chaos_seed;

    let stream = FleetStream::connect(addr)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    send(&writer, &Message::Hello { worker, gen })?;

    let store: Option<SharedArtifactStore> = match store_dir {
        None => None,
        Some(dir) => Some(share_store(
            ArtifactStore::open(dir).map_err(ProtocolError::from)?,
        )),
    };

    let mut state = WorkerState {
        cfg: ServeConfig {
            record_log: true,
            ..ServeConfig::default()
        },
        registry: PlanRegistry::new(),
        plan_map: HashMap::new(),
        server: None,
        store,
        log: Vec::new(),
        acc: WireWorkerStats::default(),
    };

    // The answer pump: resolves responses strictly in submission order
    // and writes them back, so the main loop never blocks on a wait.
    // Answers collect in `out` and go out in one write just before the
    // pump blocks — on an empty channel or an unresolved handle — so no
    // answer waits on a later one.
    let (pump_tx, pump_rx) = mpsc::channel::<(u64, neurofail_serve::ResponseHandle)>();
    let pump_writer = Arc::clone(&writer);
    let pump = std::thread::spawn(move || {
        let _guard = AbortOnPanic;
        let mut out = Vec::new();
        loop {
            let (seq, handle) = match pump_rx.try_recv() {
                Ok(next) => next,
                Err(TryRecvError::Empty) => {
                    if send_all(&pump_writer, &mut out).is_err() {
                        return; // connection gone; main loop is dying too
                    }
                    match pump_rx.recv() {
                        Ok(next) => next,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            failpoint!("fleet::answer");
            let resolved = match handle.try_wait() {
                Some(resolved) => resolved.map(|r| r.value),
                None => {
                    if send_all(&pump_writer, &mut out).is_err() {
                        return;
                    }
                    handle.wait()
                }
            };
            let msg = match resolved {
                Ok(value) => Message::Answer { seq, value },
                Err(e) => Message::Refused {
                    seq,
                    code: request_error_code(&e),
                    retry_after_nanos: 0,
                },
            };
            push_message(&mut out, &msg);
        }
        let _ = send_all(&pump_writer, &mut out);
    });

    let mut campaign_threads = Vec::new();
    let outcome = loop {
        failpoint!("fleet::recv");
        let msg = match read_message(&mut reader) {
            Ok(m) => m,
            Err(ProtocolError::Closed) => break Ok(()),
            Err(e @ ProtocolError::Io(_)) => break Err(e),
            Err(e) => break Err(reset(&writer, reader.get_ref(), e)),
        };
        match msg {
            Message::Configure(wire) => {
                state.retire_server();
                state.cfg = ServeConfig {
                    max_batch: wire.max_batch as usize,
                    max_wait: Duration::from_nanos(wire.max_wait_nanos),
                    queue_capacity: wire.queue_capacity as usize,
                    record_log: wire.record_log,
                    max_plan_strikes: u32::try_from(wire.max_plan_strikes)
                        .expect("Message::decode bounds max_plan_strikes"),
                    ..ServeConfig::default()
                };
            }
            Message::Register {
                plan,
                net,
                plan_bytes,
                capacity,
            } => {
                if let Err(e) = state.register(plan, &net, &plan_bytes, capacity) {
                    break Err(reset(&writer, reader.get_ref(), e));
                }
                send(&writer, &Message::Registered { plan })?;
            }
            Message::Query { seq, plan, input } => match state.submit(plan, input) {
                Ok(handle) => {
                    if pump_tx.send((seq, handle)).is_err() {
                        break Err(ProtocolError::Io(std::io::ErrorKind::BrokenPipe));
                    }
                }
                Err((code, retry_after_nanos)) => send(
                    &writer,
                    &Message::Refused {
                        seq,
                        code,
                        retry_after_nanos,
                    },
                )?,
            },
            Message::Shard {
                job,
                shard,
                net,
                counts,
                kind,
                cfg,
                first,
                count,
            } => {
                let net: Mlp = match net_from_bytes(&net) {
                    Ok(net) => net,
                    Err(e) => break Err(reset(&writer, reader.get_ref(), e.into())),
                };
                let shard_writer = Arc::clone(&writer);
                campaign_threads.push(std::thread::spawn(move || {
                    let _guard = AbortOnPanic;
                    failpoint!("fleet::campaign");
                    let trials = run_shard(&net, &counts, kind, &cfg, first, count);
                    let _ = send(&shard_writer, &Message::ShardDone { job, shard, trials });
                }));
                campaign_threads.retain(|t| !t.is_finished());
            }
            Message::Ping { nonce } => send(&writer, &Message::Pong { nonce })?,
            Message::StatsReq => {
                let stats = state.stats_snapshot();
                send(&writer, &Message::StatsReply(stats))?;
            }
            Message::AuditReq => {
                let (entries, ok) = state.audit();
                send(&writer, &Message::AuditReply { entries, ok })?;
            }
            Message::Shutdown => {
                state.retire_server();
                let _ = send(&writer, &Message::Bye { code: 0 });
                break Ok(());
            }
            Message::Bye { .. } => break Ok(()),
            // Worker→router frames arriving at a worker are a peer bug.
            _ => {
                let _ = send(&writer, &Message::Bye { code: 1 });
                break Err(ProtocolError::Malformed("router sent a worker-only frame"));
            }
        }
    };

    drop(pump_tx);
    state.retire_server();
    for t in campaign_threads {
        let _ = t.join();
    }
    let _ = pump.join();
    outcome
}

/// Evaluate one contiguous trial range exactly as the single-process
/// campaign would (sequentially — fleet parallelism comes from the
/// processes, not nested thread pools).
fn run_shard(
    net: &Mlp,
    counts: &[u64],
    kind: TrialKind,
    cfg: &CampaignConfig,
    first: u64,
    count: u64,
) -> Vec<WireTrial> {
    let counts: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
    let per_trial = neurofail_inject::run_campaign_trials(
        net,
        &counts,
        kind,
        cfg,
        Parallelism::Sequential,
        first as usize,
        count as usize,
    );
    per_trial
        .into_iter()
        .enumerate()
        .map(|(i, (stats, worst))| WireTrial {
            trial: first + i as u64,
            stats: stats.to_raw(),
            worst,
        })
        .collect()
}

struct WorkerState {
    cfg: ServeConfig,
    registry: PlanRegistry,
    /// Fleet-wide plan id → this process's registry id.
    plan_map: HashMap<u64, neurofail_inject::PlanId>,
    server: Option<CertServer>,
    store: Option<SharedArtifactStore>,
    /// Request-log entries accumulated across server rebuilds.
    log: Vec<LogEntry>,
    /// Stats accumulated across server rebuilds.
    acc: WireWorkerStats,
}

impl WorkerState {
    /// Lazily (re)build the embedded server over the current plan set.
    fn server(&mut self) -> &CertServer {
        if self.server.is_none() {
            let server = match &self.store {
                Some(store) => {
                    CertServer::start_with_store(&self.registry, self.cfg, Arc::clone(store))
                }
                None => CertServer::start(&self.registry, self.cfg),
            };
            self.server = Some(server);
        }
        self.server.as_ref().expect("just built")
    }

    /// Shut the embedded server down (if any), folding its request log
    /// and serving stats into the process totals.
    fn retire_server(&mut self) {
        if let Some(server) = self.server.take() {
            // Drain-then-take: rows still in flight at the rebuild are
            // answered (and logged) before the log is captured.
            let (log, all_stats) = server.retire();
            self.log.extend(log.entries);
            for stats in all_stats {
                self.acc.requests += stats.requests;
                self.acc.rows_served += stats.rows_served;
                self.acc.checkpoint_hits += stats.checkpoint_hits;
                self.acc.checkpoint_rows_reused += stats.checkpoint_rows_reused;
                self.acc.store_hits += stats.store_hits;
                self.acc.store_rows_reused += stats.store_rows_reused;
                self.acc.store_publishes += stats.store_publishes;
                self.acc.serve_restarts += stats.worker_restarts;
                self.acc.serve_rows_requeued += stats.rows_requeued;
                self.acc.plans_quarantined += stats.plans_quarantined;
            }
            self.acc.server_rebuilds += 1;
        }
    }

    /// Admit fleet plan `plan` unless this process already holds it.
    fn register(
        &mut self,
        plan: u64,
        net: &[u8],
        plan_bytes: &[u8],
        capacity: f64,
    ) -> Result<(), ProtocolError> {
        if self.plan_map.contains_key(&plan) {
            return Ok(());
        }
        let net = Arc::new(net_from_bytes(net)?);
        let decoded = plan_from_bytes(plan_bytes)?;
        // Registration after the server exists forces a rebuild; retire
        // the old one so its log and stats survive into this process's
        // totals.
        self.retire_server();
        let id = self
            .registry
            .register(net, &decoded, capacity)
            .map_err(|_| ProtocolError::Malformed("plan failed admission"))?;
        self.plan_map.insert(plan, id);
        Ok(())
    }

    fn submit(
        &mut self,
        plan: u64,
        input: Vec<f64>,
    ) -> Result<neurofail_serve::ResponseHandle, (u64, u64)> {
        let Some(&local) = self.plan_map.get(&plan) else {
            return Err((code::UNKNOWN_PLAN, 0));
        };
        self.server().submit(local, input).map_err(|e| match e {
            SubmitError::UnknownPlan(_) => (code::UNKNOWN_PLAN, 0),
            SubmitError::DimensionMismatch { .. } => (code::DIMENSION_MISMATCH, 0),
            SubmitError::QueueFull { retry_after, .. } => {
                (code::QUEUE_FULL, retry_after.as_nanos() as u64)
            }
            SubmitError::Overloaded { estimated_wait, .. } => {
                (code::OVERLOADED, estimated_wait.as_nanos() as u64)
            }
            SubmitError::Quarantined(_) => (code::QUARANTINED, 0),
            SubmitError::ShardDown(_) => (code::SHARD_DOWN, 0),
            _ => (code::SHARD_DOWN, 0),
        })
    }

    fn stats_snapshot(&mut self) -> WireWorkerStats {
        let mut out = self.acc;
        if let Some(server) = &self.server {
            let ids: Vec<_> = self.registry.iter().map(|(id, _)| id).collect();
            for id in ids {
                if let Some(stats) = server.stats(id) {
                    out.requests += stats.requests;
                    out.rows_served += stats.rows_served;
                    out.checkpoint_hits += stats.checkpoint_hits;
                    out.checkpoint_rows_reused += stats.checkpoint_rows_reused;
                    out.store_hits += stats.store_hits;
                    out.store_rows_reused += stats.store_rows_reused;
                    out.store_publishes += stats.store_publishes;
                    out.serve_restarts += stats.worker_restarts;
                    out.serve_rows_requeued += stats.rows_requeued;
                    out.plans_quarantined += stats.plans_quarantined;
                }
            }
        }
        out
    }

    /// Replay-verify everything this process ever answered: the live
    /// server's log plus everything accumulated across rebuilds, checked
    /// bitwise against direct evaluation.
    fn audit(&mut self) -> (u64, bool) {
        let mut entries = self.log.clone();
        if let Some(server) = &self.server {
            entries.extend(server.take_log().entries.iter().cloned());
            // take_log drained the live log; keep those entries for any
            // later audit.
            self.log.extend(entries[self.log.len()..].iter().cloned());
        }
        let log = RequestLog { entries };
        let ok = log.verify(&self.registry).is_ok();
        (log.len() as u64, ok)
    }
}

fn send(writer: &Mutex<FleetStream>, msg: &Message) -> Result<(), ProtocolError> {
    write_message(&mut *writer.lock().expect("writer mutex"), msg)?;
    Ok(())
}

/// Write a buffer of whole frames in one write, then empty it.
fn send_all(writer: &Mutex<FleetStream>, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    if !out.is_empty() {
        writer.lock().expect("writer mutex").write_all(out)?;
        out.clear();
    }
    Ok(())
}

/// Malformed traffic: tell the peer why, then reset. The contract under
/// fuzzed frames is a *typed* death — clean exit, never a panic or a
/// hang.
fn reset(writer: &Mutex<FleetStream>, stream: &FleetStream, e: ProtocolError) -> ProtocolError {
    let _ = send(writer, &Message::Bye { code: bye_code(&e) });
    let _ = stream.shutdown();
    e
}

fn request_error_code(e: &RequestError) -> u64 {
    match e {
        RequestError::WorkerDied => code::WORKER_DIED,
        RequestError::Deadline => code::DEADLINE,
        RequestError::Quarantined(_) => code::QUARANTINED,
        _ => code::WORKER_DIED,
    }
}

/// Map a protocol error onto the reason word of a parting
/// [`Message::Bye`].
fn bye_code(e: &ProtocolError) -> u64 {
    match e {
        ProtocolError::BadMagic(_) => 2,
        ProtocolError::Version { .. } => 3,
        ProtocolError::UnknownKind(_) => 4,
        ProtocolError::Oversized(_) => 5,
        ProtocolError::Misaligned(_) => 6,
        ProtocolError::Checksum { .. } => 7,
        ProtocolError::Truncated => 8,
        ProtocolError::Malformed(_) => 9,
        _ => 1,
    }
}
