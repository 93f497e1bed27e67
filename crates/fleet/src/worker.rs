//! The fleet worker process: a thin socket shell around one embedded
//! [`CertServer`] per admitted plan.
//!
//! A worker dials the router's address (handed down through the
//! environment — see [`ENV_ADDR`]), introduces itself with
//! [`Message::Hello`], and then serves the router's frames until told to
//! shut down or until the connection dies. Each [`Message::Register`]
//! starts that plan's server over a one-plan registry, so a late
//! registration leaves the servers already running untouched. Everything
//! that actually evaluates a disturbance runs through the same
//! supervised serving engine a single-process deployment uses — the
//! worker adds *no* numeric code of its own, which is what makes the
//! fleet's bitwise equivalence to a single [`CertServer`] a protocol
//! property rather than a numerical one.
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

use std::collections::hash_map::{Entry, HashMap};
use std::io::{BufReader, Write};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};

use neurofail_inject::{CampaignConfig, PlanId, PlanRegistry, TrialKind};
use neurofail_nn::{net_from_bytes, Mlp};
use neurofail_par::{failpoint, Parallelism};
use neurofail_serve::{
    CertServer, RequestError, RequestLog, ResponseHandle, ServeConfig, SubmitError,
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
    let chaos_seed: Option<u64> = std::env::var(ENV_CHAOS).ok().and_then(|s| s.parse().ok());
    match run_worker(&addr, worker, gen, chaos_seed) {
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
    chaos_seed: Option<u64>,
) -> Result<(), ProtocolError> {
    #[cfg(feature = "failpoints")]
    let _chaos = chaos_seed.map(|seed| {
        use neurofail_par::failpoint::{ChaosAction, ChaosSchedule};
        use std::time::Duration;
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

    // Fleet-wide plan id → that plan's registry and server.
    let mut plans: HashMap<u64, PlanServer> = HashMap::new();

    // The answer pump: resolves responses strictly in submission order
    // and writes them back, so the main loop never blocks on a wait.
    // Answers collect in `out` and go out in one write just before the
    // pump blocks — on an empty channel or an unresolved handle — so no
    // answer waits on a later one.
    let (pump_tx, pump_rx) = mpsc::channel::<(u64, ResponseHandle)>();
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
            Message::Register {
                plan,
                net,
                plan_bytes,
                capacity,
            } => {
                // A worker already holding the plan ignores a repeat.
                if let Entry::Vacant(slot) = plans.entry(plan) {
                    match PlanServer::start(&net, &plan_bytes, capacity) {
                        Ok(served) => {
                            slot.insert(served);
                        }
                        Err(e) => break Err(reset(&writer, reader.get_ref(), e)),
                    }
                }
            }
            Message::Query { seq, plan, input } => match submit(&plans, plan, input) {
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
                let stats = stats_snapshot(&plans);
                send(&writer, &Message::StatsReply(stats))?;
            }
            Message::AuditReq => {
                let (mut entries, mut ok) = (0, true);
                for served in plans.values_mut() {
                    let (n, verified) = served.audit();
                    entries += n;
                    ok &= verified;
                }
                send(&writer, &Message::AuditReply { entries, ok })?;
            }
            Message::Shutdown => {
                // Drain and join every server before the goodbye, so
                // every accepted query resolves.
                plans.clear();
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
    drop(plans);
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

/// One admitted plan: its one-plan registry (the replay reference), the
/// server that serves it, and every request it answered so far.
struct PlanServer {
    registry: PlanRegistry,
    id: PlanId,
    server: CertServer,
    log: RequestLog,
}

impl PlanServer {
    /// Admit the plan and start its server. Fleet workers never coalesce
    /// plans, so one server per plan runs the shards a shared server
    /// would.
    fn start(net: &[u8], plan_bytes: &[u8], capacity: f64) -> Result<PlanServer, ProtocolError> {
        let net = Arc::new(net_from_bytes(net)?);
        let plan = plan_from_bytes(plan_bytes)?;
        let mut registry = PlanRegistry::new();
        let id = registry
            .register(net, &plan, capacity)
            .map_err(|_| ProtocolError::Malformed("plan failed admission"))?;
        let server = CertServer::start(
            &registry,
            ServeConfig {
                record_log: true,
                ..ServeConfig::default()
            },
        );
        Ok(PlanServer {
            registry,
            id,
            server,
            log: RequestLog::default(),
        })
    }

    /// Replay-verify everything this plan's server ever answered,
    /// bitwise against direct evaluation: `(entries, all verified)`.
    fn audit(&mut self) -> (u64, bool) {
        self.log.entries.extend(self.server.take_log().entries);
        let ok = self.log.verify(&self.registry).is_ok();
        (self.log.len() as u64, ok)
    }
}

fn submit(
    plans: &HashMap<u64, PlanServer>,
    plan: u64,
    input: Vec<f64>,
) -> Result<ResponseHandle, (u64, u64)> {
    let Some(served) = plans.get(&plan) else {
        return Err((code::UNKNOWN_PLAN, 0));
    };
    served.server.submit(served.id, input).map_err(|e| match e {
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

/// Every plan server's counters, summed.
fn stats_snapshot(plans: &HashMap<u64, PlanServer>) -> WireWorkerStats {
    let mut out = WireWorkerStats::default();
    for served in plans.values() {
        let Some(stats) = served.server.stats(served.id) else {
            continue;
        };
        out.requests += stats.requests;
        out.rows_served += stats.rows_served;
        out.checkpoint_hits += stats.checkpoint_hits;
        out.checkpoint_rows_reused += stats.checkpoint_rows_reused;
        out.serve_restarts += stats.worker_restarts;
        out.serve_rows_requeued += stats.rows_requeued;
        out.plans_quarantined += stats.plans_quarantined;
    }
    out
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
