//! Chaos certification of the serving engine itself (`--features failpoints`).
//!
//! The paper certifies networks against *neuron* failures; this suite
//! certifies the **serving substrate** against its own: worker panics
//! mid-flush, stalls, forced backpressure, mid-stream kills. The contract
//! under test is crash-recovery invisibility — every accepted request is
//! either answered **bitwise equal** to a direct singleton
//! `output_error_batch` evaluation, exactly once, or fails with a typed
//! error (`Deadline`, `Quarantined`, `WorkerDied`); injected chaos may
//! change *which* of the two, and the recovery statistics, but never an
//! answered value. Injection itself is deterministic: the same
//! `ChaosSchedule` seed reproduces the same per-site firing sequence.
//!
//! Every test that runs server traffic holds an installed [`ChaosGuard`]
//! for its full duration (an empty schedule where no chaos is wanted) —
//! the guard owns the process-global chaos session, so concurrent tests
//! serialize instead of observing each other's schedules.

#![cfg(feature = "failpoints")]

use std::panic;
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use neurofail::inject::{ArtifactStore, CheckpointCache, InjectionPlan, PlanId, PlanRegistry};
use neurofail::nn::activation::Activation;
use neurofail::nn::layer::DenseLayer;
use neurofail::nn::{BatchWorkspace, Layer, Mlp};
use neurofail::par::failpoint::{install, ChaosAction, ChaosSchedule, FiredEvent};
use neurofail::par::seed::splitmix64;
use neurofail::par::Parallelism;
use neurofail::serve::{
    share_store, CertServer, RequestError, ResponseHandle, RetryPolicy, ServeConfig, SubmitError,
};
use neurofail::tensor::Matrix;

/// Silence the default panic-hook backtrace spam from injected panics:
/// supervised worker threads and chaos-payload panics are *expected* here.
/// Everything else still reports through the previous hook.
fn quiet_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("neurofail-serve-"));
            let chaos = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos failpoint"));
            if !(worker || chaos) {
                prev(info);
            }
        }));
    });
}

/// A fixed 2-layer net with two registered plans (crash at layer 0 and at
/// layer 1) sharing it — small enough that chaos runs are fast, deep
/// enough that suffix resumption and worker-cache checkpoints are
/// exercised.
fn chaos_registry() -> PlanRegistry {
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
                Activation::Sigmoid { k: 1.0 },
            )),
        ],
        vec![1.0, 2.0],
        0.0,
    ));
    let mut reg = PlanRegistry::new();
    reg.register(Arc::clone(&net), &InjectionPlan::crash([(0, 1)]), 1.0)
        .unwrap();
    reg.register(net, &InjectionPlan::crash([(1, 0)]), 1.0)
        .unwrap();
    reg
}

fn assert_bitwise(reg: &PlanRegistry, plan: PlanId, input: &[f64], served: f64, ctx: &str) {
    let mut ws = BatchWorkspace::default();
    let direct = reg.get(plan).unwrap().eval_singleton(input, &mut ws);
    assert_eq!(
        served.to_bits(),
        direct.to_bits(),
        "{ctx}: served {served:e} != direct {direct:e}"
    );
}

// ---------------------------------------------------------------------------
// Determinism of the injection layer itself.
// ---------------------------------------------------------------------------

/// The same schedule seed reproduces the same per-site injection sequence
/// across full server runs (the acceptance criterion's replay property).
/// Traffic is strictly sequential (wait each request before the next), so
/// each site's hit/fire sequence is deterministic; the *global* event
/// order may interleave across threads, hence per-site comparison.
#[test]
fn same_seed_reproduces_the_same_injection_sequence() {
    quiet_chaos_panics();
    let reg = chaos_registry();

    let run = || -> Vec<FiredEvent> {
        let schedule = ChaosSchedule::new(0xC4A0)
            .with_prob("serve::flush", ChaosAction::Panic, 0.3, 2)
            .with_prob(
                "serve::recv",
                ChaosAction::Stall(Duration::from_micros(100)),
                0.2,
                5,
            )
            .with_prob("serve::submit", ChaosAction::Reject, 0.3, 3);
        let guard = install(schedule);
        let server = CertServer::start(
            &reg,
            ServeConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                workers: Parallelism::Sequential,
                ..ServeConfig::default()
            },
        );
        for i in 0..12u64 {
            let x = [i as f64 * 0.1 - 0.5, 0.3];
            match server.try_submit(PlanId((i % 2) as usize), x.to_vec()) {
                Ok(h) => {
                    let v = h.wait().expect("requeued rows are still served");
                    assert_bitwise(&reg, PlanId((i % 2) as usize), &x, v, "replay run");
                }
                Err(SubmitError::QueueFull { .. }) => {} // forced rejection
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        server.shutdown();
        guard.events()
    };

    let first = run();
    let second = run();
    assert!(
        first.iter().any(|e| e.action == ChaosAction::Panic),
        "schedule never panicked — replay check is vacuous"
    );
    for site in ["serve::flush", "serve::recv", "serve::submit"] {
        let a: Vec<&FiredEvent> = first.iter().filter(|e| e.site == site).collect();
        let b: Vec<&FiredEvent> = second.iter().filter(|e| e.site == site).collect();
        assert_eq!(a, b, "site {site}: injection sequence diverged across runs");
    }
}

// ---------------------------------------------------------------------------
// Worker panic recovery (satellite: regression test for panic mid-flush).
// ---------------------------------------------------------------------------

/// A worker killed mid-flush (after the nominal pass, before any row is
/// answered) is respawned; its staged rows are requeued and served
/// bitwise — never dropped, never double-answered — and the server keeps
/// accepting work afterwards.
#[test]
fn worker_panic_mid_flush_requeues_and_serves_bitwise() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let guard = install(ChaosSchedule::new(11).on_hit("serve::mid_flush", ChaosAction::Panic, 0));
    let server = CertServer::start(
        &reg,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            workers: Parallelism::Sequential,
            ..ServeConfig::default()
        },
    );

    let inputs: Vec<[f64; 2]> = (0..6).map(|i| [0.1 * i as f64, -0.3]).collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| server.submit(PlanId(0), x.to_vec()).unwrap())
        .collect();
    for (h, x) in handles.into_iter().zip(&inputs) {
        let v = h
            .wait()
            .expect("killed flush must be requeued, not dropped");
        assert_bitwise(&reg, PlanId(0), x, v, "mid-flush kill");
    }

    // The server is still healthy after the recovery.
    let v = server.query(PlanId(0), &[0.5, 0.5]).unwrap();
    assert_bitwise(&reg, PlanId(0), &[0.5, 0.5], v, "post-recovery query");

    let stats = server.stats(PlanId(0)).unwrap();
    assert_eq!(stats.worker_restarts, 1, "exactly one injected kill");
    assert!(
        stats.rows_requeued >= 1,
        "the killed flush held staged rows"
    );
    assert_eq!(stats.rows_served, 7, "every request answered exactly once");
    assert_eq!(guard.fired("serve::mid_flush"), 1);
    server.shutdown();
}

/// Same property with the kill at flush *staging* (before the nominal
/// pass) — the other half of the flush path — across sequential queries.
#[test]
fn worker_panic_at_flush_start_is_invisible_to_sequential_clients() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let guard = install(ChaosSchedule::new(7).on_hit("serve::flush", ChaosAction::Panic, 1));
    let server = CertServer::start(
        &reg,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: Parallelism::Sequential,
            ..ServeConfig::default()
        },
    );
    for i in 0..5u64 {
        let x = [0.2 * i as f64 - 0.4, 0.1];
        let v = server.query(PlanId(1), &x).unwrap();
        assert_bitwise(&reg, PlanId(1), &x, v, "flush-start kill");
    }
    let stats = server.stats(PlanId(1)).unwrap();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.rows_served, 5);
    assert_eq!(guard.fired("serve::flush"), 1);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Plan quarantine.
// ---------------------------------------------------------------------------

/// A plan whose faulty-suffix resume keeps panicking is quarantined after
/// `max_plan_strikes` strikes: its in-flight request fails typed, new
/// submissions fail fast, and the *other* plan on the same coalesced
/// shard keeps serving (one poison plan cannot crash-loop the shard).
#[test]
fn poison_plan_is_quarantined_and_the_shard_survives() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let guard =
        install(ChaosSchedule::new(3).with_prob("serve::resume", ChaosAction::Panic, 1.0, 3));
    let server = CertServer::start(
        &reg,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: Parallelism::Sequential,
            coalesce_plans: true,
            max_plan_strikes: 3,
            ..ServeConfig::default()
        },
    );
    assert_eq!(server.shard_count(), 1, "both plans share the net");

    // One request against the poison plan: panic -> strike 1 (requeue) ->
    // panic -> strike 2 (requeue) -> panic -> strike 3 -> quarantine, and
    // the recovered row fails typed instead of crash-looping forever.
    let h = server.submit(PlanId(0), vec![0.3, -0.2]).unwrap();
    assert_eq!(h.wait(), Err(RequestError::Quarantined(PlanId(0))));
    assert_eq!(server.is_quarantined(PlanId(0)), Some(true));
    assert_eq!(server.is_quarantined(PlanId(1)), Some(false));
    assert_eq!(guard.fired("serve::resume"), 3);

    // New submissions against the quarantined plan fail fast and typed.
    assert!(matches!(
        server.submit(PlanId(0), vec![0.1, 0.1]),
        Err(SubmitError::Quarantined(PlanId(0)))
    ));

    // The sibling plan on the same shard still serves bitwise.
    let x = [0.6, -0.1];
    let v = server.query(PlanId(1), &x).unwrap();
    assert_bitwise(&reg, PlanId(1), &x, v, "sibling plan after quarantine");

    let stats = server.stats(PlanId(0)).unwrap();
    assert_eq!(stats.worker_restarts, 3);
    assert_eq!(stats.rows_requeued, 2, "strikes 1 and 2 requeued the row");
    assert_eq!(stats.plans_quarantined, 1);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Streaming traffic across a respawn.
// ---------------------------------------------------------------------------

/// Kill the worker *between* two identical probe flushes: the respawned
/// worker starts with an empty checkpoint cache (the previous flush's
/// checkpoint is deliberately discarded), so served values are bitwise
/// identical to a no-chaos run — only the checkpoint-reuse statistics
/// differ.
/// One shard (plans coalesced), so hit 1 of the process-global
/// `serve::recv` counter is its worker's return between the rounds.
#[test]
fn streaming_worker_killed_between_chunks_rebuilds_bitwise() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(500),
        workers: Parallelism::Sequential,
        coalesce_plans: true,
        ..ServeConfig::default()
    };
    let probe: Vec<[f64; 2]> = (0..4).map(|i| [0.25 * i as f64 - 0.4, 0.15]).collect();

    let run = |schedule: ChaosSchedule| {
        let _guard = install(schedule);
        let server = CertServer::start(&reg, cfg);
        let mut bits = Vec::new();
        // Two identical probe rounds: streaming traffic that an intact
        // worker answers from its cached checkpoint the second time.
        for _ in 0..2 {
            let handles: Vec<_> = probe
                .iter()
                .map(|x| server.submit(PlanId(0), x.to_vec()).unwrap())
                .collect();
            for h in handles {
                bits.push(h.wait().expect("served").to_bits());
            }
        }
        let stats = server.stats(PlanId(0)).unwrap();
        server.shutdown();
        (bits, stats)
    };

    let (base_bits, base) = run(ChaosSchedule::new(0)); // empty: no chaos
    let (chaos_bits, chaos) =
        run(ChaosSchedule::new(1).on_hit("serve::recv", ChaosAction::Panic, 1));

    assert_eq!(base_bits, chaos_bits, "respawn changed a served bit");
    assert_eq!(chaos.worker_restarts, 1);
    assert_eq!(base.worker_restarts, 0);
    assert_eq!(
        chaos.rows_requeued, 0,
        "the kill fired between flushes: nothing was staged"
    );
    // Only checkpoint accounting may differ, and only downward: the
    // respawned worker rebuilt from scratch. (Guard on the expected flush
    // pattern so scheduler jitter can't turn this into a flaky assert.)
    if base.flushes == 2 && chaos.flushes == 2 {
        assert_eq!(
            base.checkpoint_hits, 1,
            "intact worker reuses the checkpoint"
        );
        assert_eq!(chaos.checkpoint_hits, 0, "respawned worker starts cold");
    }
}

// ---------------------------------------------------------------------------
// Retry / backoff under forced backpressure.
// ---------------------------------------------------------------------------

/// Forced `QueueFull` rejections are absorbed by `submit_with_retry`: the
/// submission lands on the attempt after the injected rejections run out,
/// the retry histogram and backoff totals record the struggle, and the
/// served value is still bitwise.
#[test]
fn forced_queue_full_is_absorbed_by_retry_with_backoff() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let guard =
        install(ChaosSchedule::new(5).with_prob("serve::submit", ChaosAction::Reject, 1.0, 2));
    let server = CertServer::start(&reg, ServeConfig::default());

    let x = [0.4, -0.25];
    let policy = RetryPolicy {
        max_attempts: 5,
        base: Duration::from_micros(50),
        cap: Duration::from_millis(2),
        jitter_seed: 42,
    };
    let h = server
        .submit_with_retry(PlanId(0), &x, policy)
        .expect("attempt 3 lands after two forced rejections");
    let v = h.wait().unwrap();
    assert_bitwise(&reg, PlanId(0), &x, v, "post-retry value");
    assert_eq!(guard.fired("serve::submit"), 2);

    let stats = server.stats(PlanId(0)).unwrap();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.retries, 2);
    assert_eq!(
        stats.retry_hist,
        [1, 1, 0, 0, 0, 0],
        "one 1st retry, one 2nd"
    );
    assert!(
        stats.total_backoff > Duration::ZERO,
        "backoff was actually slept"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Overload shedding and deadlines under injected stalls.
// ---------------------------------------------------------------------------

/// A stalled worker makes the queue deep; with a zero shed budget the
/// next submission is shed typed (`Overloaded`) instead of queueing
/// behind work it cannot make, while already-accepted requests still
/// complete bitwise.
#[test]
fn stalled_worker_trips_overload_shedding() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let guard = install(ChaosSchedule::new(9).with_prob(
        "serve::flush",
        ChaosAction::Stall(Duration::from_millis(250)),
        1.0,
        2,
    ));
    let server = CertServer::start(
        &reg,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: Parallelism::Sequential,
            shed_budget: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    );

    let a = [0.3, 0.3];
    let b = [-0.2, 0.5];
    let h1 = server.submit(PlanId(0), a.to_vec()).unwrap();
    // Give the worker time to stage h1 and enter the injected stall.
    std::thread::sleep(Duration::from_millis(60));
    let h2 = server.submit(PlanId(0), b.to_vec()).unwrap(); // depth 0: accepted
    match server.submit(PlanId(0), vec![0.1, 0.1]) {
        Err(SubmitError::Overloaded {
            depth,
            estimated_wait,
        }) => {
            assert_eq!(depth, 1, "h2 is queued behind the stall");
            assert!(estimated_wait > Duration::ZERO);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    let v1 = h1.wait().unwrap();
    let v2 = h2.wait().unwrap();
    assert_bitwise(&reg, PlanId(0), &a, v1, "stalled request 1");
    assert_bitwise(&reg, PlanId(0), &b, v2, "stalled request 2");
    assert_eq!(server.stats(PlanId(0)).unwrap().requests_shed, 1);
    assert!(guard.fired("serve::flush") >= 1, "the stall actually fired");
    server.shutdown();
}

/// A request queued behind an injected stall whose deadline expires before
/// a worker stages it fails typed (`Deadline`) — it is never served late.
#[test]
fn deadline_expires_typed_behind_a_stalled_worker() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let _guard = install(ChaosSchedule::new(13).with_prob(
        "serve::flush",
        ChaosAction::Stall(Duration::from_millis(150)),
        1.0,
        2,
    ));
    let server = CertServer::start(
        &reg,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: Parallelism::Sequential,
            ..ServeConfig::default()
        },
    );

    let a = [0.2, 0.7];
    let h1 = server.submit(PlanId(0), a.to_vec()).unwrap();
    std::thread::sleep(Duration::from_millis(40)); // worker is now stalling on h1
    let h2 = server
        .submit_within(PlanId(0), vec![0.9, 0.9], Duration::from_millis(10))
        .unwrap();

    let v1 = h1.wait().unwrap();
    assert_bitwise(&reg, PlanId(0), &a, v1, "pre-stall request");
    assert_eq!(h2.wait(), Err(RequestError::Deadline));
    assert_eq!(server.stats(PlanId(0)).unwrap().deadlines_expired, 1);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Failpoints outside the serving layer.
// ---------------------------------------------------------------------------

/// The `cache::insert` failpoint fires before the checkpoint cache
/// mutates any entry, so an injected panic unwinds cleanly: the next
/// identical call simply recomputes and succeeds.
#[test]
fn cache_insert_panic_unwinds_cleanly_and_retries() {
    quiet_chaos_panics();
    let net = {
        let reg = chaos_registry();
        Arc::clone(reg.get(PlanId(0)).unwrap().net())
    };
    let xs = Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]);

    let guard = install(ChaosSchedule::new(17).on_hit("cache::insert", ChaosAction::Panic, 0));
    let mut cache = CheckpointCache::new(4);
    let attempt = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        let _ = cache.checkpoint(&net, &xs);
    }));
    assert!(attempt.is_err(), "the injected insert panic fired");
    assert_eq!(guard.fired("cache::insert"), 1);

    // The failpoint is exhausted (one-shot); the retry must recompute and
    // then serve the second identical call from the cache.
    let _ = cache.checkpoint(&net, &xs);
    let _ = cache.checkpoint(&net, &xs);
    let stats = cache.stats();
    assert_eq!(stats.hits, 1, "retry populated the cache");
}

/// A served value, or `None` if `h` is still unanswered after `limit`.
fn answered_within(h: &ResponseHandle, limit: Duration) -> Option<f64> {
    let start = Instant::now();
    loop {
        if let Some(resolution) = h.try_wait() {
            return Some(resolution.expect("answered, not failed").value);
        }
        if start.elapsed() > limit {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A worker panics inside its checkpoint cache's write-through, mid-
/// publish, with the shared store's lock held: the lock is poisoned. Every
/// lock of the shared store recovers poison, so the shard's other worker
/// and the respawned one go on loading and publishing — exactly one
/// restart, every request answered bitwise, every flush's checkpoint
/// published. The torn publish's temp file is swept when the store is
/// reopened, and a second server over the directory warm-starts from it.
/// (A lock that unwrapped the poison would crash-loop the shard, and the
/// requests would never be answered.)
#[test]
fn panic_under_the_shared_store_lock_is_recovered() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let dir = std::env::temp_dir().join(format!("nf-chaos-store-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        // One distinct row per flush: every flush misses and publishes.
        max_batch: 1,
        max_wait: Duration::ZERO,
        workers: Parallelism::Threads(2),
        coalesce_plans: true,
        ..ServeConfig::default()
    };
    let traffic: Vec<(PlanId, [f64; 2])> = (0..12)
        .map(|i| {
            (
                PlanId(i % 2),
                [0.15 * i as f64 - 0.8, 0.35 - 0.05 * i as f64],
            )
        })
        .collect();
    let guard =
        install(ChaosSchedule::new(23).on_hit("store::publish_temp", ChaosAction::Panic, 0));

    let server =
        CertServer::start_with_store(&reg, cfg, share_store(ArtifactStore::open(&dir).unwrap()));
    assert_eq!(server.shard_count(), 1);
    let handles: Vec<_> = traffic
        .iter()
        .map(|(plan, x)| server.submit(*plan, x.to_vec()).unwrap())
        .collect();
    for ((plan, x), h) in traffic.iter().zip(&handles) {
        let Some(v) = answered_within(h, Duration::from_secs(20)) else {
            // A crash-looping shard never drains: leak it, so the failure
            // reports instead of hanging in the server's drop.
            std::mem::forget(server);
            panic!("a request went unanswered: the shard is crash-looping on a poisoned lock");
        };
        assert_bitwise(&reg, *plan, x, v, "panic under the store lock");
    }
    let stats = server.shutdown().remove(0);
    assert_eq!(guard.fired("store::publish_temp"), 1);
    assert_eq!(stats.worker_restarts, 1, "the one injected panic");
    assert_eq!(stats.rows_requeued, 1, "the panicked flush's row");
    assert_eq!(
        stats.store_publishes,
        traffic.len() as u64,
        "every flush's checkpoint published, the torn one on its retry"
    );

    // The torn publish left its temp file; reopening sweeps it.
    let temps = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(".tmp-")
            })
            .count()
    };
    assert_eq!(temps(), 1, "the torn publish's temp file");
    let store = ArtifactStore::open(&dir).unwrap();
    assert_eq!(temps(), 0, "reopening sweeps the torn publish");

    // A second server over the directory answers from the store.
    let warm = CertServer::start_with_store(&reg, cfg, share_store(store));
    for (plan, x) in &traffic {
        let v = warm.query(*plan, x).unwrap();
        assert_bitwise(&reg, *plan, x, v, "warm restart");
    }
    let warm_stats = warm.shutdown().remove(0);
    assert_eq!(warm_stats.store_hits, traffic.len() as u64);
    assert_eq!(warm_stats.store_publishes, 0);
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The chaos sweep: >= 50 seeded schedules, randomized configs.
// ---------------------------------------------------------------------------

/// Across 50 seeded chaos schedules — worker panics at every flush phase,
/// stalls, forced rejections — over randomized server configurations,
/// every accepted request is answered bitwise-correctly exactly once or
/// fails typed: zero lost, zero duplicated, zero wrong. The request log
/// contains exactly the answered requests and replays bitwise.
#[test]
fn fifty_seeded_schedules_never_lose_duplicate_or_corrupt_a_request() {
    quiet_chaos_panics();
    let reg = chaos_registry();
    let mut ws = BatchWorkspace::default();

    for seed in 0..50u64 {
        let r = |i: u64| splitmix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i);
        let cfg = ServeConfig {
            max_batch: 1 + (r(0) % 4) as usize,
            max_wait: Duration::from_micros(50),
            queue_capacity: 4 + (r(1) % 8) as usize,
            workers: if r(2) % 2 == 0 {
                Parallelism::Sequential
            } else {
                Parallelism::Threads(2)
            },
            record_log: true,
            coalesce_plans: r(3) % 2 == 0,
            max_plan_strikes: 2 + (r(5) % 2) as u32,
            ..ServeConfig::default()
        };
        // Capped arms (every fire budget is finite) so every handle is
        // guaranteed to resolve without a watchdog.
        let schedule = ChaosSchedule::new(seed)
            .with_prob("serve::flush", ChaosAction::Panic, 0.08, 2)
            .with_prob("serve::mid_flush", ChaosAction::Panic, 0.05, 2)
            .with_prob("serve::resume", ChaosAction::Panic, 0.05, 2)
            .with_prob("serve::answer", ChaosAction::Panic, 0.04, 2)
            .with_prob(
                "serve::recv",
                ChaosAction::Stall(Duration::from_micros(500)),
                0.10,
                4,
            )
            .with_prob(
                "serve::flush",
                ChaosAction::Stall(Duration::from_micros(300)),
                0.10,
                4,
            )
            .with_prob("serve::submit", ChaosAction::Reject, 0.15, 4);
        let guard = install(schedule);
        let server = CertServer::start(&reg, cfg);
        let policy = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            jitter_seed: seed,
        };

        let mut accepted = Vec::new();
        for i in 0..40u64 {
            let plan = PlanId((i % 2) as usize);
            let x = [
                (r(100 + i) % 1000) as f64 / 500.0 - 1.0,
                (r(200 + i) % 1000) as f64 / 500.0 - 1.0,
            ];
            match server.submit_with_retry(plan, &x, policy) {
                Ok(h) => accepted.push((plan, x, h)),
                // Typed, expected degradation under chaos.
                Err(SubmitError::QueueFull { .. })
                | Err(SubmitError::Overloaded { .. })
                | Err(SubmitError::Quarantined(_)) => {}
                Err(e) => panic!("seed {seed}: unexpected submit error {e}"),
            }
        }

        let total_accepted = accepted.len();
        let mut answered = Vec::new();
        for (plan, x, h) in accepted {
            let seq = h.seq();
            match h.wait() {
                Ok(v) => {
                    let direct = reg.get(plan).unwrap().eval_singleton(&x, &mut ws);
                    assert_eq!(
                        v.to_bits(),
                        direct.to_bits(),
                        "seed {seed} seq {seq}: served value is wrong"
                    );
                    answered.push(seq);
                }
                // Every failure must be typed; any of the declared kinds
                // is an acceptable outcome under chaos, silence is not.
                Err(RequestError::Deadline)
                | Err(RequestError::Quarantined(_))
                | Err(RequestError::WorkerDied) => {}
                Err(e) => panic!("seed {seed} seq {seq}: unexpected error {e:?}"),
            }
        }

        // Exactly-once accounting: the log holds precisely the answered
        // requests, each once, and replays bitwise through recoveries.
        let log = server.take_log();
        let logged: std::collections::HashSet<u64> = log.entries.iter().map(|e| e.seq).collect();
        assert_eq!(
            logged.len(),
            log.entries.len(),
            "seed {seed}: duplicate sequence numbers in the log"
        );
        assert_eq!(
            log.len(),
            answered.len(),
            "seed {seed}: log size != answered count (lost or phantom rows)"
        );
        for seq in &answered {
            assert!(
                logged.contains(seq),
                "seed {seed}: answered seq {seq} missing from the log"
            );
        }
        log.verify(&reg)
            .unwrap_or_else(|e| panic!("seed {seed}: log replay mismatch: {e}"));

        let stats = server.shutdown();
        // Flush accounting runs before the answer phase, so a panic
        // injected between the two recomputes (and re-counts) recovered
        // rows: `rows_served` may over-count under chaos, never under-
        // count. Exactly-once is witnessed by the log equality above.
        let served: u64 = stats.iter().map(|s| s.rows_served).sum();
        assert!(
            served as usize >= answered.len(),
            "seed {seed}: rows_served {served} < answered {}",
            answered.len()
        );
        let _ = total_accepted;
        drop(guard);
    }
}
