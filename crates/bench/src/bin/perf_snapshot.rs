//! Machine-readable performance snapshot: one JSON file
//! (`BENCH_PR10.json`) covering the workspace's engine hot paths —
//! campaign evaluation, training epochs, serve throughput, multi-plan
//! evaluation, the persistent artifact store's cold-vs-warm measured search and serve warm start,
//! per-backend GEMM and the im2col-vs-per-row
//! Conv1d lowering, plus multi-process fleet saturation (the same
//! pipelined query mix against real worker processes at N = 1, 2, 4
//! next to the in-process baseline) — so
//! the perf trajectory is tracked across PRs by diffable numbers rather
//! than prose. The snapshot records which compute backend served the run
//! and the CPU features detection saw, so numbers are only compared
//! across like machines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p neurofail-bench --bin perf_snapshot            # full sizes
//! cargo run --release -p neurofail-bench --bin perf_snapshot -- --smoke # CI smoke mode
//! cargo run --release -p neurofail-bench --bin perf_snapshot -- --out path.json
//! ```
//!
//! Smoke mode shrinks every workload so the binary doubles as a CI check
//! that all four engines and the checkpoint cache still run end to end; the emitted JSON carries
//! the mode so trajectories only compare like with like.

use std::sync::Arc;
use std::time::Instant;

use neurofail_core::measured_crash_thresholds;
use neurofail_data::dataset::Dataset;
use neurofail_data::rng::rng;
use neurofail_fleet::{reexec_spawner, FleetConfig, FleetRouter};
use neurofail_inject::exhaustive::Combinations;
use neurofail_inject::{
    run_campaign, ArtifactStore, CampaignConfig, CheckpointCache, CompiledPlan, FaultSpec,
    InjectionPlan, MultiPlanEvaluator, PlanRegistry, TrialKind,
};
use neurofail_nn::activation::Activation;
use neurofail_nn::builder::MlpBuilder;
use neurofail_nn::train::{train, TrainConfig};
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_par::Parallelism;
use neurofail_serve::{share_store, CertServer, ServeConfig};
use neurofail_tensor::backend;
use neurofail_tensor::init::Init;
use neurofail_tensor::Matrix;
use serde::Serialize;

/// One measured metric.
#[derive(Debug, Serialize)]
struct Metric {
    /// Stable metric name (the key trajectories are joined on).
    name: String,
    /// Human-readable workload description.
    workload: String,
    /// Best-of-repetitions wall time in seconds.
    seconds: f64,
    /// Workload-specific unit count (evaluations, rows, queries, plans).
    units: u64,
    /// `units / seconds`.
    throughput: f64,
}

/// The emitted snapshot.
#[derive(Debug, Serialize)]
struct Snapshot {
    /// Snapshot schema tag (the PR that introduced this file).
    schema: String,
    /// `"full"` or `"smoke"`.
    mode: String,
    /// The compute backend the engine metrics ran under
    /// ([`backend::active_kind`] at startup — env override included).
    backend: String,
    /// CPU features runtime detection saw on this machine.
    cpu_features: Vec<String>,
    /// Measured metrics.
    metrics: Vec<Metric>,
    /// Supervision/degradation counters observed during the
    /// `serve_throughput` run. All zero on a healthy run — nonzero
    /// values mean the measurement itself rode through worker restarts,
    /// shedding or retries, and is not comparable to a clean snapshot.
    serve_recovery: ServeRecovery,
    /// Warm-start accounting for the persistent artifact store runs.
    artifact_store: ArtifactStoreReport,
    /// Supervision counters observed across the `fleet_saturation_*`
    /// runs (PR 10). All zero on a healthy run except `answers` —
    /// nonzero recovery counters mean the measurement rode through
    /// worker deaths and is not comparable to a clean snapshot.
    fleet: FleetReport,
}

/// What the multi-process fleet did during the `fleet_saturation_*`
/// runs, summed over the N = 1, 2, 4 deployments. The CI smoke gate
/// checks `fleet_saturation_n1` ≥ 0.9× `fleet_single_process` and that
/// every recovery counter here is zero.
#[derive(Debug, Default, Serialize)]
struct FleetReport {
    /// Queries answered over the wire.
    answers: u64,
    /// Rows requeued off dead connections (0 on a healthy run).
    requeues: u64,
    /// Worker processes respawned (0 on a healthy run).
    respawns: u64,
    /// Worker slots quarantined (0 on a healthy run).
    worker_quarantines: u64,
    /// Workers killed for unanswered heartbeats (0 on a healthy run).
    heartbeat_kills: u64,
    /// Damaged frames observed (0 on a healthy run).
    protocol_errors: u64,
}

/// What the persistent store actually did during the `measured_search_*`
/// and serve warm-start runs. A healthy snapshot has `warm_hits` and
/// `serve_warm_hits` nonzero with zero `verify_rejects` — the CI smoke
/// gate checks exactly that.
#[derive(Debug, Default, Serialize)]
struct ArtifactStoreReport {
    /// Disk-tier hits during the warm measured search (1 per rep: one
    /// verified checkpoint rehydration replaces the whole nominal pass).
    warm_hits: u64,
    /// Disk-tier misses during the warm search (0 on a healthy run).
    warm_misses: u64,
    /// Bitwise-verification rejects across all store runs (0 = no
    /// corruption observed).
    verify_rejects: u64,
    /// Rows x depth of nominal compute the warm search skipped.
    nominal_rows_saved: u64,
    /// Records and bytes resident after the runs.
    entries: u64,
    bytes: u64,
    /// Store-tier flush hits observed by a *restarted* server replaying
    /// known traffic over the populated store (serve warm start).
    serve_warm_hits: u64,
    /// Rows x depth of nominal compute the restarted server skipped.
    serve_warm_rows_reused: u64,
}

/// Recovery/degradation counters aggregated over the serve run's shards.
#[derive(Debug, Default, Serialize)]
struct ServeRecovery {
    worker_restarts: u64,
    rows_requeued: u64,
    requests_shed: u64,
    plans_quarantined: u64,
    deadlines_expired: u64,
    retries: u64,
    retry_hist: Vec<u64>,
    total_backoff_seconds: f64,
}

/// Best-of-`reps` wall time of `f`, with the result sunk so the work is
/// not optimised away.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(r);
    }
    best
}

fn deep_net(depth: usize, width: usize, inputs: usize, seed: u64) -> Mlp {
    let mut b = MlpBuilder::new(inputs);
    for _ in 0..depth {
        b = b.dense(width, Activation::Sigmoid { k: 1.0 });
    }
    b.init(Init::Xavier).build(&mut rng(seed))
}

fn campaign_metric(smoke: bool, reps: usize) -> Metric {
    let (trials, inputs_per_trial) = if smoke { (8, 8) } else { (64, 32) };
    let net = deep_net(3, 64, 8, 0xCA);
    let cfg = CampaignConfig {
        trials,
        inputs_per_trial,
        ..CampaignConfig::default()
    };
    let seconds = best_of(reps, || {
        run_campaign(
            &net,
            &[2, 1, 1],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Sequential,
        )
    });
    let units = (trials * inputs_per_trial) as u64;
    Metric {
        name: "campaign_eval".into(),
        workload: format!("L3 w64 crash campaign, {trials} trials x {inputs_per_trial} inputs"),
        seconds,
        units,
        throughput: units as f64 / seconds,
    }
}

fn train_metric(smoke: bool, reps: usize) -> Metric {
    let (width, examples, epochs) = if smoke { (16, 64, 2) } else { (64, 256, 10) };
    let target = neurofail_data::functions::Ridge::canonical(2);
    let mut r = rng(0x7A);
    let data = Dataset::sample(&target, examples, &mut r);
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let seconds = best_of(reps, || {
        let mut net = MlpBuilder::new(2)
            .dense(width, Activation::Sigmoid { k: 1.0 })
            .dense(width / 2, Activation::Sigmoid { k: 1.0 })
            .init(Init::Xavier)
            .build(&mut rng(0x7B));
        train(&mut net, &data, &cfg, &mut rng(0x7C));
        net
    }) / epochs as f64;
    Metric {
        name: "train_epoch".into(),
        workload: format!("w{width} net, {examples} examples, batched engine, per epoch"),
        seconds,
        units: examples as u64,
        throughput: examples as f64 / seconds,
    }
}

fn serve_metric(smoke: bool, reps: usize) -> (Metric, ServeRecovery) {
    let queries_per_client = if smoke { 16 } else { 256 };
    let clients = if smoke { 4 } else { 16 };
    let net = Arc::new(deep_net(4, 32, 4, 0x5E));
    let mut registry = PlanRegistry::new();
    for l in 0..4 {
        registry
            .register(Arc::clone(&net), &InjectionPlan::crash([(l, 1)]), 1.0)
            .unwrap();
    }
    let units = (clients * queries_per_client) as u64;
    let mut last_stats = Vec::new();
    let seconds = best_of(reps, || {
        let server = CertServer::start(
            &registry,
            ServeConfig {
                coalesce_plans: true,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|s| {
            for c in 0..clients {
                let server = &server;
                s.spawn(move || {
                    for q in 0..queries_per_client {
                        let x = [
                            (c as f64 + 0.5) / clients as f64,
                            (q as f64 + 0.5) / queries_per_client as f64,
                            0.25,
                            0.75,
                        ];
                        server
                            .query(neurofail_inject::PlanId(q % 4), &x)
                            .expect("valid query");
                    }
                });
            }
        });
        last_stats = server.shutdown();
        last_stats.len()
    });
    let recovery = ServeRecovery {
        worker_restarts: last_stats.iter().map(|s| s.worker_restarts).sum(),
        rows_requeued: last_stats.iter().map(|s| s.rows_requeued).sum(),
        requests_shed: last_stats.iter().map(|s| s.requests_shed).sum(),
        plans_quarantined: last_stats.iter().map(|s| s.plans_quarantined).sum(),
        deadlines_expired: last_stats.iter().map(|s| s.deadlines_expired).sum(),
        retries: last_stats.iter().map(|s| s.retries).sum(),
        retry_hist: last_stats.iter().fold(
            vec![0u64; neurofail_serve::RETRY_BUCKETS],
            |mut acc, s| {
                for (a, n) in acc.iter_mut().zip(&s.retry_hist) {
                    *a += n;
                }
                acc
            },
        ),
        total_backoff_seconds: last_stats
            .iter()
            .map(|s| s.total_backoff.as_secs_f64())
            .sum(),
    };
    let metric = Metric {
        name: "serve_throughput".into(),
        workload: format!(
            "L4 w32 net, 4 coalesced plans, {clients} clients x {queries_per_client} queries"
        ),
        seconds,
        units,
        throughput: units as f64 / seconds,
    };
    (metric, recovery)
}

fn multi_plan_metrics(smoke: bool, reps: usize) -> Vec<Metric> {
    let (depth, width, batch) = if smoke { (4, 10, 8) } else { (6, 24, 16) };
    let net = deep_net(depth, width, 8, 0x3F);
    let xs = {
        let mut r = rng(0x40);
        Matrix::from_fn(batch, 8, |_, _| rand::Rng::gen_range(&mut r, 0.0..=1.0))
    };
    let last = depth - 1;
    let plans: Vec<CompiledPlan> = Combinations::new(width, 2)
        .map(|subset| {
            let plan = InjectionPlan::crash(subset.iter().map(|&n| (last, n)));
            CompiledPlan::compile(&plan, &net, 1.0).expect("valid subset")
        })
        .collect();
    let units = (plans.len() * batch) as u64;
    let workload = format!(
        "L{depth} w{width} layer-{last} k=2 family ({} plans) x {batch} inputs",
        plans.len()
    );
    let per_plan = best_of(reps, || {
        let mut ws = BatchWorkspace::for_net(&net, batch);
        let mut worst = 0.0f64;
        for plan in &plans {
            for err in plan.output_error_batch(&net, &xs, &mut ws) {
                worst = worst.max(err);
            }
        }
        worst
    });
    let suffix = best_of(reps, || {
        let mut eval = MultiPlanEvaluator::new(&net, &xs);
        let mut worst = 0.0f64;
        for plan in &plans {
            for err in eval.output_error(plan) {
                worst = worst.max(err);
            }
        }
        worst
    });
    vec![
        Metric {
            name: "multi_plan_eval_per_plan".into(),
            workload: workload.clone(),
            seconds: per_plan,
            units,
            throughput: units as f64 / per_plan,
        },
        Metric {
            name: "multi_plan_eval_suffix".into(),
            workload,
            seconds: suffix,
            units,
            throughput: units as f64 / suffix,
        },
    ]
}

/// The persistent artifact store: a `measured_crash_thresholds` search
/// cold (empty directory, every checkpoint computed and published) vs
/// warm (fresh cache and store handle over the populated directory — the
/// restarted-process situation), plus a serve warm start: a restarted
/// server replaying known traffic against the store its predecessor
/// populated.
fn store_metrics(smoke: bool, reps: usize) -> (Vec<Metric>, ArtifactStoreReport) {
    let (depth, width, rows) = if smoke { (2, 8, 8) } else { (3, 14, 32) };
    let net = Arc::new(deep_net(depth, width, 8, 0xA7));
    let xs = {
        let mut r = rng(0xA8);
        Matrix::from_fn(rows, 8, |_, _| rand::Rng::gen_range(&mut r, 0.0..=1.0))
    };
    let dir = std::env::temp_dir().join(format!("nf-perf-store-{}", std::process::id()));
    let eps_primes = [0.05, 0.2, 0.5];
    let search_units = (rows * depth) as u64;
    let mut report = ArtifactStoreReport::default();

    // Cold: the directory is wiped per rep, so every rep pays the full
    // nominal compute plus the publish.
    let cold = best_of(reps, || {
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = CheckpointCache::new(2);
        cache.attach_store(ArtifactStore::open(&dir).expect("store opens"));
        measured_crash_thresholds(&net, 0, &xs, 1.0, &eps_primes, 1.0, &mut cache)
    });
    // Warm: a fresh cache and store handle over the populated directory.
    let warm = best_of(reps, || {
        let mut cache = CheckpointCache::new(2);
        cache.attach_store(ArtifactStore::open(&dir).expect("store opens"));
        let out = measured_crash_thresholds(&net, 0, &xs, 1.0, &eps_primes, 1.0, &mut cache);
        let s = cache.store_stats().expect("store attached");
        report.warm_hits += s.hits;
        report.warm_misses += s.misses;
        report.verify_rejects += s.verify_rejects;
        report.nominal_rows_saved += s.nominal_rows_saved;
        report.entries = s.entries as u64;
        report.bytes = s.bytes;
        out
    });

    // Serve warm start over the same directory: server A publishes its
    // flushes, the "restarted" server B replays the traffic from disk.
    let mut registry = PlanRegistry::new();
    registry
        .register(Arc::clone(&net), &InjectionPlan::crash([(0, 1)]), 1.0)
        .unwrap();
    registry
        .register(
            Arc::clone(&net),
            &InjectionPlan::crash([(depth - 1, 0)]),
            1.0,
        )
        .unwrap();
    let cfg = ServeConfig {
        max_batch: 1, // one row per flush: deterministic store keys
        workers: Parallelism::Sequential,
        coalesce_plans: true,
        ..ServeConfig::default()
    };
    let queries = if smoke { 12 } else { 64 };
    let traffic: Vec<[f64; 8]> = (0..queries)
        .map(|q| std::array::from_fn(|c| (q as f64 + 0.5) / queries as f64 + 0.01 * c as f64))
        .collect();
    let run_server = |t0_stats: &mut Vec<neurofail_serve::ServeStats>| {
        let server = CertServer::start_with_store(
            &registry,
            cfg,
            share_store(ArtifactStore::open(&dir).expect("store opens")),
        );
        for (q, x) in traffic.iter().enumerate() {
            server
                .query(neurofail_inject::PlanId(q % 2), x)
                .expect("valid query");
        }
        *t0_stats = server.shutdown();
    };
    let mut stats = Vec::new();
    run_server(&mut stats); // populate
    let warm_serve = best_of(reps, || {
        run_server(&mut stats);
        stats.len()
    });
    // Both plan routes share the one coalesced shard, so the first
    // route's snapshot is the shard's (summing would double-count).
    report.serve_warm_hits = stats.first().map_or(0, |s| s.store_hits);
    report.serve_warm_rows_reused = stats.first().map_or(0, |s| s.store_rows_reused);
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = vec![
        Metric {
            name: "measured_search_cold".into(),
            workload: format!("L{depth} w{width} k-search over {rows} probes, empty store"),
            seconds: cold,
            units: search_units,
            throughput: search_units as f64 / cold,
        },
        Metric {
            name: "measured_search_warm".into(),
            workload: format!("L{depth} w{width} k-search over {rows} probes, populated store"),
            seconds: warm,
            units: search_units,
            throughput: search_units as f64 / warm,
        },
        Metric {
            name: "serve_warm_start".into(),
            workload: format!("{queries} known queries, restarted server, populated store"),
            seconds: warm_serve,
            units: queries as u64,
            throughput: queries as f64 / warm_serve,
        },
    ];
    (metrics, report)
}

/// Square `out = A·Wᵀ` under every supported compute backend: the raw
/// kernel number behind every engine metric above. Units are fused
/// multiply-adds (`m·n·k`).
fn gemm_backend_metrics(smoke: bool, reps: usize) -> Vec<Metric> {
    let n = if smoke { 64 } else { 192 };
    let mut r = rng(0x6E);
    let a = Matrix::from_fn(n, n, |_, _| rand::Rng::gen_range(&mut r, -1.0..=1.0));
    let w = Matrix::from_fn(n, n, |_, _| rand::Rng::gen_range(&mut r, -1.0..=1.0));
    let mut out = Matrix::zeros(n, n);
    let units = (n * n * n) as u64;
    backend::supported_kinds()
        .into_iter()
        .map(|kind| {
            let seconds = best_of(reps.max(3), || {
                backend::with_backend(kind, || a.matmul_nt_into(&w, &mut out));
                out.get(0, 0)
            });
            Metric {
                name: format!("gemm_nt_{}", kind.name()),
                workload: format!("{n}x{n} matmul_nt, {} backend", kind.name()),
                seconds,
                units,
                throughput: units as f64 / seconds,
            }
        })
        .collect()
}

/// Batched Conv1d forward: the im2col single-GEMM lowering against the
/// per-row `sums_into` loop it replaced, under the active backend.
fn conv_lowering_metrics(smoke: bool, reps: usize) -> Vec<Metric> {
    use neurofail_nn::conv::{Conv1dBatchScratch, Conv1dLayer};
    let (in_len, channels, width, batch) = if smoke {
        (48, 4, 7, 16)
    } else {
        (128, 8, 9, 64)
    };
    let mut r = rng(0x6F);
    let conv = Conv1dLayer::random(
        in_len,
        channels,
        width,
        Activation::Sigmoid { k: 1.0 },
        Init::Xavier,
        true,
        &mut r,
    );
    let xs = Matrix::from_fn(batch, in_len, |_, _| {
        rand::Rng::gen_range(&mut r, -1.0..=1.0)
    });
    let out_dim = conv.out_dim();
    let units = (batch * out_dim * width) as u64;
    let workload = format!("Conv1d in{in_len} c{channels} w{width} x {batch} rows");

    let mut sums = Matrix::zeros(batch, out_dim);
    let mut scratch = Conv1dBatchScratch::default();
    let im2col = best_of(reps.max(3), || {
        conv.forward_batch_sums(&xs, &mut sums, &mut scratch);
        sums.get(0, 0)
    });
    let per_row = best_of(reps.max(3), || {
        for b in 0..batch {
            conv.sums_into(xs.row(b), sums.row_mut(b));
        }
        sums.get(0, 0)
    });
    vec![
        Metric {
            name: "conv_im2col".into(),
            workload: workload.clone(),
            seconds: im2col,
            units,
            throughput: units as f64 / im2col,
        },
        Metric {
            name: "conv_per_row".into(),
            workload,
            seconds: per_row,
            units,
            throughput: units as f64 / per_row,
        },
    ]
}

/// Multi-process fleet saturation: the same pipelined query mix (async
/// submit, then resolve) against an in-process `CertServer` and against
/// real worker-process fleets at N = 1, 2, 4. Fleet launch/registration
/// happens outside the timed region — the metric is steady-state
/// queries/s, not process spawn time.
fn fleet_metrics(smoke: bool, reps: usize) -> (Vec<Metric>, FleetReport) {
    let total = if smoke { 128usize } else { 512 };
    // Heavy per-query compute (L8 w256): the metric compares serving
    // architectures, so evaluation must dominate wire framing — a net
    // this size puts per-frame overhead well under 10% of a query.
    let net = Arc::new(deep_net(8, 256, 8, 0xF1));
    let plans: Vec<InjectionPlan> = (0..4).map(|l| InjectionPlan::crash([(l, 1)])).collect();
    let input = |q: usize| -> Vec<f64> {
        (0..8)
            .map(|d| ((q * 8 + d) as f64 * 0.37).sin() * 0.5)
            .collect()
    };
    let units = total as u64;
    let mut metrics = Vec::new();

    // In-process baseline, same pipelined shape.
    let mut registry = PlanRegistry::new();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| registry.register(Arc::clone(&net), p, 1.0).unwrap())
        .collect();
    let server = CertServer::start(&registry, ServeConfig::default());
    let seconds = best_of(reps, || {
        let handles: Vec<_> = (0..total)
            .map(|q| server.submit(ids[q % 4], input(q)).expect("submit"))
            .collect();
        handles
            .into_iter()
            .map(|h| h.wait().expect("answer"))
            .sum::<f64>()
    });
    server.shutdown();
    metrics.push(Metric {
        name: "fleet_single_process".into(),
        workload: format!("L8 w256 net, {total} pipelined queries, in-process server"),
        seconds,
        units,
        throughput: units as f64 / seconds,
    });

    let mut report = FleetReport::default();
    for n in [1usize, 2, 4] {
        let fleet = FleetRouter::start(FleetConfig::default(), n, reexec_spawner(Vec::new()))
            .expect("fleet starts");
        let fids: Vec<_> = plans
            .iter()
            .map(|p| fleet.register_hot(&net, p, 1.0).expect("register"))
            .collect();
        // Warm every (plan, worker) route: hot plans round-robin, so n
        // queries per plan touch all n workers, pulling lazy
        // registration (net transfer + embedded-server rebuild) out of
        // the timed region. The metric is steady-state serving.
        for f in &fids {
            for _ in 0..n {
                fleet.query(*f, &input(0)).expect("warm query");
            }
        }
        let seconds = best_of(reps, || {
            let handles: Vec<_> = (0..total)
                .map(|q| fleet.submit(fids[q % 4], input(q)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.wait().expect("fleet answer"))
                .sum::<f64>()
        });
        let stats = fleet.shutdown();
        report.answers += stats.answers;
        report.requeues += stats.requeues;
        report.respawns += stats.respawns;
        report.worker_quarantines += stats.worker_quarantines;
        report.heartbeat_kills += stats.heartbeat_kills;
        report.protocol_errors += stats.protocol_errors;
        metrics.push(Metric {
            name: format!("fleet_saturation_n{n}"),
            workload: format!("L8 w256 net, {total} pipelined queries, {n} worker processes"),
            seconds,
            units,
            throughput: units as f64 / seconds,
        });
    }
    (metrics, report)
}

fn main() {
    // Worker mode: fleets spawned by `fleet_metrics` re-exec this very
    // binary with the fleet environment set. Divert before anything else.
    if std::env::var(neurofail_fleet::ENV_ADDR).is_ok() {
        std::process::exit(neurofail_fleet::run_worker_from_env());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let reps = if smoke { 1 } else { 3 };

    let (serve, serve_recovery) = serve_metric(smoke, reps);
    let mut metrics = vec![
        campaign_metric(smoke, reps),
        train_metric(smoke, reps),
        serve,
    ];
    metrics.extend(multi_plan_metrics(smoke, reps));
    let (store, artifact_store) = store_metrics(smoke, reps);
    metrics.extend(store);
    metrics.extend(gemm_backend_metrics(smoke, reps));
    metrics.extend(conv_lowering_metrics(smoke, reps));
    let (fleet_m, fleet) = fleet_metrics(smoke, reps);
    metrics.extend(fleet_m);

    let snapshot = Snapshot {
        schema: "neurofail-perf/PR10".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        backend: backend::active_kind().name().to_string(),
        cpu_features: backend::detected_features()
            .into_iter()
            .map(str::to_string)
            .collect(),
        metrics,
        serve_recovery,
        artifact_store,
        fleet,
    };
    let json = serde_json::to_string(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, &json).expect("snapshot written");
    for m in &snapshot.metrics {
        println!(
            "{:<28} {:>12.6}s  {:>12.0} units/s  ({})",
            m.name, m.seconds, m.throughput, m.workload
        );
    }
    println!("wrote {out} ({} mode)", snapshot.mode);
}
