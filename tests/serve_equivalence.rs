//! Serving/direct equivalence — the serving engine's central contract,
//! checked at workspace level:
//!
//! * every served response is **bitwise** identical to evaluating the same
//!   input directly as a singleton `output_error_batch` call, across
//!   random networks, fault plans, arrival orders, micro-batch limits,
//!   flush deadlines and worker `Parallelism` policies;
//! * the recorded request log replays deterministically
//!   (`RequestLog::verify` — bitwise, in submission order);
//! * shutdown under load drains every accepted request: all outstanding
//!   handles resolve, with correct values.

use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::inject::ArtifactStore;
use neurofail::inject::{ByzantineStrategy, InjectionPlan, PlanId, PlanRegistry};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp};
use neurofail::par::Parallelism;
use neurofail::serve::{share_store, CertServer, ServeConfig};
use neurofail::tensor::init::Init;
use proptest::prelude::*;
use rand::Rng;
use std::time::Duration;

/// Random network from a compact recipe (mirrors `batch_equivalence.rs`).
fn build_net(seed: u64, depth: usize, width: usize) -> Mlp {
    let mut b = MlpBuilder::new(3);
    for i in 0..depth {
        let act = if i % 2 == 0 {
            Activation::Sigmoid { k: 1.1 }
        } else {
            Activation::Tanh { k: 0.9 }
        };
        b = b.dense(width + (i % 2), act);
    }
    b.init(Init::Uniform { a: 0.7 }).build(&mut rng(seed))
}

/// A small family of plans exercising every fault kind.
fn build_registry(net: Arc<Mlp>, seed: u64) -> PlanRegistry {
    let widths = net.widths();
    let mut reg = PlanRegistry::new();
    reg.register(Arc::clone(&net), &InjectionPlan::none(), 1.0)
        .unwrap();
    reg.register(
        Arc::clone(&net),
        &InjectionPlan::crash([(0, 0), (0, widths[0] - 1)]),
        1.0,
    )
    .unwrap();
    reg.register(
        Arc::clone(&net),
        &InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::Random { seed }),
        1.0,
    )
    .unwrap();
    reg
}

/// Deterministically shuffled `(plan, input)` pairs — the random arrival
/// order the contract must be insensitive to.
fn request_mix(seed: u64, n: usize, plans: usize) -> Vec<(PlanId, Vec<f64>)> {
    let mut r = rng(seed ^ 0x5E2E);
    let mut mix: Vec<(PlanId, Vec<f64>)> = (0..n)
        .map(|i| {
            let input: Vec<f64> = (0..3).map(|_| r.gen_range(-1.0..=1.0)).collect();
            (PlanId(i % plans), input)
        })
        .collect();
    // Fisher–Yates with the deterministic workspace RNG.
    for i in (1..mix.len()).rev() {
        let j = r.gen_range(0..=i as u64) as usize;
        mix.swap(i, j);
    }
    mix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Served values are bitwise singleton evaluations for any coalescing
    /// configuration, worker policy and concurrent arrival order — and the
    /// recorded log replays bitwise.
    #[test]
    fn served_equals_direct_singleton_bitwise(
        seed in 0u64..500,
        depth in 1usize..4,
        width in 3usize..9,
        max_batch in 1usize..9,
        wait_idx in 0usize..3,
        policy_idx in 0usize..3,
        clients in 1usize..5,
        coalesce_plans in proptest::bool::ANY,
    ) {
        let net = Arc::new(build_net(seed, depth, width));
        let registry = build_registry(Arc::clone(&net), seed);
        let cfg = ServeConfig {
            max_batch,
            max_wait: [Duration::ZERO, Duration::from_micros(50), Duration::from_millis(1)][wait_idx],
            queue_capacity: 64,
            workers: [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Threads(5)][policy_idx],
            record_log: true,
            // All three plans share the net: coalescing folds them onto
            // one shared-net shard whose flushes mix plans — the suffix
            // engine must stay bitwise-invisible there too.
            // Every worker's checkpoint cache must be bitwise-invisible
            // too: arbitrary traffic rarely repeats or prefix-matches a
            // flush, but when it does the reused checkpoint must not
            // change a single served bit.
            coalesce_plans,
            ..ServeConfig::default()
        };
        let server = CertServer::start(&registry, cfg);
        if coalesce_plans {
            prop_assert_eq!(server.shard_count(), 1);
        }
        let mix = request_mix(seed, 24, registry.len());

        // Submit concurrently from several clients, each with its own
        // interleaved slice of the shuffled mix.
        let served: Vec<(PlanId, Vec<f64>, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = &server;
                    let mine: Vec<(PlanId, Vec<f64>)> = mix
                        .iter()
                        .skip(c)
                        .step_by(clients)
                        .cloned()
                        .collect();
                    s.spawn(move || {
                        mine.into_iter()
                            .map(|(plan, input)| {
                                let value =
                                    server.query(plan, &input).expect("valid submission");
                                (plan, input, value)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        // Bitwise agreement with direct singleton evaluation.
        let mut ws = BatchWorkspace::default();
        for (plan, input, value) in &served {
            let direct = registry.get(*plan).unwrap().eval_singleton(input, &mut ws);
            prop_assert_eq!(
                value.to_bits(),
                direct.to_bits(),
                "plan {:?}: served {:e} vs direct {:e}",
                plan, value, direct
            );
        }

        // The recorded log replays bitwise, independent of how requests
        // were coalesced across flushes and workers.
        let log = server.take_log();
        prop_assert_eq!(log.len(), served.len());
        prop_assert!(log.verify(&registry).is_ok());
        server.shutdown();
    }

    /// Shutdown under load never drops an accepted request, and the
    /// drained responses are still bitwise correct.
    #[test]
    fn shutdown_under_load_drains_every_request(
        seed in 0u64..500,
        max_batch in 1usize..7,
        policy_idx in 0usize..3,
    ) {
        let net = Arc::new(build_net(seed, 2, 5));
        let registry = build_registry(Arc::clone(&net), seed);
        let server = CertServer::start(&registry, ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(200),
            queue_capacity: 256,
            workers: [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Threads(4)][policy_idx],
            record_log: false,
            coalesce_plans: false,
            ..ServeConfig::default()
        });
        let mix = request_mix(seed, 60, registry.len());
        let pending: Vec<_> = mix
            .iter()
            .map(|(plan, input)| {
                (*plan, input.clone(), server.submit(*plan, input.clone()).unwrap())
            })
            .collect();
        // Shut down while (most of) the queue is still unserved.
        let stats = server.shutdown();
        let drained: u64 = stats.iter().map(|s| s.rows_served).sum();
        prop_assert_eq!(drained, mix.len() as u64, "accepted ≠ served");
        let mut ws = BatchWorkspace::default();
        for (plan, input, handle) in pending {
            let value = handle.wait().expect("request survived shutdown");
            let direct = registry.get(plan).unwrap().eval_singleton(&input, &mut ws);
            prop_assert_eq!(value.to_bits(), direct.to_bits());
        }
    }
}

/// The persistent store tier closes the worker cache's lifecycle gap: a
/// worker's checkpoint cache dies with its worker, but flushes written
/// through to the shared [`ArtifactStore`] outlive it. A restarted server opening the
/// same directory serves the whole repeated query set without a single
/// nominal forward pass — and without one bit of difference.
#[test]
fn restarted_server_warm_starts_from_shared_store() {
    let dir = std::env::temp_dir().join(format!("nf-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let net = Arc::new(build_net(41, 3, 6));
    let registry = build_registry(Arc::clone(&net), 41);
    let cfg = ServeConfig {
        // One row per flush: every flush's store key is exactly one query
        // input, so the warm run's keys deterministically match the cold
        // run's regardless of arrival timing.
        max_batch: 1,
        max_wait: Duration::ZERO,
        queue_capacity: 64,
        workers: Parallelism::Sequential,
        record_log: false,
        // All three plans share the net, so one shard (and one checkpoint
        // per input) serves them all.
        coalesce_plans: true,
        ..ServeConfig::default()
    };
    let mix = request_mix(41, 18, registry.len());

    // Cold server: every flush computes its nominal pass and publishes it.
    let server_a = CertServer::start_with_store(
        &registry,
        cfg,
        share_store(ArtifactStore::open(&dir).unwrap()),
    );
    let served_a: Vec<f64> = mix
        .iter()
        .map(|(plan, input)| server_a.query(*plan, input).unwrap())
        .collect();
    let stats_a = server_a.shutdown().remove(0);
    assert_eq!(stats_a.store_hits, 0, "cold run cannot hit its own store");
    assert_eq!(
        stats_a.store_publishes,
        mix.len() as u64,
        "every distinct cold flush publishes its checkpoint"
    );

    // Restarted server — a fresh store handle over the same directory, as
    // a new process would open. Every flush's nominal pass is served from
    // the store: zero forward passes, full rows×depth reuse accounting.
    let server_b = CertServer::start_with_store(
        &registry,
        cfg,
        share_store(ArtifactStore::open(&dir).unwrap()),
    );
    let served_b: Vec<f64> = mix
        .iter()
        .map(|(plan, input)| server_b.query(*plan, input).unwrap())
        .collect();
    let stats_b = server_b.shutdown().remove(0);
    assert_eq!(
        stats_b.store_hits,
        mix.len() as u64,
        "warm run serves every flush from the store"
    );
    assert_eq!(stats_b.store_publishes, 0, "nothing new to publish warm");
    assert_eq!(
        stats_b.store_rows_reused,
        (mix.len() * net.depth()) as u64,
        "reuse accounting is exact: one row × depth per warm flush"
    );

    // Warm values are bitwise the cold values, and both are bitwise the
    // direct singleton evaluation — the store tier is invisible in data.
    let mut ws = BatchWorkspace::default();
    for (i, (plan, input)) in mix.iter().enumerate() {
        let direct = registry.get(*plan).unwrap().eval_singleton(input, &mut ws);
        assert_eq!(served_a[i].to_bits(), direct.to_bits(), "cold vs direct");
        assert_eq!(served_b[i].to_bits(), direct.to_bits(), "warm vs direct");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
