//! Fleet/single-process equivalence — ARCHITECTURE contract 15, checked
//! with *real* worker processes (re-invocations of this test binary):
//!
//! * every fleet-served value is **bitwise** identical to the same query
//!   against a single-process `CertServer` over the same plans — for
//!   N ∈ {1, 2, 4} workers, cold and hot (input-partitioned) plans, and
//!   shuffled arrival orders;
//! * a fleet-sharded campaign reproduces a single-process
//!   `run_campaign` bit for bit, for every worker count, and a campaign
//!   `run_campaign` would reject panics in the caller, as it does
//!   locally, without costing a worker;
//! * a mid-run membership change (SIGKILL of a worker while its queries
//!   and campaign shards are in flight) changes *nothing* about the
//!   answers: unanswered rows requeue to the respawned process, no
//!   request is lost or double-answered, and every surviving worker's
//!   request log replay-verifies bitwise;
//! * a plan registered while another already serves on the same worker
//!   starts its own server beside it, so the first plan's server — and
//!   its checkpoint cache — keeps running.
//!
//! The file also holds the fleet saturation gate, an ignored test that
//! measures wall time and runs in release by name.

use std::sync::Arc;
use std::time::Instant;

use neurofail::data::rng::rng;
use neurofail::fleet::{
    reexec_spawner, FleetConfig, FleetError, FleetRouter, FleetStats, WorkerSpawner,
};
use neurofail::inject::{
    run_campaign, ByzantineStrategy, CampaignConfig, FaultSpec, InjectionPlan, PlanId,
    PlanRegistry, TrialKind,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::Mlp;
use neurofail::par::Parallelism;
use neurofail::serve::{CertServer, ServeConfig};
use neurofail::tensor::init::Init;
use proptest::prelude::*;
use rand::Rng;

/// The worker process. Ignored under a normal test run; fleets spawned
/// by the tests below re-invoke this binary with the `NEUROFAIL_FLEET_*`
/// environment set, which routes execution here.
#[test]
#[ignore = "fleet worker child, spawned by the tests below"]
fn fleet_worker_child() {
    if std::env::var(neurofail::fleet::ENV_ADDR).is_ok() {
        std::process::exit(neurofail::fleet::run_worker_from_env());
    }
}

fn spawner() -> WorkerSpawner {
    reexec_spawner(vec![
        "fleet_worker_child".into(),
        "--ignored".into(),
        "--exact".into(),
    ])
}

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

/// The plan family both deployments serve, in registration order.
fn plan_family(net: &Mlp, seed: u64) -> Vec<InjectionPlan> {
    let widths = net.widths();
    vec![
        InjectionPlan::none(),
        InjectionPlan::crash([(0, 0), (0, widths[0] - 1)]),
        InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::Random { seed }),
        InjectionPlan::stuck_at([((0, 0), -0.4)]),
    ]
}

/// Deterministically shuffled `(plan index, input)` pairs.
fn request_mix(seed: u64, n: usize, plans: usize) -> Vec<(usize, Vec<f64>)> {
    let mut r = rng(seed ^ 0xF1EE7);
    let mut mix: Vec<(usize, Vec<f64>)> = (0..n)
        .map(|i| {
            let input: Vec<f64> = (0..3).map(|_| r.gen_range(-1.0..=1.0)).collect();
            (i % plans, input)
        })
        .collect();
    for i in (1..mix.len()).rev() {
        let j = r.gen_range(0..=i as u64) as usize;
        mix.swap(i, j);
    }
    mix
}

/// Single-process reference: serve the same mix through one `CertServer`.
fn single_process_reference(
    net: &Arc<Mlp>,
    plans: &[InjectionPlan],
    mix: &[(usize, Vec<f64>)],
) -> Vec<f64> {
    let mut registry = PlanRegistry::new();
    let ids: Vec<PlanId> = plans
        .iter()
        .map(|p| registry.register(Arc::clone(net), p, 1.0).unwrap())
        .collect();
    let server = CertServer::start(&registry, ServeConfig::default());
    let out = mix
        .iter()
        .map(|(p, input)| server.query(ids[*p], input).unwrap())
        .collect();
    server.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The differential property: N real worker processes serve the same
    /// shuffled mix bitwise identically to one in-process server, for
    /// N ∈ {1, 2, 4}, cold and hot plan registration alike.
    #[test]
    fn fleet_serves_bitwise_equal_to_single_process(
        seed in 0u64..500,
        depth in 1usize..4,
        width in 3usize..8,
        hot in proptest::bool::ANY,
    ) {
        let net = Arc::new(build_net(seed, depth, width));
        let plans = plan_family(&net, seed);
        let mix = request_mix(seed, 20, plans.len());
        let expect = single_process_reference(&net, &plans, &mix);

        for n_workers in [1usize, 2, 4] {
            let fleet = FleetRouter::start(FleetConfig::default(), n_workers, spawner()).unwrap();
            let ids: Vec<_> = plans
                .iter()
                .map(|p| {
                    if hot {
                        fleet.register_hot(&net, p, 1.0).unwrap()
                    } else {
                        fleet.register(&net, p, 1.0).unwrap()
                    }
                })
                .collect();
            // Submit the whole mix asynchronously, then resolve: answers
            // may interleave across workers but must match per-request.
            let handles: Vec<_> = mix
                .iter()
                .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let got = h.wait().expect("fleet answers every accepted query");
                prop_assert_eq!(
                    got.to_bits(),
                    expect[k].to_bits(),
                    "query {} diverged under N={} (hot={})", k, n_workers, hot
                );
            }
            let audit = fleet.audit();
            prop_assert!(audit.clean(), "request logs must replay bitwise");
            prop_assert_eq!(audit.entries(), mix.len() as u64);
            fleet.shutdown();
        }
    }
}

/// A fleet-sharded campaign merges to the exact bits of a single-process
/// run, for every worker count.
#[test]
fn fleet_campaign_is_bitwise_equal_to_single_process() {
    let net = build_net(0xCA3, 2, 6);
    let counts = [2usize, 1];
    let cfg = CampaignConfig {
        trials: 23,
        inputs_per_trial: 6,
        ..CampaignConfig::default()
    };
    let whole = run_campaign(
        &net,
        &counts,
        TrialKind::Neurons(FaultSpec::Crash),
        &cfg,
        Parallelism::Sequential,
    );
    for n_workers in [1usize, 2, 4] {
        let fleet = FleetRouter::start(FleetConfig::default(), n_workers, spawner()).unwrap();
        let got = fleet
            .run_campaign(&net, &counts, TrialKind::Neurons(FaultSpec::Crash), &cfg)
            .expect("fleet campaign completes");
        assert_eq!(got.stats.mean.to_bits(), whole.stats.mean.to_bits());
        assert_eq!(got.stats.std_dev.to_bits(), whole.stats.std_dev.to_bits());
        assert_eq!(got.stats.min.to_bits(), whole.stats.min.to_bits());
        assert_eq!(got.stats.max.to_bits(), whole.stats.max.to_bits());
        assert_eq!(got.evaluations, whole.evaluations);
        assert_eq!(
            got.worst, whole.worst,
            "worst case diverged at N={n_workers}"
        );
        fleet.shutdown();
    }
}

/// A campaign a local `run_campaign` rejects — capacity 0, or more faults
/// than a layer has neurons — panics in the caller before any shard is
/// sent: no worker dies, none is quarantined, and the fleet still answers
/// a valid campaign bitwise.
#[test]
fn invalid_fleet_campaign_panics_in_the_caller() {
    let net = build_net(0xBAD, 2, 6);
    let kind = TrialKind::Neurons(FaultSpec::Crash);
    let cfg = CampaignConfig {
        trials: 8,
        inputs_per_trial: 4,
        ..CampaignConfig::default()
    };
    let fleet = FleetRouter::start(FleetConfig::default(), 2, spawner()).unwrap();
    let zero_capacity = CampaignConfig {
        capacity: 0.0,
        ..cfg
    };
    for (counts, bad) in [([2usize, 1], &zero_capacity), ([7, 1], &cfg)] {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.run_campaign(&net, &counts, kind, bad)
        }));
        assert!(run.is_err(), "{counts:?} {bad:?} must panic in the caller");
    }
    let stats = fleet.stats();
    assert_eq!((stats.respawns, stats.worker_quarantines), (0, 0));

    let whole = run_campaign(&net, &[2, 1], kind, &cfg, Parallelism::Sequential);
    let got = fleet
        .run_campaign(&net, &[2, 1], kind, &cfg)
        .expect("fleet campaign completes");
    assert_eq!(got.stats.mean.to_bits(), whole.stats.mean.to_bits());
    assert_eq!(got.evaluations, whole.evaluations);
    assert_eq!(got.worst, whole.worst);
    fleet.shutdown();
}

/// Contract 15's membership clause: killing a worker mid-run (queries in
/// flight *and* campaign shards outstanding) loses nothing and changes
/// no answer — the dead process's rows requeue to its respawn.
#[test]
fn mid_run_membership_change_preserves_every_answer() {
    let net = Arc::new(build_net(0xD0D0, 2, 6));
    let plans = plan_family(&net, 0xD0D0);
    let mix = request_mix(0xD0D0, 40, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);
    let counts = [2usize, 1];
    let camp_cfg = CampaignConfig {
        trials: 16,
        inputs_per_trial: 5,
        ..CampaignConfig::default()
    };
    let camp_whole = run_campaign(
        &net,
        &counts,
        TrialKind::Neurons(FaultSpec::Crash),
        &camp_cfg,
        Parallelism::Sequential,
    );

    let fleet = FleetRouter::start(FleetConfig::default(), 2, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
        .collect();

    // First half in flight…
    let first: Vec<_> = mix[..20]
        .iter()
        .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
        .collect();
    // …kick off a sharded campaign…
    let camp = std::thread::scope(|s| {
        let fleet = &fleet;
        let net = Arc::clone(&net);
        let camp = s.spawn(move || {
            fleet.run_campaign(
                &net,
                &counts,
                TrialKind::Neurons(FaultSpec::Crash),
                &camp_cfg,
            )
        });
        // …and kill a worker while both are outstanding.
        assert!(fleet.kill_worker(0), "worker 0 should be alive to kill");
        let second: Vec<_> = mix[20..]
            .iter()
            .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
            .collect();
        for (k, h) in first.into_iter().chain(second).enumerate() {
            let got = h.wait().expect("no accepted query is lost to the kill");
            assert_eq!(
                got.to_bits(),
                expect[k].to_bits(),
                "query {k} diverged across the membership change"
            );
        }
        camp.join().expect("campaign thread")
    })
    .expect("campaign survives the kill");
    assert_eq!(camp.stats.mean.to_bits(), camp_whole.stats.mean.to_bits());
    assert_eq!(camp.evaluations, camp_whole.evaluations);
    assert_eq!(camp.worst, camp_whole.worst);

    // Typed refusals still work across the boundary.
    match fleet.query(ids[0], &[0.1, 0.2]) {
        Err(FleetError::DimensionMismatch {
            expected: 3,
            got: 2,
        }) => {}
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    match fleet.query(neurofail::fleet::FleetPlanId(999), &[0.1, 0.2, 0.3]) {
        Err(FleetError::UnknownPlan) => {}
        other => panic!("expected UnknownPlan, got {other:?}"),
    }

    let stats = fleet.stats();
    assert!(stats.respawns >= 1, "the killed worker must respawn");
    assert!(
        stats.requeues >= 1,
        "the killed worker's in-flight rows must requeue"
    );
    let audit = fleet.audit();
    assert!(
        audit.clean(),
        "surviving logs replay bitwise after the kill"
    );
    fleet.shutdown();
}

/// A late registration leaves the plans already serving untouched: on a
/// one-worker fleet, A(x), B(y), A(x) ships B to the worker between A's
/// two flushes, and A's repeat flush still hits the checkpoint its first
/// flush left in A's server's cache.
#[test]
fn late_registration_keeps_served_plans_running() {
    let net = Arc::new(build_net(0x1A7E, 2, 6));
    // plan_family's crash and Byzantine plans, as A and B.
    let plans = plan_family(&net, 0x1A7E)[1..3].to_vec();
    let (x, y) = (vec![0.3, -0.6, 0.9], vec![-0.2, 0.5, 0.1]);
    let mix = [(0, x.clone()), (1, y), (0, x)];
    let expect = single_process_reference(&net, &plans, &mix);

    let fleet = FleetRouter::start(FleetConfig::default(), 1, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register(&net, p, 1.0).unwrap())
        .collect();
    for (k, (p, input)) in mix.iter().enumerate() {
        let got = fleet.query(ids[*p], input).expect("fleet answers");
        assert_eq!(got.to_bits(), expect[k].to_bits(), "query {k} diverged");
    }
    let worker = fleet.stats().workers[0].expect("worker 0 reports");
    assert_eq!(
        worker.checkpoint_hits, 1,
        "A's repeat flush must hit its server's cache: {worker:?}"
    );
    let audit = fleet.audit();
    assert!(audit.clean(), "request logs must replay bitwise");
    assert_eq!(audit.entries(), 3);
    fleet.shutdown();
}

/// Median, lower and upper quartile of `xs` (nearest rank).
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| v[(v.len() - 1) * q / 4];
    (at(2), at(1), at(3))
}

/// The fleet saturation gate. On a net heavy enough that evaluation
/// dominates wire framing (L8 w256), a one-worker fleet must serve a
/// pipelined query mix at >= 0.9x the throughput of an in-process
/// `CertServer`: the wire is overhead, not a cliff. The in-process server
/// and the N=1 fleet are started and warmed once, then alternate nine
/// timed passes of 128 queries each, and the gate compares their median
/// q/s, so host noise in one pass cannot decide it. Pass `k` sends both
/// sides queries `128k..128(k+1)` of the input stream: a repeated input
/// set would let the in-process workers' checkpoint caches answer from a
/// previous flush, which measures flush alignment, not the wire. Fleets
/// of N = 2 and 4 get one pass each; no fleet may trip any recovery
/// machinery. Fleet launch, registration and route warm-up stay outside
/// the timed passes.
/// It measures wall time, so it is ignored by default and runs in release
/// by name:
///
/// ```text
/// cargo test --release --test fleet_equivalence -- --ignored --exact \
///     one_worker_fleet_keeps_ninety_percent_of_in_process_throughput --nocapture
/// ```
#[test]
#[ignore = "throughput gate, run in release by name"]
fn one_worker_fleet_keeps_ninety_percent_of_in_process_throughput() {
    const QUERIES: usize = 128;
    const PASSES: usize = 9;
    let mut b = MlpBuilder::new(8);
    for _ in 0..8 {
        b = b.dense(256, Activation::Sigmoid { k: 1.0 });
    }
    let net = Arc::new(b.init(Init::Xavier).build(&mut rng(0xF1)));
    let plans: Vec<InjectionPlan> = (0..4).map(|l| InjectionPlan::crash([(l, 1)])).collect();
    let input = |q: usize| -> Vec<f64> {
        (0..8)
            .map(|d| ((q * 8 + d) as f64 * 0.37).sin() * 0.5)
            .collect()
    };

    // In-process baseline.
    let mut registry = PlanRegistry::new();
    let ids: Vec<PlanId> = plans
        .iter()
        .map(|p| registry.register(Arc::clone(&net), p, 1.0).unwrap())
        .collect();
    let server = CertServer::start(&registry, ServeConfig::default());
    for &id in &ids {
        server.query(id, &input(0)).expect("warm query");
    }
    // A fleet of `n` with the plans registered hot and every (plan,
    // worker) route warmed: hot plans round-robin, so n queries per plan
    // pull lazy registration (net transfer, plan server start) out of
    // the timed passes.
    let fleet_of = |n: usize| {
        let fleet = FleetRouter::start(FleetConfig::default(), n, spawner()).unwrap();
        let fids: Vec<_> = plans
            .iter()
            .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
            .collect();
        for f in &fids {
            for _ in 0..n {
                fleet.query(*f, &input(0)).expect("warm query");
            }
        }
        (fleet, fids)
    };
    // Timed pass `pass`: submit its queries, then wait for every answer.
    let queries = |pass: usize| (pass * QUERIES..(pass + 1) * QUERIES).map(|q| (q % 4, input(q)));
    let fleet_pass = |fleet: &FleetRouter, fids: &[_], pass: usize| {
        let t0 = Instant::now();
        let handles: Vec<_> = queries(pass)
            .map(|(p, x)| fleet.submit(fids[p], x))
            .collect();
        for h in handles {
            h.wait().expect("fleet answer");
        }
        QUERIES as f64 / t0.elapsed().as_secs_f64()
    };

    let (fleet, fids) = fleet_of(1);
    let (mut single, mut n1) = (Vec::new(), Vec::new());
    for pass in 0..PASSES {
        let t0 = Instant::now();
        let handles: Vec<_> = queries(pass)
            .map(|(p, x)| server.submit(ids[p], x).expect("submit"))
            .collect();
        for h in handles {
            h.wait().expect("answer");
        }
        single.push(QUERIES as f64 / t0.elapsed().as_secs_f64());
        n1.push(fleet_pass(&fleet, &fids, pass));
        println!(
            "pass {pass}: single {:.0} q/s, N=1 {:.0} q/s",
            single[pass], n1[pass]
        );
    }
    server.shutdown();
    let mut stats = vec![fleet.shutdown()];
    let mut others = Vec::new();
    for n in [2usize, 4] {
        let (fleet, fids) = fleet_of(n);
        others.push(fleet_pass(&fleet, &fids, 0));
        stats.push(fleet.shutdown());
    }

    let sum = |field: fn(&FleetStats) -> u64| stats.iter().map(field).sum::<u64>();
    let answers = sum(|s| s.answers);
    let recovery = [
        ("requeues", sum(|s| s.requeues)),
        ("respawns", sum(|s| s.respawns)),
        ("worker_quarantines", sum(|s| s.worker_quarantines)),
        ("heartbeat_kills", sum(|s| s.heartbeat_kills)),
        ("protocol_errors", sum(|s| s.protocol_errors)),
    ];
    let (single_med, single_q1, single_q3) = quartiles(&single);
    let (n1_med, n1_q1, n1_q3) = quartiles(&n1);
    println!(
        "single median {single_med:.0} q/s [{single_q1:.0}, {single_q3:.0}]; \
         N=1 median {n1_med:.0} q/s [{n1_q1:.0}, {n1_q3:.0}]; N=2,4 {others:.0?} q/s"
    );
    println!(
        "fleet n1/single: {:.3}; answers {answers}, {recovery:?}",
        n1_med / single_med
    );
    assert!(
        n1_med >= 0.9 * single_med,
        "one worker served a median {n1_med:.0} q/s, under 0.9x the in-process {single_med:.0} q/s"
    );
    assert!(answers > 0, "the fleets answered nothing");
    for (name, count) in recovery {
        assert_eq!(count, 0, "{name} during a healthy run");
    }
}
