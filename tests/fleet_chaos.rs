//! Chaos certification of the fleet (`--features failpoints`):
//! seeded-replay schedules that SIGKILL worker processes at seeded
//! points while the workers themselves are failpoint-armed (recv
//! panics, answer-pump panics and stalls, campaign-thread panics —
//! self-armed from the fleet's `chaos_seed`). The contract:
//!
//! * **zero lost, duplicated, or wrong answers** — every submitted
//!   handle resolves, every resolved value is bitwise equal to the
//!   single-process reference, and the router's answer counter matches
//!   the submission count exactly (an answer delivered twice would
//!   overshoot it);
//! * a fleet-sharded campaign under the same chaos still merges to the
//!   bit-exact single-process `run_campaign` result;
//! * surviving workers' request logs replay-verify bitwise (**clean
//!   quarantine**: a slot that strikes out is excluded, its traffic
//!   rerouted — never dropped);
//! * a killed worker's warm streaming state degrades only to
//!   recomputation: values stay bitwise identical, and the death is
//!   visible *solely* in the statistics (respawn/requeue counters);
//! * a failed router write — one write carries a burst of frames —
//!   requeues every row it carried: nothing is lost or answered twice.
//!
//! The router's `fleet::send` site counts hits process-wide, so every
//! test here holds a chaos session and the tests run one at a time.
//!
//! Schedule count is env-tunable (`NEUROFAIL_FLEET_CHAOS_SCHEDULES`,
//! default 50) so CI can pin a smaller seeded subset.

#![cfg(feature = "failpoints")]

use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::fleet::{reexec_spawner, FleetConfig, FleetRouter, WorkerSpawner};
use neurofail::inject::{
    run_campaign, ByzantineStrategy, CampaignConfig, FaultSpec, InjectionPlan, PlanId,
    PlanRegistry, TrialKind,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::Mlp;
use neurofail::par::failpoint::{install, ChaosAction, ChaosGuard, ChaosSchedule};
use neurofail::par::Parallelism;
use neurofail::serve::{CertServer, ServeConfig};
use neurofail::tensor::init::Init;
use rand::Rng;

/// The worker process (see `fleet_equivalence.rs`). Workers spawned by
/// this suite self-arm their chaos schedule from `NEUROFAIL_FLEET_CHAOS`.
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

/// Hold the process-wide chaos session, nothing armed in this process.
fn chaos_session() -> ChaosGuard {
    install(ChaosSchedule::new(0))
}

fn schedules() -> u64 {
    std::env::var("NEUROFAIL_FLEET_CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
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

fn plan_family(net: &Mlp, seed: u64) -> Vec<InjectionPlan> {
    let widths = net.widths();
    vec![
        InjectionPlan::none(),
        InjectionPlan::crash([(0, 0), (0, widths[0] - 1)]),
        InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::Random { seed }),
        InjectionPlan::stuck_at([((0, 0), -0.4)]),
    ]
}

fn request_mix(seed: u64, n: usize, plans: usize) -> Vec<(usize, Vec<f64>)> {
    let mut r = rng(seed ^ 0xF1EE7);
    (0..n)
        .map(|i| {
            let input: Vec<f64> = (0..3).map(|_| r.gen_range(-1.0..=1.0)).collect();
            (i % plans, input)
        })
        .collect()
}

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

fn chaotic_config(seed: u64) -> FleetConfig {
    FleetConfig {
        // Tight heartbeat so stalled answer pumps are detected within
        // the test's patience.
        heartbeat: std::time::Duration::from_millis(100),
        chaos_seed: Some(seed),
    }
}

/// The main chaos sweep: ≥50 seeded schedules (env-tunable), each
/// running a 3-worker fleet with self-armed workers, seeded SIGKILLs
/// fired while queries and campaign shards are in flight.
#[test]
fn seeded_chaos_loses_nothing_duplicates_nothing_corrupts_nothing() {
    let _session = chaos_session();
    let net = Arc::new(build_net(0xC4A05, 2, 6));
    let plans = plan_family(&net, 0xC4A05);
    let mix = request_mix(0xC4A05, 24, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);
    let counts = [2usize, 1];
    let camp_cfg = CampaignConfig {
        trials: 10,
        inputs_per_trial: 4,
        ..CampaignConfig::default()
    };
    let camp_whole = run_campaign(
        &net,
        &counts,
        TrialKind::Neurons(FaultSpec::Crash),
        &camp_cfg,
        Parallelism::Sequential,
    );

    let n_schedules = schedules();
    let (mut total_respawns, mut total_requeues, mut total_kills) = (0u64, 0u64, 0u64);
    for s in 0..n_schedules {
        let seed = 0xC4A0_5EED_u64 ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fleet = FleetRouter::start(chaotic_config(seed), 3, spawner())
            .unwrap_or_else(|e| panic!("schedule {s} (seed {seed:#x}): start failed: {e}"));
        let ids: Vec<_> = plans
            .iter()
            .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
            .collect();
        let mut r = rng(seed);

        // First wave in flight…
        let first: Vec<_> = mix[..12]
            .iter()
            .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
            .collect();
        // …seeded kill point 1…
        if r.gen_range(0..2u64) == 0 {
            let victim = r.gen_range(0..3u64) as usize;
            total_kills += u64::from(fleet.kill_worker(victim));
        }
        // …campaign shards outstanding while kill point 2 fires…
        let camp = std::thread::scope(|scope| {
            let fleet = &fleet;
            let net = Arc::clone(&net);
            let camp = scope.spawn(move || {
                fleet.run_campaign(
                    &net,
                    &counts,
                    TrialKind::Neurons(FaultSpec::Crash),
                    &camp_cfg,
                )
            });
            if r.gen_range(0..2u64) == 0 {
                let victim = r.gen_range(0..3u64) as usize;
                total_kills += u64::from(fleet.kill_worker(victim));
            }
            let second: Vec<_> = mix[12..]
                .iter()
                .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
                .collect();
            // Zero lost, zero wrong: every handle resolves, bitwise.
            for (k, h) in first.into_iter().chain(second).enumerate() {
                let got = h.wait().unwrap_or_else(|e| {
                    panic!("schedule {s} (seed {seed:#x}): query {k} lost to chaos: {e}")
                });
                assert_eq!(
                    got.to_bits(),
                    expect[k].to_bits(),
                    "schedule {s} (seed {seed:#x}): query {k} answered wrongly"
                );
            }
            camp.join().expect("campaign thread")
        })
        .unwrap_or_else(|e| panic!("schedule {s} (seed {seed:#x}): campaign failed: {e}"));
        // The sharded campaign still merges to the exact bits.
        assert_eq!(camp.stats.mean.to_bits(), camp_whole.stats.mean.to_bits());
        assert_eq!(
            camp.stats.std_dev.to_bits(),
            camp_whole.stats.std_dev.to_bits()
        );
        assert_eq!(camp.evaluations, camp_whole.evaluations);
        assert_eq!(camp.worst, camp_whole.worst);

        // Clean quarantine / replay: surviving logs verify bitwise.
        let audit = fleet.audit();
        assert!(
            audit.clean(),
            "schedule {s} (seed {seed:#x}): a surviving log failed replay"
        );
        let stats = fleet.shutdown();
        // Zero duplicated: the router counted exactly one answer per
        // submission — a double-answered requeue would overshoot.
        assert_eq!(
            stats.answers,
            mix.len() as u64,
            "schedule {s} (seed {seed:#x}): answer count drifted"
        );
        total_respawns += stats.respawns;
        total_requeues += stats.requeues;
    }
    // The sweep must actually have exercised the recovery machinery.
    assert!(total_kills > 0, "seeded kills never fired");
    assert!(
        total_respawns >= total_kills,
        "every kill must respawn (or quarantine) the slot"
    );
    // Requeues accompany kills often enough that a chaotic sweep with
    // zero requeues means the kill points never hit in-flight work.
    assert!(
        n_schedules < 10 || total_requeues > 0,
        "chaos never caught a worker with work in flight"
    );
}

/// A killed worker's warm streaming state (the checkpoints its serve
/// workers' caches hold) degrades only to recomputation: re-served values
/// after the kill are bitwise identical; the only observable difference
/// is statistical (respawn/requeue counters).
#[test]
fn killed_worker_streaming_state_degrades_only_in_stats() {
    let _session = chaos_session();
    let net = Arc::new(build_net(0x57A7E, 2, 6));
    let plans = plan_family(&net, 0x57A7E);
    let mix = request_mix(0x57A7E, 16, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);

    // Single worker, *no* self-armed chaos: the only fault is the
    // SIGKILL, so the delta is attributable to it.
    let fleet = FleetRouter::start(FleetConfig::default(), 1, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
        .collect();

    // Warm pass: builds whatever streaming state the worker keeps.
    for (k, (p, input)) in mix.iter().enumerate() {
        let got = fleet.query(ids[*p], input).expect("warm pass answers");
        assert_eq!(got.to_bits(), expect[k].to_bits());
    }
    let warm = fleet.stats();
    assert_eq!(warm.respawns, 0);

    // Kill the only worker — its checkpoints die with it.
    assert!(fleet.kill_worker(0));

    // Cold pass: identical traffic, bitwise identical answers. The
    // kill shows up *only* here, in the counters.
    for (k, (p, input)) in mix.iter().enumerate() {
        let got = fleet.query(ids[*p], input).expect("cold pass answers");
        assert_eq!(
            got.to_bits(),
            expect[k].to_bits(),
            "value drifted after losing warm streaming state"
        );
    }
    let cold = fleet.stats();
    assert!(cold.respawns >= 1, "the kill must be visible in stats");
    assert_eq!(
        cold.answers,
        2 * mix.len() as u64,
        "every query answered exactly once across the kill"
    );
    let audit = fleet.audit();
    assert!(audit.clean(), "respawned worker's log replays bitwise");
    fleet.shutdown();
}

/// A router write carries every frame queued for its connection. When
/// one fails (a `fleet::send` reject, armed past the warm-up writes),
/// every row it carried is already in the in-flight table: the slot
/// respawns once and the rows requeue onto it, so each answer is still
/// bitwise the single-process one, and counted once.
#[test]
fn failed_batched_write_requeues_every_row_it_carried() {
    // Warm-up writes at most 8 one-query writes; the pipelined waves
    // below write at least twice each.
    const ARMED_WRITE: u64 = 16;
    const WAVES: usize = 12;
    const WAVE: usize = 8;
    let net = Arc::new(build_net(0xBA7C4, 2, 6));
    let plans = plan_family(&net, 0xBA7C4);
    let mix = request_mix(0xBA7C4, WAVES * WAVE, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);

    let chaos = install(ChaosSchedule::new(0xBA7C4).on_hit(
        "fleet::send",
        ChaosAction::Reject,
        ARMED_WRITE,
    ));
    let fleet = FleetRouter::start(FleetConfig::default(), 2, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
        .collect();
    // Warm-up: one query per (plan, worker), one at a time.
    let mut warm = 0u64;
    for id in &ids {
        for _ in 0..2 {
            fleet.query(*id, &[0.25; 3]).expect("warm-up answers");
            warm += 1;
        }
    }
    assert_eq!(chaos.fired("fleet::send"), 0, "armed write hit in warm-up");

    for (w, wave) in mix.chunks(WAVE).enumerate() {
        let handles: Vec<_> = wave
            .iter()
            .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
            .collect();
        for (k, h) in handles.into_iter().enumerate() {
            let at = w * WAVE + k;
            let got = h
                .wait()
                .unwrap_or_else(|e| panic!("query {at} lost to the failed write: {e}"));
            assert_eq!(
                got.to_bits(),
                expect[at].to_bits(),
                "query {at} answered wrongly"
            );
        }
    }
    assert_eq!(chaos.fired("fleet::send"), 1, "the armed write never fired");

    let audit = fleet.audit();
    assert!(audit.clean(), "a surviving log failed replay");
    let stats = fleet.shutdown();
    assert_eq!(stats.respawns, 1, "one failed write, one respawn");
    assert!(stats.requeues >= 1, "the failed write carried no rows");
    assert_eq!(stats.worker_quarantines, 0);
    assert_eq!(
        stats.answers,
        warm + mix.len() as u64,
        "every query answered exactly once across the failed write"
    );
}
