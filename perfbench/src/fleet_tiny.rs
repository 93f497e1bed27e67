//! `fleet-tiny`: the serving generator sent through a `FleetRouter` with
//! two worker processes over unix sockets. The net is a tiny L2 w8 with
//! 4 hot plans, so per-query compute is ~1–2 µs and the frame codec,
//! socket, router loop and worker hand-off are the whole cost.

use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use neurofail_fleet::{
    FleetConfig, FleetHandle, FleetPlanId, FleetRouter, WorkerLaunch, WorkerSpawner, ENV_ADDR,
    ENV_GEN, ENV_WORKER,
};
use neurofail_inject::{InjectionPlan, PlanRegistry};
use neurofail_nn::Mlp;
use neurofail_serve::{CertServer, ServeConfig};

use crate::load::{Phases, Target};
use crate::report::Report;
use crate::serve_mix::{mlp, query};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, quantile, us, Stream};
use crate::{probes, Args};

const DEPTH: usize = 2;
const WIDTH: usize = 8;
const DIM: usize = 4;
const PLANS: usize = 4;
const WORKERS: usize = 2;
const LIMIT_US: f64 = 2000.0;
const LADDER_START: f64 = 5_000.0;
/// The fixed reference rate latency is reported at: the ladder's first
/// step, at or below a quarter of its highest passing rate on a 2-core
/// x86-64 host.
pub const REFERENCE_RATE: f64 = 5_000.0;
const SETUP_REPS: usize = 5;

/// The standard re-exec spawner, also recording each worker's pid so the
/// run can read the workers' peak memory.
fn spawner(pids: Arc<Mutex<Vec<u32>>>) -> WorkerSpawner {
    Box::new(move |launch: &WorkerLaunch| {
        let child = Command::new(std::env::current_exe()?)
            .env(ENV_ADDR, &launch.addr)
            .env(ENV_WORKER, launch.worker.to_string())
            .env(ENV_GEN, launch.spawn_gen.to_string())
            .stdout(Stdio::null())
            .spawn()?;
        pids.lock().expect("pid list").push(child.id());
        Ok(child)
    })
}

fn plans(seed: u64) -> Vec<InjectionPlan> {
    let mut s = Stream::new(seed, 0xF1EE7);
    (0..PLANS)
        .map(|i| InjectionPlan::crash([(i % DEPTH, s.below(WIDTH))]))
        .collect()
}

struct Fleet {
    router: FleetRouter,
    ids: Vec<FleetPlanId>,
    pids: Arc<Mutex<Vec<u32>>>,
}

/// Start the fleet, register the hot plans and warm every (plan, worker)
/// route, so lazy registration stays out of the timed phases.
fn start(net: &Arc<Mlp>, plans: &[InjectionPlan]) -> Fleet {
    let pids = Arc::new(Mutex::new(Vec::new()));
    let router = FleetRouter::start(FleetConfig::default(), WORKERS, spawner(Arc::clone(&pids)))
        .expect("fleet starts");
    let ids: Vec<FleetPlanId> = plans
        .iter()
        .map(|p| router.register_hot(net, p, 1.0).expect("plan admitted"))
        .collect();
    for id in &ids {
        for _ in 0..WORKERS {
            router.query(*id, &[0.5; DIM]).expect("warm-up query");
        }
    }
    Fleet { router, ids, pids }
}

struct Client<'a> {
    fleet: &'a Fleet,
    seed: u64,
}

impl Target for Client<'_> {
    type Handle = FleetHandle;
    fn query(&self, q: u64) -> (usize, Vec<f64>) {
        query(self.seed, q, PLANS, DIM)
    }
    fn submit(&self, plan: usize, input: Vec<f64>) -> Option<FleetHandle> {
        Some(self.fleet.router.submit(self.fleet.ids[plan], input))
    }
    fn resolve(&self, h: FleetHandle) -> Option<(f64, Option<Duration>)> {
        h.wait().ok().map(|v| (v, None))
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    // Set-up: net build, router admission, worker spawn and route
    // warm-up; repeated, the median reported.
    let mut times = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let net = Arc::new(mlp(DIM, DEPTH, WIDTH, args.seed));
        let plans = plans(args.seed);
        let fleet = start(&net, &plans);
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPS {
            live = Some((net, plans, fleet));
        } else {
            fleet.router.shutdown();
        }
    }
    r.e2e("setup_s", median(&mut times));
    let (net, plans, fleet) = live.expect("last set-up kept");

    let client = Client {
        fleet: &fleet,
        seed: args.seed,
    };
    let phases = Phases::run(
        &client,
        args,
        LADDER_START,
        LIMIT_US,
        REFERENCE_RATE,
        ("fleet.router.submit", "fleet.router.internal"),
        &|| {
            let pids = fleet.pids.lock().expect("pid list");
            peak_rss_mb("self")
                + pids
                    .iter()
                    .map(|p| peak_rss_mb(&p.to_string()))
                    .sum::<f64>()
        },
        tracer,
    );
    // Idle round trip: one query outstanding at a time.
    let mut idle = Vec::new();
    if args.traced {
        for q in 0..2000u64 {
            let (plan, x) = query(args.seed, (40 << 32) + q, PLANS, DIM);
            let t0 = Instant::now();
            let v = fleet.router.query(fleet.ids[plan], &x);
            idle.push(us(t0.elapsed()));
            r.count(1, u64::from(v.is_err()));
        }
    }
    let stats = fleet.router.stats();
    let final_stats = fleet.router.shutdown();
    phases.report(LIMIT_US, r);

    let recovery = final_stats.requeues
        + final_stats.respawns
        + final_stats.worker_quarantines
        + final_stats.heartbeat_kills
        + final_stats.protocol_errors;
    if recovery > 0 {
        r.invalid
            .push(format!("{recovery} fleet recovery events during the run"));
    }

    // Oracle, outside the timed region: an in-process server over the
    // same plans and inputs gives bitwise the same values (contract 15).
    let mut registry = PlanRegistry::new();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| {
            registry
                .register(Arc::clone(&net), p, 1.0)
                .expect("admitted")
        })
        .collect();
    let server = CertServer::start(&registry, ServeConfig::default());
    phases.check(
        |qs| {
            let handles: Vec<_> = qs
                .iter()
                .map(|&q| {
                    let (plan, x) = query(args.seed, q, PLANS, DIM);
                    server.submit(ids[plan], x).expect("oracle submit")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.wait().expect("oracle answer"))
                .collect()
        },
        r,
    );
    server.shutdown();

    if !args.traced {
        return;
    }
    let smp = phases
        .reference
        .samples
        .as_ref()
        .expect("reference samples");
    r.layer(
        "fleet.router.submit_us.p50",
        quantile(&mut smp.submit_us.clone(), 0.5),
    );
    r.layer(
        "fleet.router.submit_us.p99",
        quantile(&mut smp.submit_us.clone(), 0.99),
    );
    r.layer("fleet.router.idle_rtt_us", quantile(&mut idle, 0.5));
    let served: Vec<u64> = stats
        .workers
        .iter()
        .map(|w| w.map_or(0, |w| w.rows_served))
        .collect();
    let total = served.iter().sum::<u64>().max(1) as f64;
    r.layer(
        "fleet.worker_share_max",
        served.iter().copied().max().unwrap_or(0) as f64 / total,
    );
    r.layer("fleet.recovery_events", recovery as f64);
    probes::fleet_proto(DIM, r);
    probes::fleet_transport(DIM, r);
    probes::tensor(&net, 1, r);
    probes::nn(&net, 1, r);
    r.layer("nn.forward_batch_rows", 1.0);
    probes::par_handoff(r);
}
