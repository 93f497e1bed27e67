//! `serve-mix`: open-loop single-row queries into an in-process
//! `CertServer` (coalesced plans, one worker per shard) over an L6 w24
//! sigmoid net with 8 crash plans whose first faulty layers span 0–5.
//! Every input is fresh, so no cache, store or socket is involved: the
//! serve queue, coalesced flushes and `nn` forward/resume at small batch
//! do the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use neurofail_data::rng::rng;
use neurofail_inject::{InjectionPlan, PlanId, PlanRegistry};
use neurofail_nn::activation::Activation;
use neurofail_nn::builder::MlpBuilder;
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_serve::{CertServer, ResponseHandle, ServeConfig};
use neurofail_tensor::init::Init;

use crate::load::{Phases, Target};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{median, quantile, Stream};
use crate::{probes, Args};

const DEPTH: usize = 6;
const WIDTH: usize = 24;
const DIM: usize = 8;
const PLANS: usize = 8;
/// p99 latency limit of the rate ladder.
const LIMIT_US: f64 = 1000.0;
const LADDER_START: f64 = 5_000.0;
/// The fixed reference rate latency is reported at: the ladder's first
/// step, at or below a quarter of its highest passing rate on a 2-core
/// x86-64 host, so the step measures service latency, not queueing.
pub const REFERENCE_RATE: f64 = 5_000.0;
const SETUP_REPS: usize = 51;

/// A sigmoid MLP `dim → width^depth` with seeded Xavier weights.
pub fn mlp(dim: usize, depth: usize, width: usize, seed: u64) -> Mlp {
    let mut b = MlpBuilder::new(dim);
    for _ in 0..depth {
        b = b.dense(width, Activation::Sigmoid { k: 1.0 });
    }
    b.init(Init::Xavier).build(&mut rng(seed))
}

/// Query `q` of a run: a plan index and a fresh input in `[0, 1)^dim`.
pub fn query(seed: u64, q: u64, plans: usize, dim: usize) -> (usize, Vec<f64>) {
    let mut s = Stream::new(seed, q);
    let plan = s.below(plans);
    (plan, (0..dim).map(|_| s.unit()).collect())
}

struct Setup {
    net: Arc<Mlp>,
    registry: PlanRegistry,
    ids: Vec<PlanId>,
}

fn build(seed: u64) -> Setup {
    let net = Arc::new(mlp(DIM, DEPTH, WIDTH, seed));
    let mut s = Stream::new(seed, 0x91A5);
    let mut registry = PlanRegistry::new();
    let ids = (0..PLANS)
        .map(|i| {
            let plan = InjectionPlan::crash([(i % DEPTH, s.below(WIDTH))]);
            registry
                .register(Arc::clone(&net), &plan, 1.0)
                .expect("in-range crash plan")
        })
        .collect();
    Setup { net, registry, ids }
}

fn start(setup: &Setup) -> CertServer {
    let server = CertServer::start(
        &setup.registry,
        ServeConfig {
            coalesce_plans: true,
            ..ServeConfig::default()
        },
    );
    server
        .query(setup.ids[0], &[0.5; DIM])
        .expect("warm-up query");
    server
}

struct Serve<'a> {
    server: &'a CertServer,
    ids: &'a [PlanId],
    seed: u64,
}

impl Target for Serve<'_> {
    type Handle = ResponseHandle;
    fn query(&self, q: u64) -> (usize, Vec<f64>) {
        query(self.seed, q, PLANS, DIM)
    }
    fn submit(&self, plan: usize, input: Vec<f64>) -> Option<ResponseHandle> {
        self.server.submit(self.ids[plan], input).ok()
    }
    fn resolve(&self, h: ResponseHandle) -> Option<(f64, Option<Duration>)> {
        h.wait_response().ok().map(|r| (r.value, Some(r.latency)))
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    // Set-up: net build, plan admission, server start and one warm-up
    // query; repeated, the median reported.
    let mut times = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let setup = build(args.seed);
        let server = start(&setup);
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPS {
            live = Some((setup, server));
        } else {
            server.shutdown();
        }
    }
    r.e2e("setup_s", median(&mut times));
    let (setup, server) = live.expect("last set-up kept");

    let target = Serve {
        server: &server,
        ids: &setup.ids,
        seed: args.seed,
    };
    let phases = Phases::run(
        &target,
        args,
        LADDER_START,
        LIMIT_US,
        REFERENCE_RATE,
        ("serve.submit", "serve.internal"),
        &|| crate::util::peak_rss_mb("self"),
        tracer,
    );
    let stats = server.stats(setup.ids[0]).expect("registered plan");
    server.shutdown();
    phases.report(LIMIT_US, r);

    let recovery = stats.worker_restarts
        + stats.rows_requeued
        + stats.requests_shed
        + stats.plans_quarantined
        + stats.deadlines_expired
        + stats.retries;
    if recovery > 0 {
        r.invalid
            .push(format!("{recovery} serve recovery events during the run"));
    }

    // Oracle, outside the timed region: every served value is bitwise
    // the singleton reference.
    let mut ws = BatchWorkspace::default();
    phases.check(
        |qs| {
            qs.iter()
                .map(|&q| {
                    let (plan, x) = query(args.seed, q, PLANS, DIM);
                    setup
                        .registry
                        .get(setup.ids[plan])
                        .expect("registered plan")
                        .eval_singleton(&x, &mut ws)
                })
                .collect()
        },
        r,
    );

    if !args.traced {
        return;
    }
    let smp = phases
        .reference
        .samples
        .as_ref()
        .expect("reference samples");
    r.layer(
        "serve.submit_us.p50",
        quantile(&mut smp.submit_us.clone(), 0.5),
    );
    r.layer(
        "serve.submit_us.p99",
        quantile(&mut smp.submit_us.clone(), 0.99),
    );
    r.layer(
        "serve.internal_latency_us.p50",
        quantile(&mut smp.internal_us.clone(), 0.5),
    );
    r.layer(
        "serve.internal_latency_us.p99",
        quantile(&mut smp.internal_us.clone(), 0.99),
    );
    r.layer("serve.batch_rows_mean", stats.mean_batch);
    r.layer("serve.flushes", stats.flushes as f64);
    r.layer("serve.max_queue_depth", stats.max_queue_depth as f64);
    r.layer("serve.nominal_rows_saved", stats.nominal_rows_saved as f64);
    r.layer("serve.recovery_events", recovery as f64);
    let admission = setup.registry.admission_stats();
    r.layer("inject.ir.admitted", admission.admitted as f64);
    r.layer(
        "inject.ir.bodies_compiled",
        admission.bodies_compiled as f64,
    );
    crate::recertify::planner_picks(&[setup.registry.planner()], r);
    // Kernels and forward pass at the mean flush size.
    let rows = (stats.mean_batch.round() as usize).max(1);
    r.layer("nn.forward_batch_rows", rows as f64);
    probes::tensor(&setup.net, rows, r);
    probes::nn(&setup.net, rows, r);
    probes::par_handoff(r);
}
