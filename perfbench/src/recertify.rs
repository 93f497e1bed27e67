//! `recertify-store`: an offline closed loop with one client over an L6
//! w128 net, through a `CheckpointCache` (capacity 4) attached to an
//! `ArtifactStore` in a fresh directory. Three jobs in five are measured
//! capacity sweeps (32 capacities) of a random plan over one of 8
//! recurring 16-row probe sets — reads that hit memory, or the store after
//! LRU eviction — and two in five evaluate a 16-plan family over a fresh
//! probe set — a miss, a nominal pass and a publish. Content
//! hashing, cache verification and store load/publish dominate; tensor,
//! serve and fleet are nearly idle.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use neurofail_core::measured_capacity_sweep;
use neurofail_core::EpsilonBudget;
use neurofail_inject::{
    input_set_hash, net_content_hash, ArtifactStore, CheckpointCache, CompiledPlan, Engine,
    InjectionPlan, MultiPlanEvaluator, PlanId, PlanRegistry, Planner, RequestMix,
};
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_tensor::Matrix;

use crate::report::Report;
use crate::serve_mix::mlp;
use crate::trace::Tracer;
use crate::util::{digest, median, quantile, us, Stream};
use crate::{probes, Args};

const DEPTH: usize = 6;
const WIDTH: usize = 128;
const DIM: usize = 8;
const ROWS: usize = 16;
const PROBE_SETS: usize = 8;
const CAPACITIES: usize = 32;
const FAMILY: usize = 16;
const CACHE_CAPACITY: usize = 4;
/// Store byte budget: ~55 records of ~0.9 MB, so the disk footprint of a
/// run stays bounded while the 8 recurring sets stay resident.
const STORE_BUDGET: u64 = 48 << 20;
const SWEEPS_IN_5: u64 = 3;
const SETUP_REPS: usize = 51;

struct Setup {
    net: Arc<Mlp>,
    registry: PlanRegistry,
    ids: Vec<PlanId>,
    sets: Vec<Matrix>,
}

fn build(seed: u64) -> Setup {
    let net = Arc::new(mlp(DIM, DEPTH, WIDTH, seed));
    let mut s = Stream::new(seed, 0x5EC5);
    let mut registry = PlanRegistry::new();
    let ids = (0..FAMILY)
        .map(|i| {
            let plan = InjectionPlan::crash([(i % DEPTH, s.below(WIDTH))]);
            registry
                .register(Arc::clone(&net), &plan, 1.0)
                .expect("in-range crash plan")
        })
        .collect();
    let sets = (0..PROBE_SETS)
        .map(|_| Matrix::from_fn(ROWS, DIM, |_, _| s.unit()))
        .collect();
    Setup {
        net,
        registry,
        ids,
        sets,
    }
}

fn cache_over(dir: &Path) -> CheckpointCache {
    let _ = std::fs::remove_dir_all(dir);
    let store = ArtifactStore::open(dir)
        .expect("store opens")
        .with_byte_budget(STORE_BUDGET);
    let mut cache = CheckpointCache::new(CACHE_CAPACITY);
    cache.attach_store(store);
    cache
}

enum Job {
    Sweep { plan: InjectionPlan, set: usize },
    Family { xs: Matrix },
}

/// Job `j`. The kind (3 sweeps in every 5 jobs) and a sweep's faulty
/// layer (`j mod 6`, which visits every layer equally often among the
/// sweeps) are stratified rather than drawn, since they set a job's cost:
/// the seed then changes the weights, neurons and probe sets, not the
/// cost mix.
fn job(seed: u64, j: u64) -> Job {
    let mut s = Stream::new(seed, 0x10B0_0000 + j);
    if j % 5 < SWEEPS_IN_5 {
        Job::Sweep {
            plan: InjectionPlan::crash([(j as usize % DEPTH, s.below(WIDTH))]),
            set: s.below(PROBE_SETS),
        }
    } else {
        Job::Family {
            xs: Matrix::from_fn(ROWS, DIM, |_, _| s.unit()),
        }
    }
}

fn capacities() -> Vec<f64> {
    (1..=CAPACITIES).map(|i| 0.25 * i as f64).collect()
}

fn budget() -> EpsilonBudget {
    EpsilonBudget::new(1.0, 0.1).expect("valid budget")
}

fn sweep_digest(points: impl Iterator<Item = (f64, bool)>) -> u64 {
    points.fold(0, |acc, (worst, ok)| {
        digest(digest(acc, worst.to_bits()), u64::from(ok))
    })
}

fn family_digest(values: &[Vec<f64>]) -> u64 {
    values
        .iter()
        .flatten()
        .fold(0, |acc, v| digest(acc, v.to_bits()))
}

/// One job through the composite calls under test.
fn run_job(s: &Setup, job: &Job, cache: &mut CheckpointCache, scratch: &mut BatchWorkspace) -> u64 {
    match job {
        Job::Sweep { plan, set } => {
            let points = measured_capacity_sweep(
                &s.net,
                plan,
                &s.sets[*set],
                budget(),
                &capacities(),
                cache,
            );
            sweep_digest(points.iter().map(|p| (p.worst_error, p.admissible)))
        }
        Job::Family { xs } => {
            family_digest(&s.registry.eval_many_cached(&s.ids, xs, cache, scratch))
        }
    }
}

/// One job without cache or store: the oracle.
fn reference(s: &Setup, job: &Job) -> u64 {
    match job {
        Job::Sweep { plan, set } => {
            let xs = &s.sets[*set];
            let slack = budget().slack();
            let mut eval = MultiPlanEvaluator::new(&s.net, xs);
            sweep_digest(capacities().into_iter().map(|c| {
                let compiled = CompiledPlan::compile(plan, &s.net, c).expect("plan fits net");
                let worst = eval
                    .output_error(&compiled)
                    .into_iter()
                    .fold(0.0f64, f64::max);
                (worst, worst <= slack)
            }))
        }
        Job::Family { xs } => family_digest(&s.registry.eval_many(&s.ids, xs)),
    }
}

/// Per-call timings the traced replay collects, in µs.
#[derive(Default)]
struct Calls {
    compile: Vec<f64>,
    contains: Vec<f64>,
    hit: Vec<f64>,
    store_hit: Vec<f64>,
    miss: Vec<f64>,
    suffix: Vec<f64>,
    sweep_ms: Vec<f64>,
    net_hash: Vec<f64>,
    input_hash: Vec<f64>,
    load: Vec<f64>,
    publish: Vec<f64>,
}

/// `cache.checkpoint` plus the suffix of every plan in `plans`, timed and
/// classified by the `CacheStats` delta — the `Engine::Cached` arm the
/// composites run.
fn cached_eval(
    net: &Arc<Mlp>,
    xs: &Matrix,
    plans: &[&CompiledPlan],
    cache: &mut CheckpointCache,
    scratch: &mut BatchWorkspace,
    t: &mut Tracer,
    calls: &mut Calls,
) -> Vec<Vec<f64>> {
    let before = cache.stats();
    let o = t.begin("inject.cache.checkpoint", 0);
    let t0 = Instant::now();
    let ck = cache.checkpoint(net, xs);
    let took = us(t0.elapsed());
    t.end(o);
    let out = plans
        .iter()
        .map(|plan| {
            let o = t.begin("inject.multi.suffix", 0);
            let t0 = Instant::now();
            let e = plan.output_error_checkpointed(net, xs, ck.ws, ck.nominal_y, scratch);
            calls.suffix.push(us(t0.elapsed()));
            t.end(o);
            e
        })
        .collect();
    let after = cache.stats();
    if after.hits > before.hits {
        calls.hit.push(took);
    } else if after.store_hits > before.store_hits {
        calls.store_hit.push(took);
    } else {
        calls.miss.push(took);
    }
    out
}

/// Timed `cache.contains`, the planner's residency probe.
fn contains(
    net: &Arc<Mlp>,
    xs: &Matrix,
    cache: &CheckpointCache,
    t: &mut Tracer,
    calls: &mut Calls,
) -> bool {
    let o = t.begin("inject.cache.contains", 0);
    let t0 = Instant::now();
    let resident = cache.contains(net, xs);
    calls.contains.push(us(t0.elapsed()));
    t.end(o);
    resident
}

fn choose(planner: &Planner, mix: &RequestMix, t: &mut Tracer) -> Engine {
    let o = t.begin("inject.planner.choose", 0);
    let engine = planner.choose(mix);
    t.end(o);
    engine
}

/// The same job as [`run_job`], replayed as the public calls the
/// composites make (`measured_capacity_sweep`: compile → contains →
/// choose → checkpoint → checkpointed suffix → observe, per capacity;
/// `eval_many_cached`: dedup → contains → choose → checkpoint → suffix
/// per plan → observe), each call in its own span.
fn replay_job(
    s: &Setup,
    job: &Job,
    cache: &mut CheckpointCache,
    scratch: &mut BatchWorkspace,
    t: &mut Tracer,
    calls: &mut Calls,
) -> u64 {
    let net = &s.net;
    let depth = net.depth();
    match job {
        Job::Sweep { plan, set } => {
            let xs = &s.sets[*set];
            let slack = budget().slack();
            let planner = Planner::global();
            let sweep = t.begin("core.measured.sweep", 0);
            let t_sweep = Instant::now();
            let mut points = Vec::with_capacity(CAPACITIES);
            for c in capacities() {
                let o = t.begin("inject.ir.compile", 0);
                let t0 = Instant::now();
                let compiled = CompiledPlan::compile(plan, net, c).expect("plan fits net");
                calls.compile.push(us(t0.elapsed()));
                t.end(o);
                let mix = RequestMix {
                    rows: xs.rows(),
                    plans: 1,
                    depth,
                    suffix_layers: depth - compiled.first_faulty_layer(),
                    cache_available: true,
                    cache_resident: contains(net, xs, cache, t, calls),
                    stream_prefix_rows: 0,
                };
                let engine = choose(planner, &mix, t);
                let start = Instant::now();
                let errors = match engine {
                    Engine::Cached => {
                        cached_eval(net, xs, &[&compiled], cache, scratch, t, calls).swap_remove(0)
                    }
                    Engine::SuffixResume | Engine::Streaming => {
                        let o = t.begin("inject.multi.suffix", 0);
                        let e = MultiPlanEvaluator::new(net, xs).output_error(&compiled);
                        t.end(o);
                        e
                    }
                    Engine::WholeBatch | Engine::Singleton => {
                        let o = t.begin("inject.multi.whole_batch", 0);
                        let e = compiled.output_error_batch(net, xs, scratch);
                        t.end(o);
                        e
                    }
                };
                let o = t.begin("inject.planner.observe", 0);
                planner.observe(engine, &mix, start.elapsed().as_nanos() as u64);
                t.end(o);
                let worst = errors.iter().fold(0.0f64, |a, &e| a.max(e));
                points.push((worst, worst <= slack));
            }
            calls.sweep_ms.push(t_sweep.elapsed().as_secs_f64() * 1e3);
            t.end(sweep);
            sweep_digest(points.into_iter())
        }
        Job::Family { xs } => {
            let planner = s.registry.planner();
            let entries: Vec<_> = s
                .ids
                .iter()
                .map(|&id| s.registry.get(id).expect("registered"))
                .collect();
            let mut unique: Vec<usize> = Vec::new();
            let mut alias: Vec<(usize, usize)> = Vec::new();
            for (pos, e) in entries.iter().enumerate() {
                match unique
                    .iter()
                    .position(|&u| entries[u].ir().plan_key() == e.ir().plan_key())
                {
                    Some(u) => alias.push((pos, u)),
                    None => unique.push(pos),
                }
            }
            planner.note_dedup(alias.len() as u64);
            let mix = RequestMix {
                rows: xs.rows(),
                plans: unique.len(),
                depth,
                suffix_layers: unique
                    .iter()
                    .map(|&u| depth - entries[u].ir().first_faulty_layer())
                    .sum(),
                cache_available: true,
                cache_resident: contains(net, xs, cache, t, calls),
                stream_prefix_rows: 0,
            };
            let engine = choose(planner, &mix, t);
            let start = Instant::now();
            let plans: Vec<&CompiledPlan> = unique.iter().map(|&u| entries[u].compiled()).collect();
            let evaluated = match engine {
                Engine::Cached => cached_eval(net, xs, &plans, cache, scratch, t, calls),
                _ => {
                    let o = t.begin("inject.multi.suffix", 0);
                    let mut eval = MultiPlanEvaluator::new(net, xs);
                    let e = plans.iter().map(|p| eval.output_error(p)).collect();
                    t.end(o);
                    e
                }
            };
            let o = t.begin("inject.planner.observe", 0);
            planner.observe(engine, &mix, start.elapsed().as_nanos() as u64);
            t.end(o);
            let mut results = vec![Vec::new(); entries.len()];
            for (&pos, e) in unique.iter().zip(evaluated) {
                results[pos] = e;
            }
            for (pos, u) in alias {
                results[pos] = results[unique[u]].clone();
            }
            family_digest(&results)
        }
    }
}

/// Planner picks per engine: the process-wide planner plus `planners`.
pub fn planner_picks(planners: &[&Arc<Planner>], r: &mut Report) {
    for e in Engine::ALL {
        let picks = Planner::global().stats().picks[e.index()]
            + planners
                .iter()
                .map(|p| p.stats().picks[e.index()])
                .sum::<u64>();
        r.layer(&format!("inject.planner.picks.{}", e.name()), picks as f64);
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    let dir = args.run_dir.join("store");
    // Set-up: net build, family admission, probe sets, store open;
    // repeated over fresh directories, the median reported.
    let mut times = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        // Close the previous store before its directory is reused.
        drop(live.take());
        let t0 = Instant::now();
        let setup = build(args.seed);
        let cache = cache_over(&dir);
        times.push(t0.elapsed().as_secs_f64());
        live = Some((setup, cache));
    }
    r.e2e("setup_s", median(&mut times));
    let (s, mut cache) = live.expect("set-up ran");
    let mut scratch = BatchWorkspace::default();

    // Traced runs replay each job call by call and check it against the
    // composite run on a shadow cache and store that see the same calls.
    let mut shadow = args
        .traced
        .then(|| cache_over(&args.run_dir.join("shadow")));
    let mut probe_store = args.traced.then(|| {
        ArtifactStore::open(args.run_dir.join("probe"))
            .expect("probe store opens")
            .with_byte_budget(STORE_BUDGET)
    });
    let mut calls = Calls::default();
    let store_before = cache.store_stats().expect("store attached");

    let mut done: Vec<(u64, u64)> = Vec::new();
    let mut job_ms = Vec::new();
    let t_start = Instant::now();
    let deadline = t_start + args.secs(1.0);
    let mut j = 0u64;
    while Instant::now() < deadline {
        let jb = job(args.seed, j);
        let t0 = Instant::now();
        let d = if let Some(shadow) = shadow.as_mut() {
            let o = tracer.begin("bench.job", j);
            let d = replay_job(&s, &jb, &mut cache, &mut scratch, tracer, &mut calls);
            tracer.end(o);
            job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if run_job(&s, &jb, shadow, &mut scratch) != d {
                r.mismatch();
            }
            d
        } else {
            let d = run_job(&s, &jb, &mut cache, &mut scratch);
            job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            d
        };
        if let Some(store) = probe_store.as_mut() {
            probe_calls(&s.net, &jb, &s.sets, store, &mut calls);
        }
        done.push((j, d));
        j += 1;
    }
    let elapsed: f64 = job_ms.iter().sum::<f64>() / 1e3;
    r.e2e("peak_rss_mb", crate::util::peak_rss_mb("self"));
    r.e2e("latency_p50_us", quantile(&mut job_ms.clone(), 0.5) * 1e3);
    r.e2e("latency_tail_us", quantile(&mut job_ms.clone(), 0.9) * 1e3);
    r.e2e("throughput_per_s", done.len() as f64 / elapsed);
    r.note(format!(
        "jobs {} in {:.2} s: jobs_per_s {:.1}, job_p50_ms {:.3}, job_p90_ms {:.3}",
        done.len(),
        elapsed,
        done.len() as f64 / elapsed,
        quantile(&mut job_ms.clone(), 0.5),
        quantile(&mut job_ms.clone(), 0.9)
    ));
    r.count(done.len() as u64, 0);

    let cstats = cache.stats();
    let sstats = cache.store_stats().expect("store attached");
    if sstats.verify_rejects > 0 {
        r.invalid
            .push(format!("{} store verify rejects", sstats.verify_rejects));
    }

    // Oracle: every job again without cache or store.
    for (j, d) in &done {
        if reference(&s, &job(args.seed, *j)) != *d {
            r.mismatch();
        }
    }

    if !args.traced {
        return;
    }
    let med = |v: &Vec<f64>| quantile(&mut v.clone(), 0.5);
    r.layer("core.measured.sweep_ms", med(&calls.sweep_ms));
    r.layer("inject.compile_us", med(&calls.compile));
    r.layer("inject.multi.suffix_us", med(&calls.suffix));
    r.layer("inject.cache.contains_us", med(&calls.contains));
    r.layer("inject.cache.lookup_us.hit", med(&calls.hit));
    r.layer("inject.cache.lookup_us.store_hit", med(&calls.store_hit));
    r.layer("inject.cache.lookup_us.miss", med(&calls.miss));
    let lookups = (cstats.hits + cstats.store_hits + cstats.misses).max(1) as f64;
    r.layer(
        "inject.cache.hit_ratio",
        (cstats.hits + cstats.store_hits) as f64 / lookups,
    );
    r.layer("inject.cache.hits", cstats.hits as f64);
    r.layer("inject.cache.store_hits", cstats.store_hits as f64);
    r.layer("inject.cache.misses", cstats.misses as f64);
    r.layer("inject.cache.evictions", cstats.evictions as f64);
    let net_hash = med(&calls.net_hash);
    let input_hash = med(&calls.input_hash);
    let (load, publish) = (med(&calls.load), med(&calls.publish));
    r.layer("inject.cache.net_hash_us", net_hash);
    r.layer("inject.cache.input_hash_us", input_hash);
    r.layer("inject.store.load_us", load);
    r.layer("inject.store.publish_us", publish);
    let probe = probe_store.as_ref().expect("traced").stats();
    r.layer(
        "inject.store.record_bytes",
        probe.bytes as f64 / probe.entries.max(1) as f64,
    );
    r.layer("inject.store.verify_rejects", sstats.verify_rejects as f64);

    // Content hashing and store I/O as shares of job time: each call's
    // count (from the replay and the store counters) times its probed
    // cost. Every contains, checkpoint, store lookup and store publish
    // hashes the network and the input set once.
    let lookups_disk = (sstats.hits + sstats.misses + sstats.verify_rejects)
        - (store_before.hits + store_before.misses + store_before.verify_rejects);
    let publishes = sstats.inserts - store_before.inserts;
    let hash_pairs = calls.contains.len() as u64
        + (calls.hit.len() + calls.store_hit.len() + calls.miss.len()) as u64
        + lookups_disk
        + publishes;
    let job_us = elapsed * 1e6;
    let pair = net_hash + input_hash;
    r.layer("inject.cache.hash_share", hash_pairs as f64 * pair / job_us);
    let io_us = (sstats.hits - store_before.hits) as f64 * (load - pair).max(0.0)
        + publishes as f64 * (publish - pair).max(0.0);
    r.layer("inject.store.io_share", io_us / job_us);
    r.note(format!(
        "recertify job time {:.3} s: {hash_pairs} hash pairs x {pair:.1} us, {} store hits x load, {publishes} publishes",
        elapsed,
        sstats.hits - store_before.hits
    ));
    let admission = s.registry.admission_stats();
    r.layer("inject.ir.admitted", admission.admitted as f64);
    r.layer(
        "inject.ir.bodies_compiled",
        admission.bodies_compiled as f64,
    );
    planner_picks(&[s.registry.planner()], r);
    r.layer("nn.forward_batch_rows", ROWS as f64);
    probes::tensor(&s.net, ROWS, r);
    probes::nn(&s.net, ROWS, r);
}

/// Per-job probes (traced run, outside the job's span): one timed call
/// each of the two content hashes, and for a fresh probe set one timed
/// store publish and verified load on a separate probe store.
fn probe_calls(
    net: &Arc<Mlp>,
    job: &Job,
    sets: &[Matrix],
    store: &mut ArtifactStore,
    calls: &mut Calls,
) {
    let xs = match job {
        Job::Sweep { set, .. } => &sets[*set],
        Job::Family { xs } => xs,
    };
    let t0 = Instant::now();
    std::hint::black_box(net_content_hash(net));
    calls.net_hash.push(us(t0.elapsed()));
    let t0 = Instant::now();
    std::hint::black_box(input_set_hash(xs));
    calls.input_hash.push(us(t0.elapsed()));
    if let Job::Family { xs } = job {
        let mut ws = BatchWorkspace::default();
        let y = net.forward_batch(xs, &mut ws);
        let t0 = Instant::now();
        let published = store.publish_checkpoint(net, xs, &ws, &y);
        calls.publish.push(us(t0.elapsed()));
        assert!(published.is_ok(), "probe publish");
        let mut back = BatchWorkspace::default();
        let t0 = Instant::now();
        let loaded = store.load_checkpoint(net, xs, &mut back);
        calls.load.push(us(t0.elapsed()));
        assert!(
            loaded.is_some_and(|l| l.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits())),
            "probe load returns the published checkpoint"
        );
    }
}
