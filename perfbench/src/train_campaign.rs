//! `train-campaign`: an offline closed loop on one thread. Each job
//! trains a 2→w128→w64 sigmoid net on 2048 Ridge examples for a few
//! epochs from a seeded init (Fep penalty on, batched engine), then runs
//! a 256-trial × 32-input crash campaign on it. GEMM, activation kernels,
//! backprop and campaign sampling do all the work; there is no cache,
//! store, serve or fleet.

use std::time::Instant;

use neurofail_data::functions::Ridge;
use neurofail_data::rng::rng;
use neurofail_data::Dataset;
use neurofail_inject::{
    merge_trials, run_campaign, run_campaign_trials, CampaignConfig, CampaignResult, FaultSpec,
    TrialKind,
};
use neurofail_nn::activation::Activation;
use neurofail_nn::builder::MlpBuilder;
use neurofail_nn::train::{train, FepPenalty, TrainConfig, TrainEngine};
use neurofail_nn::{net_to_bytes, Mlp};
use neurofail_par::Parallelism;
use neurofail_tensor::checksum64;
use neurofail_tensor::init::Init;

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{digest, median, quantile, splitmix64, us};
use crate::{probes, Args};

const EXAMPLES: usize = 2048;
const EPOCHS: usize = 2;
const TRIALS: usize = 256;
const INPUTS_PER_TRIAL: usize = 32;
const COUNTS: [usize; 2] = [2, 1];
/// One job in this many is re-run from its seed by the oracle.
const ORACLE_STRIDE: u64 = 4;
const SETUP_REPS: usize = 51;

fn job_seed(seed: u64, j: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0x7A1_0000 + j))
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        fep_penalty: Some(FepPenalty::moderate()),
        engine: TrainEngine::Batched,
        ..TrainConfig::default()
    }
}

fn campaign_cfg(js: u64) -> CampaignConfig {
    CampaignConfig {
        trials: TRIALS,
        inputs_per_trial: INPUTS_PER_TRIAL,
        seed: js,
        capacity: 1.0,
    }
}

const KIND: TrialKind = TrialKind::Neurons(FaultSpec::Crash);

fn init_net(js: u64) -> Mlp {
    MlpBuilder::new(2)
        .dense(128, Activation::Sigmoid { k: 1.0 })
        .dense(64, Activation::Sigmoid { k: 1.0 })
        .init(Init::Xavier)
        .build(&mut rng(js))
}

/// Bitwise fingerprint of a job's outputs: trained weights, loss trace
/// and the campaign result (its `Debug` form prints every float exactly).
fn job_digest(net: &Mlp, mse: &[f64], camp: &CampaignResult) -> u64 {
    let mut d = checksum64(&net_to_bytes(net));
    for m in mse {
        d = digest(d, m.to_bits());
    }
    digest(d, checksum64(format!("{camp:?}").as_bytes()))
}

/// One job as the composites run it: train, then `run_campaign`.
/// Returns the digest and the train and campaign wall times.
fn run_job(data: &Dataset, js: u64) -> (u64, f64, f64) {
    let mut net = init_net(js);
    let t0 = Instant::now();
    let report = train(&mut net, data, &train_cfg(), &mut rng(js ^ 1));
    let t_train = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let camp = run_campaign(
        &net,
        &COUNTS,
        KIND,
        &campaign_cfg(js),
        Parallelism::Sequential,
    );
    let t_camp = t0.elapsed().as_secs_f64();
    (job_digest(&net, &report.epoch_mse, &camp), t_train, t_camp)
}

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    // Set-up: the training set (the only state jobs share); repeated,
    // the median reported.
    let mut times = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        data = Some(Dataset::sample(
            &Ridge::canonical(2),
            EXAMPLES,
            &mut rng(args.seed),
        ));
        times.push(t0.elapsed().as_secs_f64());
    }
    r.e2e("setup_s", median(&mut times));
    let data = data.expect("set-up ran");

    let mut done: Vec<(u64, u64)> = Vec::new();
    let mut job_ms = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut evals_per_s = Vec::new();
    let mut trial_us = Vec::new();
    let deadline = Instant::now() + args.secs(1.0);
    let mut j = 0u64;
    while Instant::now() < deadline {
        let js = job_seed(args.seed, j);
        let t0 = Instant::now();
        let (d, t_train, t_camp) = if tracer.on() {
            // Traced: the campaign replayed trial by trial through the
            // sharding primitive, merged, and checked bitwise against
            // the composite `run_campaign` outside the job's time.
            let o = tracer.begin("bench.job", j);
            let mut net = init_net(js);
            let ot = tracer.begin("nn.train", j);
            let t_t = Instant::now();
            let report = train(&mut net, &data, &train_cfg(), &mut rng(js ^ 1));
            let t_train = t_t.elapsed().as_secs_f64();
            tracer.end(ot);
            let t_c = Instant::now();
            let cfg = campaign_cfg(js);
            let trials: Vec<_> = (0..TRIALS)
                .flat_map(|t| {
                    let ot = tracer.begin("inject.campaign.trial", j);
                    let t0 = Instant::now();
                    let trial = run_campaign_trials(
                        &net,
                        &COUNTS,
                        KIND,
                        &cfg,
                        Parallelism::Sequential,
                        t,
                        1,
                    );
                    trial_us.push(us(t0.elapsed()));
                    tracer.end(ot);
                    trial
                })
                .collect();
            let ot = tracer.begin("inject.campaign.merge", j);
            let camp = merge_trials(trials);
            tracer.end(ot);
            let t_camp = t_c.elapsed().as_secs_f64();
            tracer.end(o);
            job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let composite = run_campaign(&net, &COUNTS, KIND, &cfg, Parallelism::Sequential);
            if format!("{composite:?}") != format!("{camp:?}") {
                r.mismatch();
            }
            (job_digest(&net, &report.epoch_mse, &camp), t_train, t_camp)
        } else {
            let out = run_job(&data, js);
            job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out
        };
        epoch_ms.push(t_train * 1e3 / EPOCHS as f64);
        evals_per_s.push((TRIALS * INPUTS_PER_TRIAL) as f64 / t_camp);
        done.push((j, d));
        j += 1;
    }
    let elapsed: f64 = job_ms.iter().sum::<f64>() / 1e3;
    r.e2e("peak_rss_mb", crate::util::peak_rss_mb("self"));
    r.e2e("latency_p50_us", quantile(&mut job_ms.clone(), 0.5) * 1e3);
    r.e2e("latency_tail_us", quantile(&mut job_ms.clone(), 0.9) * 1e3);
    r.e2e("throughput_per_s", done.len() as f64 / elapsed);
    r.note(format!(
        "jobs {} in {:.2} s: jobs_per_s {:.2}, job_p50_ms {:.3}, job_p90_ms {:.3}, train_epoch_ms {:.3}, campaign_evals_per_s {:.0}",
        done.len(),
        elapsed,
        done.len() as f64 / elapsed,
        quantile(&mut job_ms.clone(), 0.5),
        quantile(&mut job_ms.clone(), 0.9),
        median(&mut epoch_ms.clone()),
        median(&mut evals_per_s.clone()),
    ));
    r.count(done.len() as u64, 0);

    // Oracle: every ORACLE_STRIDE-th job re-run from its seed must
    // reproduce its outputs bitwise.
    for (j, d) in done.iter().filter(|(j, _)| j % ORACLE_STRIDE == 0) {
        if run_job(&data, job_seed(args.seed, *j)).0 != *d {
            r.mismatch();
        }
    }

    if !args.traced {
        return;
    }
    r.layer("nn.train_epoch_ms", median(&mut epoch_ms));
    r.layer("inject.campaign.evals_per_s", median(&mut evals_per_s));
    r.layer("inject.campaign.trial_us", median(&mut trial_us));
    let batch = TrainConfig::default().batch;
    let probe_net = init_net(args.seed);
    r.layer("nn.forward_batch_rows", batch as f64);
    probes::tensor(&probe_net, batch, r);
    probes::nn(&probe_net, batch, r);
    crate::recertify::planner_picks(&[], r);
}
