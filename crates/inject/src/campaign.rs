//! Monte-Carlo fault-injection campaigns.
//!
//! A campaign measures the distribution of the output disturbance
//! `|F_neu(X) − F_fail(X)|` over many random `(plan, input)` pairs — the
//! tractable replacement for "looking at all the possible inputs and testing
//! all the possible configurations" that the paper rules out as
//! combinatorially explosive. Trials are independent, so the campaign runs
//! embarrassingly parallel under `neurofail-par`, with per-trial seeds
//! derived from the campaign seed (results are identical for any thread
//! count).

use neurofail_data::rng::rng as det_rng;
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_par::{parallel_map, Parallelism, SeedSequence};
use neurofail_tensor::{Matrix, OnlineStats};
use serde::{Deserialize, Serialize};

use crate::executor::CompiledPlan;
use crate::plan::InjectionPlan;
use crate::sampler::{sample_neuron_plan, sample_synapse_plan, FaultSpec};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of independent fault plans to draw.
    pub trials: usize,
    /// Number of random inputs evaluated per plan.
    pub inputs_per_trial: usize,
    /// Campaign seed (everything derives from it).
    pub seed: u64,
    /// Synaptic capacity C under which plans execute.
    pub capacity: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 200,
            inputs_per_trial: 32,
            seed: 0xFA117,
            capacity: 1.0,
        }
    }
}

/// Worst single observation of a campaign.
///
/// Carries everything needed to re-derive the observation **standalone**:
/// `plan` + `input` replay the evaluation directly (bitwise, as a
/// singleton batch), while `trial` + `seed` re-derive the plan and the
/// whole input stream of the offending trial from scratch — without
/// rerunning the campaign (see `replaying_a_worst_case_from_its_seed`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstCase {
    /// The disturbance `|F_neu − F_fail|`.
    pub error: f64,
    /// The input achieving it.
    pub input: Vec<f64>,
    /// The plan achieving it.
    pub plan: InjectionPlan,
    /// 0-based index of the trial that produced it.
    pub trial: usize,
    /// The trial's derived seed (`SeedSequence::new(cfg.seed).seed_for
    /// (trial)`): seeding a fresh RNG with it and re-running the trial's
    /// draw sequence — plan first, then inputs in row order — regenerates
    /// `plan` and `input` exactly.
    pub seed: u64,
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Moments and extrema of the observed disturbances.
    pub stats: neurofail_tensor::Summary,
    /// The worst observation (None for zero-trial campaigns).
    pub worst: Option<WorstCase>,
    /// Total `(plan, input)` evaluations.
    pub evaluations: u64,
}

impl CampaignResult {
    /// Largest observed disturbance (0 for empty campaigns).
    pub fn max_error(&self) -> f64 {
        self.worst.as_ref().map(|w| w.error).unwrap_or(0.0)
    }
}

/// What the campaign injects each trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrialKind {
    /// Neuron faults with per-layer counts and a fault spec.
    Neurons(FaultSpec),
    /// Synapse faults (`byzantine = false` → crashes).
    Synapses {
        /// Byzantine (bounded arbitrary) vs crash semantics.
        byzantine: bool,
    },
}

/// Upper bound on rows evaluated per batched call inside a trial: keeps a
/// worker's workspace at O(MAX_EVAL_BATCH · Σ N_l) no matter how large
/// `inputs_per_trial` is, while leaving typical campaigns (≤ 1024 inputs
/// per trial) as a single batch.
const MAX_EVAL_BATCH: usize = 1024;

/// Run a campaign: `cfg.trials` random plans with the given per-layer
/// `counts`, each compiled once and evaluated over its whole
/// `cfg.inputs_per_trial` input set in batched suffix-engine calls
/// ([`CompiledPlan::output_error_resumed`] — one nominal pass per chunk,
/// shared by the plan's faulty pass, which resumes at the plan's first
/// faulty layer; one call when the input set fits `MAX_EVAL_BATCH`) — the
/// compile-once / run-many shape the batched engine exists for.
///
/// `counts` has `L` entries for [`TrialKind::Neurons`] and `L + 1` for
/// [`TrialKind::Synapses`].
///
/// Determinism: the per-trial seed derivation (plan draw, then the input
/// batch in row order) is unchanged from the scalar engine, and batched
/// row results are bitwise independent of batching — so campaign results
/// are identical for every `Parallelism` policy, and any reported worst
/// case replays exactly through a singleton batch (or re-derives from its
/// recorded [`WorstCase::seed`]).
///
/// # Panics
/// On count/shape mismatches (see the samplers).
pub fn run_campaign(
    net: &Mlp,
    counts: &[usize],
    kind: TrialKind,
    cfg: &CampaignConfig,
    policy: Parallelism,
) -> CampaignResult {
    merge_trials(run_campaign_trials(
        net, counts, kind, cfg, policy, 0, cfg.trials,
    ))
}

/// One trial's accumulated moments plus its own worst observation — the
/// shard-transportable unit of a campaign. A vector of these, in trial
/// order, carries everything [`merge_trials`] needs to reproduce
/// [`run_campaign`]'s result bitwise, which is what lets trial ranges be
/// computed anywhere (threads, processes, machines) and merged later.
pub type TrialResult = (OnlineStats, Option<WorstCase>);

/// Run trials `first .. first + count` of the campaign `cfg` describes,
/// returning one [`TrialResult`] per trial in trial order.
///
/// Trials are mutually independent — trial `t` depends on the campaign
/// only through its derived seed `SeedSequence::new(cfg.seed).seed_for(t)`
/// — so *any* partition of `0..cfg.trials` into ranges, computed under any
/// policy on any host, concatenates (in trial order) to the exact
/// per-trial vector a single [`run_campaign`] run produces. This is the
/// sharding primitive behind the fleet's distributed campaign scheduler.
///
/// # Panics
/// On count/shape mismatches (see the samplers).
pub fn run_campaign_trials(
    net: &Mlp,
    counts: &[usize],
    kind: TrialKind,
    cfg: &CampaignConfig,
    policy: Parallelism,
    first: usize,
    count: usize,
) -> Vec<TrialResult> {
    let seeds = SeedSequence::new(cfg.seed);
    let d = net.input_dim();
    parallel_map(policy, count, |i| {
        let t = first + i;
        let trial_seed = seeds.seed_for(t as u64);
        let mut rng = det_rng(trial_seed);
        let plan = match kind {
            TrialKind::Neurons(spec) => sample_neuron_plan(net, counts, spec, &mut rng),
            TrialKind::Synapses { byzantine } => {
                sample_synapse_plan(net, counts, byzantine, cfg.capacity, &mut rng)
            }
        };
        let compiled = CompiledPlan::compile(&plan, net, cfg.capacity)
            .expect("sampler produced an invalid plan");
        // Inputs are drawn in row-major stream order (identical to the
        // scalar engine's draw order), one MAX_EVAL_BATCH chunk at a time,
        // each evaluated before the next is drawn — per-worker memory is
        // O(MAX_EVAL_BATCH · d + Σ N_l) no matter how large the trial is.
        // Drawing and evaluation never interleave on the RNG, and rows are
        // bitwise independent of the batch they ride in, so chunking never
        // changes a result. Each chunk runs the suffix engine: nominal
        // pass computed once, faulty pass resumed at the plan's first
        // faulty layer — `output_error_batch` at fewer flops.
        let chunk_rows = cfg.inputs_per_trial.min(MAX_EVAL_BATCH);
        let mut ws_nominal = BatchWorkspace::for_net(net, chunk_rows);
        let mut ws_scratch = BatchWorkspace::for_net(net, chunk_rows);
        let mut stats = OnlineStats::new();
        let mut worst: Option<WorstCase> = None;
        let mut remaining = cfg.inputs_per_trial;
        while remaining > 0 {
            let n = remaining.min(MAX_EVAL_BATCH);
            let mut chunk = Matrix::zeros(n, d);
            for xi in chunk.data_mut() {
                *xi = rand::Rng::gen_range(&mut rng, 0.0..=1.0);
            }
            let errors =
                compiled.output_error_resumed(net, &chunk, &mut ws_nominal, &mut ws_scratch);
            for (b, &err) in errors.iter().enumerate() {
                stats.push(err);
                if worst.as_ref().map(|w| err > w.error).unwrap_or(true) {
                    worst = Some(WorstCase {
                        error: err,
                        input: chunk.row(b).to_vec(),
                        plan: plan.clone(),
                        trial: t,
                        seed: trial_seed,
                    });
                }
            }
            remaining -= n;
        }
        (stats, worst)
    })
}

/// Fold per-trial results (in trial order) into a [`CampaignResult`] —
/// the exact accumulation [`run_campaign`] performs. Stats merge with
/// Chan's pairwise update in the given order, and the worst case is the
/// first strictly-greatest disturbance in trial order, so a scheduler
/// that collects shards out of order only has to sort them by trial index
/// (each [`WorstCase`] records its own) to reproduce the single-run
/// result bit for bit — merge *arrival* order is irrelevant.
pub fn merge_trials(per_trial: Vec<TrialResult>) -> CampaignResult {
    let mut stats = OnlineStats::new();
    let mut worst: Option<WorstCase> = None;
    for (s, w) in per_trial {
        stats.merge(&s);
        if let Some(w) = w {
            if worst.as_ref().map(|b| w.error > b.error).unwrap_or(true) {
                worst = Some(w);
            }
        }
    }
    CampaignResult {
        stats: stats.summary(),
        worst,
        evaluations: stats.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_core::{crash_fep, Capacity, NetworkProfile};
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn net() -> Mlp {
        MlpBuilder::new(2)
            .dense(8, Activation::Sigmoid { k: 1.0 })
            .dense(5, Activation::Sigmoid { k: 1.0 })
            .init(Init::Uniform { a: 0.4 })
            .bias(false)
            .build(&mut rng(60))
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let net = net();
        let cfg = CampaignConfig {
            trials: 24,
            inputs_per_trial: 8,
            ..CampaignConfig::default()
        };
        let a = run_campaign(
            &net,
            &[2, 1],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Sequential,
        );
        let b = run_campaign(
            &net,
            &[2, 1],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Threads(4),
        );
        assert_eq!(a.max_error(), b.max_error());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.stats.mean, b.stats.mean);
    }

    #[test]
    fn sharded_trial_ranges_merge_bitwise_equal_to_one_run() {
        // The distributed-campaign contract: any partition of the trial
        // range, computed independently and merged in trial order,
        // reproduces the single-run result bit for bit.
        let net = net();
        let cfg = CampaignConfig {
            trials: 23,
            inputs_per_trial: 6,
            ..CampaignConfig::default()
        };
        let whole = run_campaign(
            &net,
            &[2, 1],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Sequential,
        );
        for splits in [vec![23], vec![9, 14], vec![5, 5, 5, 8], vec![1; 23]] {
            let mut per_trial = Vec::new();
            let mut first = 0;
            for count in splits {
                per_trial.extend(run_campaign_trials(
                    &net,
                    &[2, 1],
                    TrialKind::Neurons(FaultSpec::Crash),
                    &cfg,
                    Parallelism::Sequential,
                    first,
                    count,
                ));
                first += count;
            }
            let merged = merge_trials(per_trial);
            assert_eq!(merged.stats.mean.to_bits(), whole.stats.mean.to_bits());
            assert_eq!(
                merged.stats.std_dev.to_bits(),
                whole.stats.std_dev.to_bits()
            );
            assert_eq!(merged.evaluations, whole.evaluations);
            assert_eq!(merged.worst, whole.worst);
        }
    }

    #[test]
    fn observed_errors_respect_crash_fep_bound() {
        // The soundness property at campaign scale: every observation is
        // below the analytic Fep bound for the injected distribution.
        let net = net();
        let profile = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap();
        let counts = [2usize, 1];
        let bound = crash_fep(&profile, &counts);
        let cfg = CampaignConfig {
            trials: 50,
            inputs_per_trial: 16,
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &net,
            &counts,
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Sequential,
        );
        assert!(res.evaluations == 800);
        assert!(
            res.max_error() <= bound,
            "measured {} exceeds bound {bound}",
            res.max_error()
        );
        assert!(res.max_error() > 0.0, "faults should disturb the output");
    }

    #[test]
    fn byzantine_campaign_respects_strict_fep_bound() {
        // NOTE: the *strict* magnitude C + sup ϕ, not the paper's C — a
        // Byzantine value v with |v| ≤ C deviates from the nominal y by up
        // to C + sup ϕ (reproduction finding #2, DESIGN.md §2).
        let net = net();
        let profile = NetworkProfile::from_mlp(&net, Capacity::Bounded(2.0)).unwrap();
        let counts = [1usize, 1];
        let bound = neurofail_core::fep::fep_for(
            &profile,
            &counts,
            neurofail_core::FaultClass::ByzantineStrict,
        );
        let cfg = CampaignConfig {
            trials: 40,
            inputs_per_trial: 8,
            capacity: 2.0,
            ..CampaignConfig::default()
        };
        for spec in [
            FaultSpec::ByzantineMaxPositive,
            FaultSpec::ByzantineMaxNegative,
            FaultSpec::ByzantineRandom,
            FaultSpec::ByzantineOpposeNominal,
        ] {
            let res = run_campaign(
                &net,
                &counts,
                TrialKind::Neurons(spec),
                &cfg,
                Parallelism::Sequential,
            );
            assert!(
                res.max_error() <= bound,
                "{spec:?}: measured {} exceeds bound {bound}",
                res.max_error()
            );
        }
    }

    #[test]
    fn chunked_trials_report_a_replayable_worst_case() {
        // inputs_per_trial above MAX_EVAL_BATCH forces the bounded-memory
        // chunked path; the reported worst (plan, input) must still replay
        // bitwise (guards the chunk→row index mapping).
        let net = MlpBuilder::new(2)
            .dense(4, Activation::Sigmoid { k: 1.0 })
            .init(Init::Uniform { a: 0.4 })
            .bias(false)
            .build(&mut rng(61));
        let cfg = CampaignConfig {
            trials: 2,
            inputs_per_trial: MAX_EVAL_BATCH + 77,
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &net,
            &[1],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Sequential,
        );
        assert_eq!(res.evaluations, 2 * (MAX_EVAL_BATCH as u64 + 77));
        let worst = res.worst.expect("faults were injected");
        let compiled = CompiledPlan::compile(&worst.plan, &net, cfg.capacity).unwrap();
        let single = neurofail_tensor::Matrix::from_vec(1, 2, worst.input.clone());
        let mut ws = neurofail_nn::BatchWorkspace::for_net(&net, 1);
        let replay = compiled.output_error_batch(&net, &single, &mut ws);
        assert_eq!(replay[0], worst.error);
    }

    #[test]
    fn replaying_a_worst_case_from_its_seed_rederives_plan_and_input() {
        // The standalone-replay contract of WorstCase::{trial, seed}: with
        // only the campaign *config knowledge* (net, counts, kind,
        // capacity) and the recorded seed, re-running the single trial's
        // draw sequence regenerates the reported plan and input exactly,
        // and the reported error replays bitwise — no campaign rerun.
        let net = net();
        let cfg = CampaignConfig {
            trials: 16,
            inputs_per_trial: 12,
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &net,
            &[2, 1],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Threads(3),
        );
        let worst = res.worst.expect("faults were injected");
        // The recorded seed is the trial's derived seed.
        assert_eq!(
            worst.seed,
            SeedSequence::new(cfg.seed).seed_for(worst.trial as u64)
        );
        // Re-derive: plan first, then inputs in row-major stream order.
        let mut rng = det_rng(worst.seed);
        let plan = sample_neuron_plan(&net, &[2, 1], FaultSpec::Crash, &mut rng);
        assert_eq!(plan, worst.plan, "plan re-derivation diverged");
        let d = net.input_dim();
        let mut inputs = Matrix::zeros(cfg.inputs_per_trial, d);
        for xi in inputs.data_mut() {
            *xi = rand::Rng::gen_range(&mut rng, 0.0..=1.0);
        }
        let row = (0..cfg.inputs_per_trial)
            .find(|&r| inputs.row(r) == worst.input.as_slice())
            .expect("worst input must appear in the re-drawn stream");
        // And the value replays bitwise as a singleton batch.
        let compiled = CompiledPlan::compile(&plan, &net, cfg.capacity).unwrap();
        let single = Matrix::from_vec(1, d, inputs.row(row).to_vec());
        let mut ws = BatchWorkspace::for_net(&net, 1);
        let replay = compiled.output_error_batch(&net, &single, &mut ws);
        assert_eq!(replay[0].to_bits(), worst.error.to_bits());
    }

    #[test]
    fn zero_fault_campaign_measures_zero() {
        let net = net();
        let cfg = CampaignConfig {
            trials: 5,
            inputs_per_trial: 4,
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &net,
            &[0, 0],
            TrialKind::Neurons(FaultSpec::Crash),
            &cfg,
            Parallelism::Sequential,
        );
        assert_eq!(res.max_error(), 0.0);
        assert_eq!(res.stats.mean, 0.0);
    }
}
