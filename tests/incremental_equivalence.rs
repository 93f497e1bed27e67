//! Input-incremental engine equivalence — the appendable-checkpoint and
//! checkpoint-cache contracts, checked at workspace level:
//!
//! * a checkpoint grown chunk by chunk (`Mlp::extend_batch`) is
//!   **bitwise** identical — outputs and every per-layer tap — to one
//!   filled by a single full-batch pass, for every chunking of the input
//!   set (0/1/odd chunk sizes included);
//! * a stream looked up prefix by prefix through one `CheckpointCache`
//!   (each lookup extending the previous prefix's entry) evaluates
//!   bitwise equal to per-plan `output_error_batch` over that prefix,
//!   across random nets, every fault kind, every chunking and every
//!   `Parallelism` policy;
//! * `CheckpointCache` hits return values bitwise equal to the cold
//!   path, and LRU eviction never changes a value — only cost.

use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::inject::plan::{
    InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite, SynapseTarget,
};
use neurofail::inject::{ByzantineStrategy, CheckpointCache, CompiledPlan};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp, NoBatchTap};
use neurofail::par::{parallel_map, Parallelism};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

/// Random network from a compact recipe (mirrors `suffix_equivalence.rs`).
fn build_net(seed: u64, depth: usize, width: usize, tanh: bool, bias: bool) -> Mlp {
    let act = if tanh {
        Activation::Tanh { k: 0.9 }
    } else {
        Activation::Sigmoid { k: 1.1 }
    };
    let mut b = MlpBuilder::new(3);
    for i in 0..depth {
        b = b.dense(width + (i % 3), act);
    }
    b.init(Init::Uniform { a: 0.5 })
        .bias(bias)
        .build(&mut rng(seed))
}

fn random_inputs(seed: u64, batch: usize, d: usize) -> Matrix {
    let mut r = rng(seed ^ 0xA11C);
    Matrix::from_fn(batch, d, |_, _| r.gen_range(-1.0..=1.0))
}

/// Chunk row-ranges of `rows` under one of four chunking shapes,
/// including empty chunks and chunk size 1.
fn chunkings(rows: usize) -> Vec<Vec<usize>> {
    let mut shapes = vec![
        vec![rows],                     // one chunk
        (0..rows).map(|_| 1).collect(), // row at a time
    ];
    // Odd-sized chunks with an empty one in the middle.
    let mut odd = Vec::new();
    let mut left = rows;
    while left > 0 {
        let take = left.min(3);
        odd.push(take);
        left -= take;
        if odd.len() == 1 {
            odd.push(0);
        }
    }
    shapes.push(odd);
    // Front-loaded split.
    if rows >= 2 {
        shapes.push(vec![rows - 1, 1]);
    }
    shapes
}

fn chunk_of(xs: &Matrix, start: usize, rows: usize) -> Matrix {
    Matrix::from_fn(rows, xs.cols(), |r, c| xs.get(start + r, c))
}

/// The growing prefixes a chunked stream presents: after each chunk, the
/// rows seen so far.
fn prefixes(xs: &Matrix, shape: &[usize]) -> Vec<Matrix> {
    let mut end = 0;
    shape
        .iter()
        .map(|rows| {
            end += rows;
            chunk_of(xs, 0, end)
        })
        .collect()
}

/// A plan family touching every fault kind and every depth of `net`.
fn plan_family(net: &Mlp, seed: u64) -> Vec<InjectionPlan> {
    let widths = net.widths();
    let last = widths.len() - 1;
    vec![
        InjectionPlan::none(),
        InjectionPlan::crash([(0, 0)]),
        InjectionPlan::crash([(last, widths[last] - 1)]),
        InjectionPlan::byzantine([(last, 0)], ByzantineStrategy::OpposeNominal),
        InjectionPlan::byzantine([(0, 1 % widths[0])], ByzantineStrategy::Random { seed }),
        InjectionPlan {
            neurons: vec![NeuronSite {
                layer: last,
                neuron: 0,
                fault: NeuronFault::StuckAt(0.3),
            }],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: last,
                    to: 0,
                    from: 0,
                },
                fault: SynapseFault::Crash,
            }],
        },
        InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: 0,
                    to: 0,
                    from: 1,
                },
                fault: SynapseFault::Byzantine(0.4),
            }],
        },
        InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Output { from: 0 },
                fault: SynapseFault::Crash,
            }],
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Extend-vs-recompute: a chunk-grown nominal checkpoint equals a
    /// full-batch pass bitwise — outputs, per-layer taps, and its
    /// validity as a resume source.
    #[test]
    fn extended_checkpoint_is_bitwise_a_full_pass(
        seed in 0u64..1000,
        depth in 1usize..5,
        width in 3usize..10,
        rows in 0usize..12,
        tanh in proptest::bool::ANY,
        bias in proptest::bool::ANY,
    ) {
        let net = build_net(seed, depth, width, tanh, bias);
        let xs = random_inputs(seed, rows, 3);
        let mut full_ws = BatchWorkspace::for_net(&net, rows);
        let full = net.forward_batch(&xs, &mut full_ws);
        for (shape_idx, shape) in chunkings(rows).into_iter().enumerate() {
            let mut ws = BatchWorkspace::default();
            let mut scratch = BatchWorkspace::default();
            let mut ys = Vec::new();
            let mut start = 0;
            for rows_in_chunk in shape {
                let chunk = chunk_of(&xs, start, rows_in_chunk);
                ys.extend(net.extend_batch_with(&mut ws, &mut scratch, &mut NoBatchTap, &chunk));
                start += rows_in_chunk;
            }
            prop_assert_eq!(start, rows, "chunking {} must cover the batch", shape_idx);
            if ws.batch() == 0 && ws.sums.len() != net.depth() {
                // A zero-chunk shape never touched the workspace; there
                // is no checkpoint to compare (only possible at rows 0).
                prop_assert_eq!(rows, 0);
                continue;
            }
            prop_assert_eq!(ws.batch(), rows);
            for (b, (a, e)) in full.iter().zip(&ys).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), e.to_bits(),
                    "chunking {}, row {}: full {:e} vs extended {:e}", shape_idx, b, a, e
                );
            }
            for l in 0..net.depth() {
                prop_assert_eq!(&ws.sums[l], &full_ws.sums[l], "chunking {}, layer {} sums", shape_idx, l);
                prop_assert_eq!(&ws.outs[l], &full_ws.outs[l], "chunking {}, layer {} outs", shape_idx, l);
            }
        }
    }

    /// A stream looked up prefix by prefix through one cache — each
    /// lookup extending the entry the previous prefix left — evaluates
    /// bitwise equal to per-plan batch evaluation over each prefix, for
    /// every chunking and every fault kind.
    #[test]
    fn streaming_is_bitwise_per_plan_batches(
        seed in 0u64..1000,
        depth in 1usize..5,
        width in 3usize..9,
        rows in 0usize..10,
        tanh in proptest::bool::ANY,
    ) {
        let net = Arc::new(build_net(seed, depth, width, tanh, true));
        let plans: Vec<CompiledPlan> = plan_family(&net, seed)
            .iter()
            .map(|p| CompiledPlan::compile(p, &net, 1.0).unwrap())
            .collect();
        let xs = random_inputs(seed, rows, 3);
        let mut ws = BatchWorkspace::default();
        for (shape_idx, shape) in chunkings(rows).into_iter().enumerate() {
            let mut cache = CheckpointCache::new(1);
            let mut scratch = BatchWorkspace::default();
            for prefix in prefixes(&xs, &shape) {
                let got = cache.output_error_many(&net, &prefix, &plans, &mut scratch);
                for (pi, (g, plan)) in got.iter().zip(&plans).enumerate() {
                    let direct = plan.output_error_batch(&net, &prefix, &mut ws);
                    prop_assert_eq!(g.len(), direct.len());
                    for (b, (gv, dv)) in g.iter().zip(&direct).enumerate() {
                        prop_assert_eq!(
                            gv.to_bits(), dv.to_bits(),
                            "chunking {}, prefix {}, plan {}, row {}",
                            shape_idx, prefix.rows(), pi, b
                        );
                    }
                }
            }
            // Every non-empty chunk after the first non-empty one grew
            // the entry instead of missing.
            let grown = shape.iter().filter(|&&r| r > 0).count().saturating_sub(1);
            prop_assert_eq!(cache.stats().extensions, grown as u64, "chunking {}", shape_idx);
        }
    }

    /// Cache extension is deterministic under parallel use: one cache per
    /// worker under any `Parallelism` policy reproduces the sequential
    /// stream bitwise.
    #[test]
    fn streaming_is_bitwise_across_parallelism_policies(
        seed in 0u64..500,
        depth in 2usize..5,
        width in 3usize..8,
        rows in 1usize..8,
    ) {
        let net = Arc::new(build_net(seed, depth, width, false, false));
        let plans: Vec<CompiledPlan> = plan_family(&net, seed)
            .iter()
            .map(|p| CompiledPlan::compile(p, &net, 1.0).unwrap())
            .collect();
        let xs = random_inputs(seed, rows, 3);
        let stream = prefixes(&xs, &[rows / 2, rows - rows / 2]);
        let run = || -> Vec<Vec<Vec<f64>>> {
            let mut cache = CheckpointCache::new(1);
            let mut scratch = BatchWorkspace::default();
            stream
                .iter()
                .map(|prefix| cache.output_error_many(&net, prefix, &plans, &mut scratch))
                .collect()
        };
        let reference = run();
        for policy in [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Threads(5)] {
            let workers: Vec<Vec<Vec<Vec<f64>>>> = parallel_map(policy, 4, |_| run());
            for (wi, per_worker) in workers.iter().enumerate() {
                prop_assert_eq!(per_worker.len(), reference.len());
                for (ci, (p, r)) in per_worker.iter().zip(&reference).enumerate() {
                    for (pi, (pp, rr)) in p.iter().zip(r).enumerate() {
                        for (b, (a, c)) in pp.iter().zip(rr).enumerate() {
                            prop_assert_eq!(
                                a.to_bits(), c.to_bits(),
                                "policy {:?}, worker {}, prefix {}, plan {}, row {}",
                                policy, wi, ci, pi, b
                            );
                        }
                    }
                }
            }
        }
    }

    /// Cache hits are bitwise cold-path values, and eviction churn never
    /// changes a value.
    #[test]
    fn cache_hits_and_evictions_are_value_transparent(
        seed in 0u64..1000,
        depth in 1usize..4,
        width in 3usize..8,
        rows in 0usize..9,
        capacity in 1usize..4,
    ) {
        let net = Arc::new(build_net(seed, depth, width, false, true));
        let plans: Vec<CompiledPlan> = plan_family(&net, seed)
            .iter()
            .map(|p| CompiledPlan::compile(p, &net, 1.0).unwrap())
            .collect();
        let sets: Vec<Matrix> = (0..3)
            .map(|i| random_inputs(seed.wrapping_add(i), rows, 3))
            .collect();
        let mut ws = BatchWorkspace::default();
        let direct: Vec<Vec<Vec<f64>>> = sets
            .iter()
            .map(|xs| plans.iter().map(|p| p.output_error_batch(&net, xs, &mut ws)).collect())
            .collect();
        // Cycle the sets through a small cache twice: depending on the
        // capacity this mixes hits, misses and evictions — values must
        // not care.
        let mut cache = CheckpointCache::new(capacity);
        let mut scratch = BatchWorkspace::default();
        for round in 0..2 {
            for (si, xs) in sets.iter().enumerate() {
                let got = cache.output_error_many(&net, xs, &plans, &mut scratch);
                for (pi, (g, d)) in got.iter().zip(&direct[si]).enumerate() {
                    for (b, (gv, dv)) in g.iter().zip(d).enumerate() {
                        prop_assert_eq!(
                            gv.to_bits(), dv.to_bits(),
                            "round {}, set {}, plan {}, row {}", round, si, pi, b
                        );
                    }
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, 6);
        prop_assert!(stats.entries <= capacity);
        if capacity >= 3 {
            // Everything fits: the second round is all hits.
            prop_assert_eq!(stats.hits, 3);
            prop_assert_eq!(stats.evictions, 0);
        } else {
            prop_assert!(stats.evictions > 0);
        }
    }
}

/// The cache's accounting proves a hit skips the nominal pass: the
/// layer-rows banked equal depth × rows per hit, mirroring the suffix
/// engine's `prefix_rows_saved` accounting.
#[test]
fn cache_accounting_counts_skipped_nominal_passes() {
    let net = Arc::new(build_net(77, 3, 6, false, true));
    let plan = CompiledPlan::compile(&InjectionPlan::crash([(2, 1)]), &net, 1.0).unwrap();
    let xs = random_inputs(77, 8, 3);
    let mut cache = CheckpointCache::new(2);
    let mut scratch = BatchWorkspace::default();
    for _ in 0..4 {
        let _ = cache.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 3));
    assert_eq!(stats.nominal_rows_saved, 3 * 3 * 8); // hits × depth × rows
    assert!(stats.bytes > 0);
}

/// Streaming accounting: a stream of `n` chunks looked up prefix by
/// prefix over an L-layer net misses once, then extends: the nominal work
/// saved equals (held rows at each arrival) × L, and no lookup is a hit.
#[test]
fn streaming_accounting_matches_the_cost_model() {
    let net = Arc::new(build_net(91, 4, 5, true, false));
    let plans = vec![CompiledPlan::compile(&InjectionPlan::none(), &net, 1.0).unwrap()];
    let xs = random_inputs(91, 10, 3);
    let mut cache = CheckpointCache::new(1);
    let mut scratch = BatchWorkspace::default();
    for prefix in prefixes(&xs, &[2; 5]) {
        let _ = cache.output_error_many(&net, &prefix, &plans, &mut scratch);
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.extensions, stats.hits, stats.store_hits),
        (1, 4, 0, 0)
    );
    // Held rows at each arrival: 0, 2, 4, 6, 8 → 20 rows × depth 4.
    assert_eq!(stats.nominal_rows_saved, 20 * 4);
    assert_eq!((stats.entries, stats.evictions), (1, 0));
}
