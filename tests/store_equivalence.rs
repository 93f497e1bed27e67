//! Persistent-store equivalence — the disk tier's central contract,
//! checked at workspace level:
//!
//! * evaluating through a store-backed [`CheckpointCache`] is **bitwise**
//!   identical to the memory-only cache and to cold uncached compute,
//!   across random networks, input sets and chunkings;
//! * a *fresh* cache over a populated store serves every lookup from disk
//!   — zero nominal passes, with exact `misses`/`store_hits`/
//!   `nominal_rows_saved` accounting (the warm-start contract);
//! * a repeated `measured_crash_thresholds` search over a populated store
//!   runs without a single nominal pass and reproduces the cold search
//!   bitwise;
//! * byte-budget eviction is value-transparent: evicted keys recompute to
//!   the same bits, and no eviction ever produces a verify reject.

use std::path::PathBuf;
use std::sync::Arc;

use neurofail::core::measured_crash_thresholds;
use neurofail::data::rng::rng;
use neurofail::inject::{
    ArtifactStore, ByzantineStrategy, CheckpointCache, InjectionPlan, PlanId, PlanRegistry,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

/// Random network from a compact recipe (mirrors `serve_equivalence.rs`).
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

/// A small family of plans exercising every fault kind over one net.
fn build_registry(net: Arc<Mlp>, seed: u64) -> (PlanRegistry, Vec<PlanId>) {
    let widths = net.widths();
    let mut reg = PlanRegistry::new();
    let ids = vec![
        reg.register(Arc::clone(&net), &InjectionPlan::none(), 1.0)
            .unwrap(),
        reg.register(
            Arc::clone(&net),
            &InjectionPlan::crash([(0, 0), (0, widths[0] - 1)]),
            1.0,
        )
        .unwrap(),
        reg.register(
            Arc::clone(&net),
            &InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::Random { seed }),
            1.0,
        )
        .unwrap(),
    ];
    (reg, ids)
}

/// Deterministic random probe set.
fn probes(seed: u64, rows: usize) -> Matrix {
    let mut r = rng(seed ^ 0xA9C3);
    Matrix::from_fn(rows, 3, |_, _| r.gen_range(-1.0..=1.0))
}

/// A per-test scratch directory, removed by the caller.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf-store-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Memory tier, disk tier and cold compute agree bitwise for any
    /// random net, input set, and chunking of that input set — and a
    /// fresh cache over the populated store serves every chunk without a
    /// nominal pass.
    #[test]
    fn disk_memory_and_cold_compute_agree_bitwise(
        seed in 0u64..500,
        depth in 1usize..4,
        width in 3usize..9,
        rows in 1usize..20,
        chunk in 1usize..8,
    ) {
        let dir = store_dir("prop");
        let net = Arc::new(build_net(seed, depth, width));
        let (reg, ids) = build_registry(Arc::clone(&net), seed);
        let xs = probes(seed, rows);
        let cold = reg.eval_many(&ids, &xs);

        // Memory-only cache: bitwise the cold engine, cold then warm.
        let mut scratch = BatchWorkspace::default();
        let mut mem = CheckpointCache::new(4);
        for _ in 0..2 {
            let got = reg.eval_many_cached(&ids, &xs, &mut mem, &mut scratch);
            for (g, c) in got.iter().zip(&cold) {
                for (gv, cv) in g.iter().zip(c) {
                    prop_assert_eq!(gv.to_bits(), cv.to_bits(), "memory tier");
                }
            }
        }

        // Store-backed cache, evaluated chunk by chunk: each chunk is its
        // own content-addressed key; all of them publish.
        let chunks: Vec<Matrix> = (0..rows)
            .step_by(chunk)
            .map(|r0| {
                let r1 = (r0 + chunk).min(rows);
                Matrix::from_fn(r1 - r0, 3, |r, c| xs.get(r0 + r, c))
            })
            .collect();
        let mut warm_cache = CheckpointCache::new(chunks.len().max(1));
        warm_cache.attach_store(ArtifactStore::open(&dir).unwrap());
        for cxs in &chunks {
            reg.eval_many_cached(&ids, cxs, &mut warm_cache, &mut scratch);
        }
        prop_assert_eq!(warm_cache.stats().misses as usize, chunks.len());
        prop_assert_eq!(warm_cache.stats().store_hits, 0);
        drop(warm_cache); // flushes the store index

        // A fresh cache over a fresh handle to the same directory — the
        // situation a restarted process is in — serves every chunk from
        // disk, and the concatenation is bitwise the whole-set cold run.
        let mut fresh = CheckpointCache::new(chunks.len().max(1));
        fresh.attach_store(ArtifactStore::open(&dir).unwrap());
        let mut row0 = 0usize;
        for cxs in &chunks {
            let got = reg.eval_many_cached(&ids, cxs, &mut fresh, &mut scratch);
            for (g, c) in got.iter().zip(&cold) {
                for (r, gv) in g.iter().enumerate() {
                    prop_assert_eq!(
                        gv.to_bits(),
                        c[row0 + r].to_bits(),
                        "disk tier, chunk row {}",
                        row0 + r
                    );
                }
            }
            row0 += cxs.rows();
        }
        let stats = fresh.stats();
        prop_assert_eq!(stats.misses, 0, "warm run must not compute");
        prop_assert_eq!(stats.store_hits as usize, chunks.len());
        prop_assert_eq!(
            stats.nominal_rows_saved as usize,
            rows * net.depth(),
            "exact rows x depth reuse accounting"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A repeated `measured_crash_thresholds` search over a populated store
/// reproduces the cold search bitwise with **zero** nominal passes — the
/// warm-start contract for campaign-side consumers.
#[test]
fn warm_measured_search_runs_without_a_nominal_pass() {
    let dir = store_dir("measured");
    let net = Arc::new(build_net(7, 2, 6));
    let xs = probes(7, 9);
    let eps_primes = [0.05, 0.2, 0.5];

    let mut cold_cache = CheckpointCache::new(2);
    cold_cache.attach_store(ArtifactStore::open(&dir).unwrap());
    let cold = measured_crash_thresholds(&net, 0, &xs, 1.0, &eps_primes, 1.0, &mut cold_cache);
    assert_eq!(cold_cache.stats().misses, 1, "cold search computes once");
    drop(cold_cache);

    // Fresh cache, fresh store handle: the search never runs a forward
    // pass, and every reported threshold is bitwise the cold search's.
    let mut warm_cache = CheckpointCache::new(2);
    warm_cache.attach_store(ArtifactStore::open(&dir).unwrap());
    let warm = measured_crash_thresholds(&net, 0, &xs, 1.0, &eps_primes, 1.0, &mut warm_cache);
    let stats = warm_cache.stats();
    assert_eq!(stats.misses, 0, "warm search must not compute");
    assert_eq!(stats.store_hits, 1, "one disk hit resolves the search");
    // Every per-k resolution of the checkpoint saved a nominal pass: one
    // from disk, the rest from memory — all multiples of rows × depth.
    let pass = (xs.rows() * net.depth()) as u64;
    assert!(stats.nominal_rows_saved >= pass && stats.nominal_rows_saved.is_multiple_of(pass));
    let store = warm_cache.store_stats().expect("store attached");
    assert_eq!((store.hits, store.misses, store.verify_rejects), (1, 0, 0));
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.eps_prime.to_bits(), w.eps_prime.to_bits());
        assert_eq!(c.max_faults, w.max_faults);
        assert_eq!(c.worst_error.to_bits(), w.worst_error.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-budget eviction is value-transparent: whatever the store evicted,
/// every evaluation stays bitwise equal to cold compute (evicted keys
/// simply recompute), and eviction never manufactures a verify reject.
#[test]
fn eviction_is_value_transparent() {
    let dir = store_dir("evict");
    let net = Arc::new(build_net(11, 2, 5));
    let (reg, ids) = build_registry(Arc::clone(&net), 11);
    let mut scratch = BatchWorkspace::default();
    let sets: Vec<Matrix> = (0..8).map(|i| probes(100 + i, 5)).collect();
    let cold: Vec<Vec<Vec<f64>>> = sets.iter().map(|xs| reg.eval_many(&ids, xs)).collect();

    // A budget that holds roughly two checkpoints forces steady eviction
    // while the eight input sets cycle twice through the store.
    let mut cache = CheckpointCache::new(1); // memory tier too small to help
    cache.attach_store(
        ArtifactStore::open(&dir)
            .unwrap()
            .with_byte_budget(8 * 1024),
    );
    for round in 0..2 {
        for (i, xs) in sets.iter().enumerate() {
            let got = reg.eval_many_cached(&ids, xs, &mut cache, &mut scratch);
            for (g, c) in got.iter().zip(&cold[i]) {
                for (gv, cv) in g.iter().zip(c) {
                    assert_eq!(gv.to_bits(), cv.to_bits(), "round {round}, set {i}");
                }
            }
        }
    }
    let store = cache.store_stats().expect("store attached");
    assert!(store.evictions > 0, "budget small enough to evict");
    assert_eq!(store.verify_rejects, 0, "eviction never corrupts");
    assert!(store.bytes <= 8 * 1024, "budget respected");
    let _ = std::fs::remove_dir_all(&dir);
}
