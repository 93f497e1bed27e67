//! Content-addressed nominal-checkpoint cache: skip even the *one*
//! nominal pass.
//!
//! The suffix engine ([`crate::multi`]) already shares one nominal pass
//! across a plan family — but every new evaluation over the same input
//! set still pays that one pass. Tolerance/threshold searches re-evaluate
//! the same Halton/grid probe sets across ε′ (or capacity) iterations,
//! repeated campaigns re-certify fixed input sets, and
//! [`PlanRegistry::eval_many`](crate::PlanRegistry::eval_many) calls
//! arrive over long-lived input sets. [`CheckpointCache`] memoises the
//! nominal checkpoint itself, keyed by **(network identity, input-set
//! content hash)**: a hit returns the stored [`BatchWorkspace`] taps and
//! nominal outputs, so the whole evaluation reduces to per-plan faulty
//! suffixes.
//!
//! ## Key semantics and the determinism contract
//!
//! * **Network identity is content**, not address: a [`NetId`] — the
//!   network's canonical bytes and their checksum — so two `Arc<Mlp>`
//!   handles with bitwise-equal parameters share a checkpoint, and a
//!   deserialised or re-cloned network hits the entries its original
//!   populated. Each entry keeps its network's `NetId`, computed once. A
//!   lookup whose `Arc` is pointer-equal to a resident entry's is that
//!   entry's network and computes no identity (the entry's strong
//!   reference keeps the pointee alive and unmodifiable, so a recycled
//!   address can never alias a different network); any other handle has
//!   its `NetId` computed once and matched by hash, then bytes.
//! * **Input-set content hash**: [`input_set_hash`] folds the dimensions
//!   and the raw f64 *bit patterns* of the input matrix (FNV-1a over
//!   64-bit words, SplitMix64-finalised). Bitwise-equal input sets — the
//!   only kind for which reusing a checkpoint is bitwise-sound — always
//!   collide onto the same key; numerically equal but bitwise distinct
//!   sets (`-0.0` vs `0.0`) deliberately do not.
//! * The hashes are the *index*, not the proof: every entry stores its
//!   input set and its network's bytes, and a hit verifies both bitwise,
//!   so a 64-bit hash collision degrades to a miss, never to a wrong
//!   checkpoint. Cached results are therefore **bitwise** equal to
//!   cold-path evaluation, and eviction can never change a value — only
//!   cost (`tests/incremental_equivalence.rs`).
//!
//! Eviction is LRU over a fixed entry capacity; [`CacheStats`] reports
//! hits, misses, evictions, resident bytes, and the layer-rows of nominal
//! recomputation hits avoided.
//!
//! ## The disk tier
//!
//! [`CheckpointCache::attach_store`] adds a persistent
//! [`ArtifactStore`] below the memory tier:
//! lookups go **memory → disk → compute**, computed checkpoints are
//! written through, and a verified disk hit is promoted to memory. Disk
//! hits count as [`CacheStats::store_hits`] (and as hits in the returned
//! [`CachedCheckpoint::hit`] flag — the nominal pass was skipped), never
//! as misses. The store applies the same bitwise-verification rule as
//! the memory tier, so all three paths return bitwise-identical values
//! (`tests/store_equivalence.rs`), and a corrupted store degrades to the
//! compute path (`tests/store_corruption.rs`).

use std::sync::Arc;

use neurofail_nn::{BatchWorkspace, Mlp, NetId};
use neurofail_tensor::io::checksum64_words;
use neurofail_tensor::Matrix;

use crate::executor::CompiledPlan;
use crate::store::{ArtifactStore, StoreStats};

/// Content hash of an input set: dimensions plus every element's raw bit
/// pattern, folded by [`checksum64_words`]. A pure function of the
/// matrix's bits — equal bits always hash equal, so bitwise-identical
/// input sets address the same cache slot on any host and any run.
pub fn input_set_hash(xs: &Matrix) -> u64 {
    let bits = xs.data().iter().map(|v| v.to_bits());
    checksum64_words([xs.rows() as u64, xs.cols() as u64].into_iter().chain(bits))
}

/// The content hash of a network: [`NetId::hash`]. Builds a whole
/// [`NetId`] to answer, so callers that look up a network repeatedly
/// keep the `NetId` instead.
pub fn net_content_hash(net: &Mlp) -> u64 {
    NetId::of(net).hash()
}

/// One resident checkpoint: the `(net, xs)` witness pair plus the nominal
/// taps and outputs a pass over them produced.
#[derive(Debug)]
struct CacheEntry {
    net: Arc<Mlp>,
    /// The network half of the key, computed once for `net`.
    id: NetId,
    /// [`input_set_hash`] of `xs`.
    hash: u64,
    /// The exact input set the checkpoint was computed over — the bitwise
    /// witness a hit is verified against (hash collisions degrade to
    /// misses).
    xs: Matrix,
    ws: BatchWorkspace,
    nominal_y: Vec<f64>,
    last_used: u64,
    bytes: usize,
}

/// A borrowed view of a cached (or just-computed) nominal checkpoint.
#[derive(Debug)]
pub struct CachedCheckpoint<'a> {
    /// The nominal per-layer taps (read-only by the aliasing rules —
    /// resume suffixes into a separate scratch workspace).
    pub ws: &'a BatchWorkspace,
    /// Nominal outputs `F_neu(x_b)`, row-aligned with the input set.
    pub nominal_y: &'a [f64],
    /// Whether the nominal pass was skipped: served from memory or from
    /// an attached disk tier (`false`: the pass just ran and the entry
    /// was inserted).
    pub hit: bool,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident checkpoint (nominal pass skipped).
    pub hits: u64,
    /// Lookups that had to run the nominal pass. A disk-tier hit is *not*
    /// a miss: the pass was skipped, just served from the store instead
    /// of memory.
    pub misses: u64,
    /// Lookups served from the attached [`ArtifactStore`] (nominal pass
    /// skipped, checkpoint rehydrated from disk and promoted to memory).
    /// Always 0 with no store attached.
    pub store_hits: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Checkpoints currently resident.
    pub entries: usize,
    /// Approximate resident payload bytes (taps + outputs + witness sets).
    pub bytes: usize,
    /// Layer-rows of nominal recomputation hits skipped: a hit over `B`
    /// rows through an `L`-layer network banks `L · B` (the
    /// [`prefix_rows_saved`](crate::MultiPlanEvaluator::prefix_rows_saved)
    /// accounting, applied to the nominal pass itself).
    pub nominal_rows_saved: u64,
}

/// An LRU cache of nominal batch checkpoints keyed by
/// `(network content hash, input-set content hash)` — two handles to
/// bitwise-equal networks share entries.
///
/// # Example
/// ```
/// use std::sync::Arc;
/// use neurofail_data::rng::rng;
/// use neurofail_inject::{CheckpointCache, CompiledPlan, InjectionPlan};
/// use neurofail_nn::{activation::Activation, BatchWorkspace, MlpBuilder};
/// use neurofail_tensor::{init::Init, Matrix};
///
/// let net = Arc::new(
///     MlpBuilder::new(2)
///         .dense(6, Activation::Sigmoid { k: 1.0 })
///         .init(Init::Xavier)
///         .build(&mut rng(5)),
/// );
/// let plan = CompiledPlan::compile(&InjectionPlan::crash([(0, 1)]), &net, 1.0).unwrap();
/// let xs = Matrix::from_fn(8, 2, |r, c| 0.1 * r as f64 + 0.07 * c as f64);
///
/// let mut cache = CheckpointCache::new(4);
/// let mut scratch = BatchWorkspace::default();
/// let cold = cache.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
/// let warm = cache.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
/// assert_eq!(cold, warm); // bitwise: the hit reuses the same checkpoint
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct CheckpointCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    store_hits: u64,
    evictions: u64,
    nominal_rows_saved: u64,
    /// Optional disk tier: consulted on memory misses, written through on
    /// computes. `None` keeps the cache purely in-memory (the PR 5
    /// behaviour, bit for bit).
    store: Option<ArtifactStore>,
}

impl CheckpointCache {
    /// A cache holding at most `capacity` checkpoints.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "CheckpointCache: capacity must be >= 1");
        CheckpointCache {
            capacity,
            entries: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            store_hits: 0,
            evictions: 0,
            nominal_rows_saved: 0,
            store: None,
        }
    }

    /// Attach a persistent [`ArtifactStore`] as the disk tier: lookups
    /// become memory → disk → compute, and computed checkpoints are
    /// written through (best effort — an I/O failure publishing never
    /// fails the evaluation). Returns the previously attached store.
    pub fn attach_store(&mut self, store: ArtifactStore) -> Option<ArtifactStore> {
        self.store.replace(store)
    }

    /// Detach and return the disk tier, reverting to memory-only.
    pub fn detach_store(&mut self) -> Option<ArtifactStore> {
        self.store.take()
    }

    /// Counters of the attached disk tier, if any.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The entry capacity this cache evicts against.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            store_hits: self.store_hits,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.entries.iter().map(|e| e.bytes).sum(),
            nominal_rows_saved: self.nominal_rows_saved,
        }
    }

    /// Drop every resident checkpoint (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Whether a checkpoint for `(net, xs)` is resident in memory right
    /// now — a guaranteed [`CheckpointCache::checkpoint`] hit. Pure read:
    /// no counters move, no recency updates, the disk tier is not
    /// consulted.
    pub fn contains(&self, net: &Arc<Mlp>, xs: &Matrix) -> bool {
        self.find(net, xs, input_set_hash(xs)).is_ok()
    }

    /// The resident entry for `(net, xs)`, or on a miss the network's
    /// identity, for the store calls and the new entry.
    fn find(&self, net: &Arc<Mlp>, xs: &Matrix, hash: u64) -> Result<usize, NetId> {
        let holds = |e: &CacheEntry| {
            e.hash == hash
                && e.xs.rows() == xs.rows()
                && e.xs.cols() == xs.cols()
                && e.xs
                    .data()
                    .iter()
                    .zip(xs.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        // An entry whose `Arc` is pointer-equal to the caller's holds the
        // same network: the entry's strong reference keeps the pointee
        // alive, and safe code cannot change it while it is shared
        // (`Arc::get_mut` returns `None`, `Arc::make_mut` clones). So the
        // entry's `NetId` is still the pointee's, and no identity needs
        // computing.
        let same_arc = |e: &CacheEntry| Arc::ptr_eq(&e.net, net);
        if let Some(i) = self.entries.iter().position(|e| same_arc(e) && holds(e)) {
            return Ok(i);
        }
        let id = match self.entries.iter().find(|e| same_arc(e)) {
            Some(e) => e.id.clone(),
            None => NetId::of(net),
        };
        // Any other handle: hashes index, bytes prove.
        self.entries
            .iter()
            .position(|e| e.id == id && holds(e))
            .ok_or(id)
    }

    /// Look up the nominal checkpoint for `(net, xs)`, running the
    /// nominal pass and inserting it on a miss. The returned view is
    /// bitwise identical either way — a hit only changes cost.
    pub fn checkpoint(&mut self, net: &Arc<Mlp>, xs: &Matrix) -> CachedCheckpoint<'_> {
        let hash = input_set_hash(xs);
        self.tick += 1;
        let (idx, hit) = match self.find(net, xs, hash) {
            Ok(idx) => {
                self.hits += 1;
                self.nominal_rows_saved += (net.depth() * xs.rows()) as u64;
                self.entries[idx].last_used = self.tick;
                (idx, true)
            }
            Err(id) => {
                // Disk tier, before any entry mutation: a verified store
                // hit skips the nominal pass exactly like a memory hit,
                // and the rehydrated checkpoint is promoted to memory.
                let store_hit = self.store.as_mut().and_then(|s| {
                    let mut ws = BatchWorkspace::default();
                    s.load_checkpoint_with_id(net, &id, xs, &mut ws)
                        .map(|y| (ws, y))
                });
                let from_store = store_hit.is_some();
                if !from_store {
                    self.misses += 1;
                    // Chaos site: a panic here models the cache dying
                    // mid-insert (before any entry mutation besides the
                    // counters), so a caller that recovers the unwind can
                    // retry cleanly.
                    neurofail_par::failpoint!("cache::insert");
                }
                // Reuse the evicted entry's buffers where possible: the
                // steady state of a search alternating a few input sets
                // through a small cache is then allocation-free.
                let evicted_ws = if self.entries.len() >= self.capacity {
                    self.evictions += 1;
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("capacity >= 1");
                    Some(self.entries.swap_remove(lru).ws)
                } else {
                    None
                };
                let (ws, nominal_y) = match store_hit {
                    Some((ws, y)) => {
                        self.store_hits += 1;
                        self.nominal_rows_saved += (net.depth() * xs.rows()) as u64;
                        (ws, y)
                    }
                    None => {
                        let mut ws = evicted_ws.unwrap_or_default();
                        let y = net.forward_batch(xs, &mut ws);
                        // Write through, best effort: a full disk or torn
                        // publish can cost a future warm start, never the
                        // current evaluation.
                        if let Some(store) = &mut self.store {
                            let _ = store.publish_checkpoint_with_id(net, &id, xs, &ws, &y);
                        }
                        (ws, y)
                    }
                };
                let tap_elems: usize = ws.sums.iter().map(|m| m.data().len()).sum::<usize>()
                    + ws.outs.iter().map(|m| m.data().len()).sum::<usize>();
                let bytes =
                    (tap_elems + nominal_y.len() + xs.data().len()) * std::mem::size_of::<f64>();
                self.entries.push(CacheEntry {
                    net: Arc::clone(net),
                    id,
                    hash,
                    xs: xs.clone(),
                    ws,
                    nominal_y,
                    last_used: self.tick,
                    bytes,
                });
                // A disk-tier hit reports as a hit: the nominal pass was
                // skipped, which is the only thing `hit` promises.
                (self.entries.len() - 1, from_store)
            }
        };
        let entry = &self.entries[idx];
        CachedCheckpoint {
            ws: &entry.ws,
            nominal_y: &entry.nominal_y,
            hit,
        }
    }

    /// [`output_error_many`](crate::output_error_many) through the cache:
    /// evaluate a plan family over `xs` with the nominal pass served from
    /// cache when `(net, xs)` was seen before. Returns one disturbance
    /// vector per plan, each **bitwise** equal to the corresponding
    /// per-plan
    /// [`CompiledPlan::output_error_batch`] call; `scratch` absorbs the
    /// suffix recomputation (allocation-free once grown).
    pub fn output_error_many(
        &mut self,
        net: &Arc<Mlp>,
        xs: &Matrix,
        plans: &[CompiledPlan],
        scratch: &mut BatchWorkspace,
    ) -> Vec<Vec<f64>> {
        let ck = self.checkpoint(net, xs);
        plans
            .iter()
            .map(|plan| plan.output_error_checkpointed(net, xs, ck.ws, ck.nominal_y, scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::InjectionPlan;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_nn::Layer;
    use neurofail_tensor::init::Init;

    fn net(seed: u64) -> Arc<Mlp> {
        Arc::new(
            MlpBuilder::new(2)
                .dense(5, Activation::Sigmoid { k: 1.0 })
                .dense(4, Activation::Tanh { k: 0.8 })
                .init(Init::Xavier)
                .build(&mut rng(seed)),
        )
    }

    fn points(seed: u64, rows: usize) -> Matrix {
        Matrix::from_fn(rows, 2, |r, c| {
            0.13 * (r as f64 + seed as f64) - 0.4 + 0.09 * c as f64
        })
    }

    #[test]
    fn hash_is_content_addressed() {
        let a = points(1, 6);
        let mut b = points(1, 6);
        assert_eq!(input_set_hash(&a), input_set_hash(&b));
        // Flip one ulp: numerically invisible, but content-distinct.
        b.set(3, 1, f64::from_bits(b.get(3, 1).to_bits() ^ 1));
        assert_ne!(input_set_hash(&a), input_set_hash(&b));
        // Sign-of-zero is content: -0.0 and 0.0 hash apart.
        let z = Matrix::zeros(1, 1);
        let nz = Matrix::from_vec(1, 1, vec![-0.0]);
        assert_ne!(input_set_hash(&z), input_set_hash(&nz));
        // Shape is content too (a 2x3 and a 3x2 of equal data differ).
        let flat = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let tall = Matrix::from_vec(3, 2, vec![1.0; 6]);
        assert_ne!(input_set_hash(&flat), input_set_hash(&tall));
        // Store records are keyed by these values: pinned.
        let xs = Matrix::from_vec(2, 2, vec![0.5, -0.25, 0.0, -0.0]);
        assert_eq!(input_set_hash(&xs), 0x6fe5_e223_9539_46bb);
        assert_eq!(input_set_hash(&Matrix::zeros(0, 3)), 0x7c7d_fef4_15f4_b1f8);
    }

    #[test]
    fn hits_are_bitwise_and_counted() {
        let net = net(3);
        let plan = CompiledPlan::compile(&InjectionPlan::crash([(1, 2)]), &net, 1.0).unwrap();
        let xs = points(0, 7);
        let mut cache = CheckpointCache::new(2);
        let mut scratch = BatchWorkspace::default();
        let cold = cache.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
        let warm = cache.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
        for (c, w) in cold[0].iter().zip(&warm[0]) {
            assert_eq!(c.to_bits(), w.to_bits());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.nominal_rows_saved, (net.depth() * 7) as u64);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn distinct_nets_and_inputs_do_not_collide() {
        let net_a = net(1);
        let net_b = net(2);
        let xs = points(0, 4);
        let mut cache = CheckpointCache::new(4);
        assert!(!cache.checkpoint(&net_a, &xs).hit);
        assert!(!cache.checkpoint(&net_b, &xs).hit, "net content is key");
        assert!(!cache.checkpoint(&net_a, &points(9, 4)).hit);
        assert!(cache.checkpoint(&net_a, &xs).hit);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn lru_eviction_is_value_transparent() {
        let net = net(4);
        let plan = CompiledPlan::compile(&InjectionPlan::crash([(0, 0)]), &net, 1.0).unwrap();
        let (a, b) = (points(0, 5), points(1, 5));
        let mut scratch = BatchWorkspace::default();
        let mut ws = BatchWorkspace::default();
        let direct_a = plan.output_error_batch(&net, &a, &mut ws);
        let direct_b = plan.output_error_batch(&net, &b, &mut ws);
        // Capacity 1: alternating sets evicts on every switch, yet every
        // answer stays bitwise the cold path.
        let mut cache = CheckpointCache::new(1);
        for _ in 0..3 {
            for (xs, direct) in [(&a, &direct_a), (&b, &direct_b)] {
                let got =
                    cache.output_error_many(&net, xs, std::slice::from_ref(&plan), &mut scratch);
                for (g, d) in got[0].iter().zip(direct) {
                    assert_eq!(g.to_bits(), d.to_bits());
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 0, "capacity 1 + alternation = no reuse");
        assert_eq!(stats.evictions, 5);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn content_equal_handles_hit_and_perturbed_parameters_miss() {
        let net_a = net(7);
        let xs = points(2, 5);
        let mut cache = CheckpointCache::new(4);
        assert!(!cache.checkpoint(&net_a, &xs).hit);

        // A distinct Arc over a bitwise-equal clone is the same key: a
        // reloaded/re-cloned network reuses the original's checkpoint.
        let net_clone = Arc::new((*net_a).clone());
        assert!(!Arc::ptr_eq(&net_a, &net_clone));
        assert_eq!(net_content_hash(&net_a), net_content_hash(&net_clone));
        assert!(cache.contains(&net_clone, &xs));
        assert!(
            cache.checkpoint(&net_clone, &xs).hit,
            "content-equal handle must hit"
        );

        // One ulp on one weight is a different network: key changes, miss.
        let mut perturbed = (*net_a).clone();
        if let Layer::Dense(d) = &mut perturbed.layers_mut()[0] {
            let w = d.weights().get(0, 0);
            d.weights_mut().set(0, 0, f64::from_bits(w.to_bits() ^ 1));
        } else {
            unreachable!("test net is dense");
        }
        let perturbed = Arc::new(perturbed);
        assert_ne!(net_content_hash(&net_a), net_content_hash(&perturbed));
        assert!(
            !cache.checkpoint(&perturbed, &xs).hit,
            "one-ulp weight flip must miss"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn empty_input_sets_are_cacheable() {
        let net = net(5);
        let xs = Matrix::zeros(0, 2);
        let mut cache = CheckpointCache::new(2);
        assert!(!cache.checkpoint(&net, &xs).hit);
        let ck = cache.checkpoint(&net, &xs);
        assert!(ck.hit);
        assert!(ck.nominal_y.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = CheckpointCache::new(0);
    }

    #[test]
    fn disk_tier_serves_fresh_caches_without_a_nominal_pass() {
        let dir = std::env::temp_dir().join(format!("nf-cache-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = net(11);
        let plan = CompiledPlan::compile(&InjectionPlan::crash([(0, 1)]), &net, 1.0).unwrap();
        let xs = points(3, 6);
        let mut scratch = BatchWorkspace::default();

        // Cache A computes once (write-through publishes to the store).
        let mut cache_a = CheckpointCache::new(4);
        cache_a.attach_store(crate::ArtifactStore::open(&dir).unwrap());
        let cold = cache_a.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
        let a = cache_a.stats();
        assert_eq!((a.misses, a.store_hits), (1, 0));
        assert_eq!(cache_a.store_stats().unwrap().inserts, 1);
        drop(cache_a);

        // A fresh cache over the same store: zero nominal passes, bitwise
        // the same values, accounted as a store hit.
        let mut cache_b = CheckpointCache::new(4);
        cache_b.attach_store(crate::ArtifactStore::open(&dir).unwrap());
        let warm = cache_b.output_error_many(&net, &xs, std::slice::from_ref(&plan), &mut scratch);
        for (c, w) in cold[0].iter().zip(&warm[0]) {
            assert_eq!(c.to_bits(), w.to_bits());
        }
        let b = cache_b.stats();
        assert_eq!((b.misses, b.store_hits, b.hits), (0, 1, 0));
        assert_eq!(b.nominal_rows_saved, (net.depth() * 6) as u64);
        // The disk hit was promoted: the next lookup is a memory hit.
        assert!(cache_b.checkpoint(&net, &xs).hit);
        assert_eq!(cache_b.stats().hits, 1);
        // Detaching reverts to memory-only.
        assert!(cache_b.detach_store().is_some());
        assert!(cache_b.store_stats().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
