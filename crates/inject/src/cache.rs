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
//! suffixes. It is the one path by which consumers that revisit input
//! sets get their nominal pass: `eval_many_cached`, `core::measured`'s
//! searches, and every serving worker (a cache of one per worker, over
//! its shard's shared store).
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
//! hits, extensions, misses, evictions, resident bytes, and the
//! layer-rows of nominal recomputation the cache avoided.
//!
//! ## Prefix extension
//!
//! Re-certification traffic resubmits a probe set plus newly arrived
//! inputs, in order. On an exact miss, a lookup whose input set *starts*
//! bitwise with a resident entry's (same network, at least one row; the
//! longest such entry wins) grows that entry in place by only the new
//! rows ([`Mlp::extend_batch_with`]) and re-keys it to the grown set.
//! Contract 9 (appendable checkpoints) makes the grown entry bitwise
//! equal to a full pass over the grown set, so an extension changes cost,
//! never a value. Extensions count in [`CacheStats::extensions`], and the
//! prefix rows × depth they skipped in
//! [`CacheStats::nominal_rows_saved`].
//!
//! ## The disk tier
//!
//! [`CheckpointCache::attach_store`] adds a persistent [`ArtifactStore`]
//! below the memory tier, and
//! [`CheckpointCache::attach_shared_store`] attaches one handle that
//! several caches share (a serving shard's workers). Lookups go
//! **memory → disk → compute**, computed and extended checkpoints are
//! written through, and a verified disk hit is promoted to memory. Disk
//! hits count as [`CacheStats::store_hits`], never as misses. The store
//! applies the same bitwise-verification rule as the memory tier, so all
//! paths return bitwise-identical values (`tests/store_equivalence.rs`),
//! and a corrupted store degrades to the compute path
//! (`tests/store_corruption.rs`).

use std::sync::{Arc, PoisonError};

use neurofail_nn::{BatchWorkspace, Mlp, NetId, NoBatchTap};
use neurofail_tensor::io::checksum64_words;
use neurofail_tensor::Matrix;

use crate::executor::CompiledPlan;
use crate::store::{share_store, ArtifactStore, SharedArtifactStore, StoreStats};

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

/// Whether two slices hold the same bit patterns.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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

impl CacheEntry {
    /// Whether this entry's input set is exactly `xs` (hash `hash`).
    fn holds(&self, xs: &Matrix, hash: u64) -> bool {
        self.hash == hash
            && self.xs.rows() == xs.rows()
            && self.xs.cols() == xs.cols()
            && bits_eq(self.xs.data(), xs.data())
    }

    /// Whether `xs` starts bitwise with this entry's input set and has
    /// more rows: an entry an extension can grow into `xs`.
    fn is_prefix_of(&self, xs: &Matrix) -> bool {
        let held = self.xs.data().len();
        self.xs.rows() >= 1
            && self.xs.rows() < xs.rows()
            && self.xs.cols() == xs.cols()
            && bits_eq(self.xs.data(), &xs.data()[..held])
    }

    /// Resident payload bytes: taps, outputs and the witness set.
    fn payload_bytes(&self) -> usize {
        let taps: usize = self
            .ws
            .sums
            .iter()
            .chain(&self.ws.outs)
            .map(|m| m.data().len())
            .sum();
        (taps + self.nominal_y.len() + self.xs.data().len()) * std::mem::size_of::<f64>()
    }
}

/// Where a lookup's checkpoint came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSource {
    /// A resident entry over exactly this input set: no nominal pass.
    Resident,
    /// A resident entry over the first `prefix_rows` rows, grown by a
    /// nominal pass over the remaining rows only.
    Extended {
        /// Rows the resident entry already held.
        prefix_rows: usize,
    },
    /// A verified record of the attached store: no nominal pass.
    Store,
    /// A nominal pass over every row.
    Computed,
}

impl CheckpointSource {
    /// Rows of a `rows`-row lookup whose nominal pass this source
    /// skipped (times depth, the layer-rows saved).
    pub fn reused_rows(self, rows: usize) -> usize {
        match self {
            CheckpointSource::Resident | CheckpointSource::Store => rows,
            CheckpointSource::Extended { prefix_rows } => prefix_rows,
            CheckpointSource::Computed => 0,
        }
    }
}

/// A borrowed view of a cached (or just-computed) nominal checkpoint.
#[derive(Debug)]
pub struct CachedCheckpoint<'a> {
    /// The nominal per-layer taps (read-only by the aliasing rules —
    /// resume suffixes into a separate scratch workspace).
    pub ws: &'a BatchWorkspace,
    /// Nominal outputs `F_neu(x_b)`, row-aligned with the input set.
    pub nominal_y: &'a [f64],
    /// Where the checkpoint came from.
    pub source: CheckpointSource,
    /// Whether the lookup wrote a new record through to the attached
    /// store (a computed or extended checkpoint the store lacked).
    pub published: bool,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident checkpoint (nominal pass skipped).
    pub hits: u64,
    /// Lookups that had to run the nominal pass over every row. A
    /// disk-tier hit or an extension is *not* a miss.
    pub misses: u64,
    /// Lookups served from the attached [`ArtifactStore`] (nominal pass
    /// skipped, checkpoint rehydrated from disk and promoted to memory).
    /// Always 0 with no store attached.
    pub store_hits: u64,
    /// Lookups served by growing a resident prefix entry by the new rows
    /// only (see the [module docs](self)).
    pub extensions: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Checkpoints currently resident.
    pub entries: usize,
    /// Approximate resident payload bytes (taps + outputs + witness sets).
    pub bytes: usize,
    /// Layer-rows of nominal recomputation the cache skipped: a hit over
    /// `B` rows through an `L`-layer network banks `L · B`, an extension
    /// of a `P`-row prefix `L · P` (the
    /// [`prefix_rows_saved`](crate::MultiPlanEvaluator::prefix_rows_saved)
    /// accounting, applied to the nominal pass itself).
    pub nominal_rows_saved: u64,
}

/// How [`CheckpointCache::find`] resolved a lookup.
enum Found {
    /// A resident entry over exactly the input set.
    Exact(usize),
    /// The longest resident entry over a row-prefix of the input set.
    Prefix(usize),
    /// Nothing resident; the network's identity, for the store calls and
    /// the new entry.
    Miss(NetId),
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
///
/// // Two more rows after the same eight: the entry grows by two rows.
/// let mut grown = xs.clone();
/// grown.append_rows(&Matrix::from_fn(2, 2, |r, c| -0.3 * (r + c) as f64));
/// let more = cache.output_error_many(&net, &grown, std::slice::from_ref(&plan), &mut scratch);
/// assert_eq!(more[0][..8], cold[0][..]);
/// assert_eq!(cache.stats().extensions, 1);
/// ```
#[derive(Debug)]
pub struct CheckpointCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    store_hits: u64,
    extensions: u64,
    evictions: u64,
    nominal_rows_saved: u64,
    /// Optional disk tier: consulted on memory misses, written through on
    /// computes and extensions. `None` keeps the cache purely in-memory.
    store: Option<SharedArtifactStore>,
    /// Extension scratch: the new rows, and their nominal taps.
    tail: Matrix,
    grow: BatchWorkspace,
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
            extensions: 0,
            evictions: 0,
            nominal_rows_saved: 0,
            store: None,
            tail: Matrix::zeros(0, 0),
            grow: BatchWorkspace::default(),
        }
    }

    /// Attach a persistent [`ArtifactStore`] as the disk tier: lookups
    /// become memory → disk → compute, and computed checkpoints are
    /// written through (best effort — an I/O failure publishing never
    /// fails the evaluation). Returns the previously attached store, if
    /// this cache was its only holder.
    pub fn attach_store(&mut self, store: ArtifactStore) -> Option<ArtifactStore> {
        let prev = self.attach_shared_store(share_store(store))?;
        Arc::try_unwrap(prev)
            .ok()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
    }

    /// [`attach_store`](Self::attach_store) with a handle other caches
    /// may hold too: each sees the others' publishes. Returns the
    /// previously attached handle.
    pub fn attach_shared_store(
        &mut self,
        store: SharedArtifactStore,
    ) -> Option<SharedArtifactStore> {
        self.store.replace(store)
    }

    /// Counters of the attached disk tier, if any.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store
            .as_ref()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).stats())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            store_hits: self.store_hits,
            extensions: self.extensions,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.entries.iter().map(|e| e.bytes).sum(),
            nominal_rows_saved: self.nominal_rows_saved,
        }
    }

    /// Whether a checkpoint for exactly `(net, xs)` is resident in memory
    /// right now — a guaranteed [`CheckpointCache::checkpoint`] hit. Pure
    /// read: no counters move, no recency updates, the disk tier is not
    /// consulted.
    pub fn contains(&self, net: &Arc<Mlp>, xs: &Matrix) -> bool {
        matches!(
            self.find(net, None, xs, input_set_hash(xs)),
            Found::Exact(_)
        )
    }

    /// Resolve a lookup against the resident entries. `id`, when the
    /// caller holds it, is `NetId::of(net)`.
    fn find(&self, net: &Arc<Mlp>, id: Option<&NetId>, xs: &Matrix, hash: u64) -> Found {
        // An entry whose `Arc` is pointer-equal to the caller's holds the
        // same network: the entry's strong reference keeps the pointee
        // alive, and safe code cannot change it while it is shared
        // (`Arc::get_mut` returns `None`, `Arc::make_mut` clones). So the
        // entry's `NetId` is still the pointee's, and no identity needs
        // computing.
        let same_arc = |e: &CacheEntry| Arc::ptr_eq(&e.net, net);
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| same_arc(e) && e.holds(xs, hash))
        {
            return Found::Exact(i);
        }
        let id = match id.or_else(|| self.entries.iter().find(|e| same_arc(e)).map(|e| &e.id)) {
            Some(id) => id.clone(),
            None => NetId::of(net),
        };
        // Any other handle: hashes index, bytes prove.
        let same_net = |e: &CacheEntry| same_arc(e) || e.id == id;
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.holds(xs, hash) && same_net(e))
        {
            return Found::Exact(i);
        }
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_prefix_of(xs) && same_net(e))
            .max_by_key(|(_, e)| e.xs.rows())
            .map_or(Found::Miss(id), |(i, _)| Found::Prefix(i))
    }

    /// Look up the nominal checkpoint for `(net, xs)`: a resident entry,
    /// a resident prefix grown by the new rows, a store record, or a
    /// nominal pass, inserted in that order of preference. The returned
    /// view is bitwise identical every way — the source only changes
    /// cost.
    pub fn checkpoint(&mut self, net: &Arc<Mlp>, xs: &Matrix) -> CachedCheckpoint<'_> {
        self.lookup(net, None, xs)
    }

    /// [`checkpoint`](Self::checkpoint) under the caller's
    /// `id == NetId::of(net)`: the lookup computes no network identity,
    /// even on a miss.
    pub fn checkpoint_with_id(
        &mut self,
        net: &Arc<Mlp>,
        id: &NetId,
        xs: &Matrix,
    ) -> CachedCheckpoint<'_> {
        self.lookup(net, Some(id), xs)
    }

    fn lookup(&mut self, net: &Arc<Mlp>, id: Option<&NetId>, xs: &Matrix) -> CachedCheckpoint<'_> {
        let hash = input_set_hash(xs);
        self.tick += 1;
        let (idx, source) = match self.find(net, id, xs, hash) {
            Found::Exact(idx) => {
                self.hits += 1;
                (idx, CheckpointSource::Resident)
            }
            Found::Prefix(idx) => {
                self.extensions += 1;
                self.extend(idx, net, xs, hash)
            }
            Found::Miss(id) => self.insert(net, id, xs, hash),
        };
        self.nominal_rows_saved += (source.reused_rows(xs.rows()) * net.depth()) as u64;
        self.entries[idx].last_used = self.tick;
        // Write through, best effort, once the entry is whole: a full disk
        // or a torn publish can cost a future warm start, never this
        // lookup's value.
        let published = matches!(
            source,
            CheckpointSource::Extended { .. } | CheckpointSource::Computed
        ) && self.write_through(idx);
        let entry = &self.entries[idx];
        CachedCheckpoint {
            ws: &entry.ws,
            nominal_y: &entry.nominal_y,
            source,
            published,
        }
    }

    /// Grow entry `idx` by the rows of `xs` past its own, and re-key it
    /// to `xs`. The entry is out of the table while it grows, so a panic
    /// mid-growth leaves a consistent (smaller) cache.
    fn extend(
        &mut self,
        idx: usize,
        net: &Mlp,
        xs: &Matrix,
        hash: u64,
    ) -> (usize, CheckpointSource) {
        let mut e = self.entries.swap_remove(idx);
        let held = e.xs.rows();
        let cols = xs.cols();
        self.tail.resize(xs.rows() - held, cols);
        self.tail
            .data_mut()
            .copy_from_slice(&xs.data()[held * cols..]);
        let ys = net.extend_batch_with(&mut e.ws, &mut self.grow, &mut NoBatchTap, &self.tail);
        e.xs.append_rows(&self.tail);
        e.nominal_y.extend_from_slice(&ys);
        e.hash = hash;
        e.bytes = e.payload_bytes();
        self.entries.push(e);
        (
            self.entries.len() - 1,
            CheckpointSource::Extended { prefix_rows: held },
        )
    }

    /// Insert the checkpoint for `(net, xs)` from the store or a nominal
    /// pass, into the LRU entry's buffers once the cache is full.
    fn insert(
        &mut self,
        net: &Arc<Mlp>,
        id: NetId,
        xs: &Matrix,
        hash: u64,
    ) -> (usize, CheckpointSource) {
        // Chaos site: a panic here models the cache dying as it starts an
        // insert, before any entry mutation, so a caller that recovers
        // the unwind can retry cleanly.
        neurofail_par::failpoint!("cache::insert");
        let (mut xs_buf, mut ws) = if self.entries.len() >= self.capacity {
            self.evictions += 1;
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity >= 1");
            let e = self.entries.swap_remove(lru);
            (e.xs, e.ws)
        } else {
            (Matrix::zeros(0, 0), BatchWorkspace::default())
        };
        // Disk tier first: a verified record skips the nominal pass
        // exactly like a memory hit, and is promoted to memory.
        let stored = self.store.as_ref().and_then(|s| {
            s.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .load_checkpoint_with_id(net, &id, xs, &mut ws)
        });
        let (nominal_y, source) = match stored {
            Some(y) => {
                self.store_hits += 1;
                (y, CheckpointSource::Store)
            }
            None => {
                self.misses += 1;
                (net.forward_batch(xs, &mut ws), CheckpointSource::Computed)
            }
        };
        xs_buf.resize(xs.rows(), xs.cols());
        xs_buf.data_mut().copy_from_slice(xs.data());
        let mut e = CacheEntry {
            net: Arc::clone(net),
            id,
            hash,
            xs: xs_buf,
            ws,
            nominal_y,
            last_used: self.tick,
            bytes: 0,
        };
        e.bytes = e.payload_bytes();
        self.entries.push(e);
        (self.entries.len() - 1, source)
    }

    /// Publish entry `idx` to the attached store; whether a new record
    /// was written. Every lock of the shared handle recovers poison: a
    /// holder that panicked mid-publish left a store contract 13 treats
    /// as valid.
    fn write_through(&self, idx: usize) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let e = &self.entries[idx];
        matches!(
            store
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .publish_checkpoint_with_id(&e.net, &e.id, &e.xs, &e.ws, &e.nominal_y),
            Ok(true)
        )
    }

    /// [`output_error_many`](crate::output_error_many) through the cache:
    /// evaluate a plan family over `xs` with the nominal pass served from
    /// cache when `(net, xs)` — or a row-prefix of it — was seen before.
    /// Returns one disturbance vector per plan, each **bitwise** equal to
    /// the corresponding per-plan [`CompiledPlan::output_error_batch`]
    /// call; `scratch` absorbs the suffix recomputation (allocation-free
    /// once grown).
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
    use super::CheckpointSource::{Computed, Extended, Resident, Store};
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
        assert_eq!(cache.checkpoint(&net_a, &xs).source, Computed);
        assert_eq!(
            cache.checkpoint(&net_b, &xs).source,
            Computed,
            "net content is key"
        );
        assert_eq!(cache.checkpoint(&net_a, &points(9, 4)).source, Computed);
        assert_eq!(cache.checkpoint(&net_a, &xs).source, Resident);
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
    }

    #[test]
    fn content_equal_handles_hit_and_perturbed_parameters_miss() {
        let net_a = net(7);
        let xs = points(2, 5);
        let mut cache = CheckpointCache::new(4);
        assert_eq!(cache.checkpoint(&net_a, &xs).source, Computed);

        // A distinct Arc over a bitwise-equal clone is the same key: a
        // reloaded/re-cloned network reuses the original's checkpoint.
        let net_clone = Arc::new((*net_a).clone());
        assert!(!Arc::ptr_eq(&net_a, &net_clone));
        assert_eq!(net_content_hash(&net_a), net_content_hash(&net_clone));
        assert!(cache.contains(&net_clone, &xs));
        assert_eq!(
            cache.checkpoint(&net_clone, &xs).source,
            Resident,
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
        assert_eq!(
            cache.checkpoint(&perturbed, &xs).source,
            Computed,
            "one-ulp weight flip must miss"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn empty_input_sets_are_cacheable() {
        let net = net(5);
        let xs = Matrix::zeros(0, 2);
        let mut cache = CheckpointCache::new(2);
        assert_eq!(cache.checkpoint(&net, &xs).source, Computed);
        let ck = cache.checkpoint(&net, &xs);
        assert_eq!(ck.source, Resident);
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
        assert_eq!(cache_b.checkpoint(&net, &xs).source, Resident);
        assert_eq!(cache_b.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn rows_of(xs: &Matrix, rows: usize) -> Matrix {
        Matrix::from_fn(rows, xs.cols(), |r, c| xs.get(r, c))
    }

    #[test]
    fn prefix_extension_is_bitwise_and_counted() {
        let net = net(13);
        let xs = points(4, 9);
        let mut full = BatchWorkspace::default();
        let full_y = net.forward_batch(&xs, &mut full);
        let mut cache = CheckpointCache::new(2);
        // A longer set first, so the shorter one is its own entry.
        assert_eq!(cache.checkpoint(&net, &rows_of(&xs, 5)).source, Computed);
        assert_eq!(cache.checkpoint(&net, &rows_of(&xs, 3)).source, Computed);
        // Of the two resident prefixes, the longest grows by 4 rows.
        let ck = cache.checkpoint(&net, &xs);
        assert_eq!(ck.source, Extended { prefix_rows: 5 });
        assert!(!ck.published, "no store attached");
        assert!(bits_eq(ck.nominal_y, &full_y));
        for l in 0..net.depth() {
            assert!(bits_eq(ck.ws.sums[l].data(), full.sums[l].data()));
            assert!(bits_eq(ck.ws.outs[l].data(), full.outs[l].data()));
        }
        // Re-keyed to the grown set: an exact hit now.
        assert_eq!(cache.checkpoint(&net, &xs).source, Resident);
        let s = cache.stats();
        assert_eq!((s.misses, s.extensions, s.hits, s.entries), (2, 1, 1, 2));
        assert_eq!(s.nominal_rows_saved, ((5 + 9) * net.depth()) as u64);
        // A set differing in its first row extends nothing.
        let mut other = xs.clone();
        other.set(0, 0, 7.0);
        assert_eq!(cache.checkpoint(&net, &other).source, Computed);
    }

    #[test]
    fn extension_writes_through_and_a_fresh_cache_hits_it() {
        let dir = std::env::temp_dir().join(format!("nf-cache-extend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = net(17);
        let xs = points(6, 7);
        let mut cache_a = CheckpointCache::new(1);
        cache_a.attach_store(crate::ArtifactStore::open(&dir).unwrap());
        assert!(cache_a.checkpoint(&net, &rows_of(&xs, 4)).published);
        let grown = cache_a.checkpoint(&net, &xs);
        assert_eq!(grown.source, Extended { prefix_rows: 4 });
        assert!(grown.published, "the grown checkpoint is new content");
        let grown_y = grown.nominal_y.to_vec();
        assert_eq!(cache_a.store_stats().unwrap().inserts, 2);
        drop(cache_a);

        let mut cache_b = CheckpointCache::new(1);
        cache_b.attach_store(crate::ArtifactStore::open(&dir).unwrap());
        let warm = cache_b.checkpoint(&net, &xs);
        assert_eq!(warm.source, Store);
        assert!(!warm.published);
        assert!(bits_eq(warm.nominal_y, &grown_y));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caches_sharing_a_store_see_each_others_publishes() {
        let dir = std::env::temp_dir().join(format!("nf-cache-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = net(19);
        let (a, b) = (points(1, 5), points(2, 5));
        let shared = share_store(crate::ArtifactStore::open(&dir).unwrap());
        let mut one = CheckpointCache::new(2);
        let mut two = CheckpointCache::new(2);
        one.attach_shared_store(Arc::clone(&shared));
        two.attach_shared_store(Arc::clone(&shared));
        assert_eq!(one.checkpoint(&net, &a).source, Computed);
        assert_eq!(two.checkpoint(&net, &b).source, Computed);
        assert_eq!(two.checkpoint(&net, &a).source, Store, "one's publish");
        assert_eq!(one.checkpoint(&net, &b).source, Store, "two's publish");
        let s = shared.lock().unwrap().stats();
        assert_eq!((s.inserts, s.hits), (2, 2));
        // Both caches report the one store's counters.
        assert_eq!(one.store_stats(), two.store_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
