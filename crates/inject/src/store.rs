//! Persistent content-addressed artifact store: the checkpoint cache's
//! disk tier.
//!
//! [`CheckpointCache`](crate::CheckpointCache) removed the repeated
//! nominal pass *within* a process; this module removes it *across*
//! processes and restarts. An [`ArtifactStore`] is a directory of
//! fixed-layout binary records keyed by content — for nominal
//! checkpoints, by `(`[`NetId::hash`]`, `[`input_set_hash`]`)` — so
//! any consumer that evaluates the same network over the same input set
//! (a restarted search, a fresh serve worker, a second machine sharing a
//! filesystem) starts warm: the first query is served without a nominal
//! forward pass.
//!
//! ## Record format
//!
//! Every record is one file, `{kind:02x}-{net:016x}-{aux:016x}.rec`,
//! laid out as a 48-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic "NFART001"
//!      8     8  meta word: schema version (byte 0), record kind (byte 1),
//!               6 reserved bytes for future record kinds' use
//!     16     8  net content hash   (key: NetId::hash, little-endian)
//!     24     8  aux content hash   (input-set hash)
//!     32     8  payload length in bytes
//!     40     8  payload checksum   (io::checksum64: FNV-1a/SplitMix64)
//!     48     …  payload            (little-endian 64-bit words)
//! ```
//!
//! The store holds one record kind, `0` nominal checkpoint. The header
//! carries kind + reserved bytes precisely so new artifact kinds need no
//! format bump; kinds 1 and 2 (trained networks, compiled plans) were
//! written by older builds, are never read, and age out by LRU. A
//! checkpoint payload embeds the **full serialized network**
//! ([`NetId::bytes`]) and the full input set alongside the per-layer
//! taps, because the store inherits the cache's core rule: *hashes are
//! the index, never the proof*. A hit is admitted only after the header
//! keys, payload length, content checksum, stored network bytes, and
//! stored input-set bits all verify — so corruption, truncation, or a
//! 64-bit hash collision degrades to a **miss** (counted in
//! [`StoreStats::verify_rejects`]), never a wrong value. That is
//! ARCHITECTURE contract 13: a damaged store is bitwise-indistinguishable
//! from a cold store. (The checksum covers only the payload: a record
//! re-keyed to another network passes it and fails the network bytes.)
//! Records keyed by the pre-[`NetId`] network hash miss and age out by LRU.
//!
//! ## Durability discipline
//!
//! * **Atomic publish**: records are written to a `.tmp-<pid>-<seq>` file
//!   and `rename(2)`d into place. A writer killed mid-publish leaves
//!   either no record or a whole record — a stray temp file is swept on
//!   the next [`ArtifactStore::open`], never read.
//! * **Zero-copy reads**: records are read through
//!   [`MappedFile`] (`mmap` on Unix), validated in place, and the taps
//!   copied straight into the caller's [`BatchWorkspace`]. Reads take no
//!   lock: published records are immutable, and on Unix an unlinked
//!   file's pages stay valid under a live mapping, so eviction by another
//!   process cannot tear a read.
//! * **Assumption: no record is ever truncated in place.** The store's
//!   own writers only create, rename and unlink. A record truncated from
//!   outside while a reader has it mapped faults that reader (`SIGBUS`)
//!   instead of failing verification.
//! * **Cross-process exclusivity**: all mutations (publish, evict,
//!   index rewrite, temp sweep) serialize on an advisory `LOCK` file via
//!   [`std::fs::File::lock`]. The OS releases the lock when the holder
//!   dies, so readers and later writers never block on a stale lock.
//! * **Byte-budget LRU eviction**: an index file (`index.v1`, itself
//!   checksummed and rewritten atomically) persists sizes and recency;
//!   publishes evict least-recently-used records until the store fits
//!   [`ArtifactStore::set_byte_budget`]. The index is a cache of
//!   bookkeeping, not of truth: [`ArtifactStore::open`] always reconciles
//!   it against the directory, so a zeroed or stale index only costs
//!   recency information, never correctness.
//!
//! Chaos sites `store::publish_temp`, `store::publish_rename`, and
//! `store::index_rewrite` (armed through
//! `neurofail_par::failpoint::ChaosSchedule` under the
//! `failpoints` feature) kill writers deterministically at each stage of
//! a publish; `tests/store_corruption.rs` drives them to certify
//! contract 13.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use neurofail_nn::{BatchWorkspace, Mlp, NetId};
use neurofail_tensor::io::{checksum64, ByteReader, ByteWriter, DecodeError, MappedFile};
use neurofail_tensor::Matrix;

use crate::cache::input_set_hash;

/// Store format version carried in every record and index header.
pub const STORE_FORMAT_VERSION: u8 = 1;

/// Record kind: a nominal checkpoint (`BatchWorkspace` taps + outputs).
pub const KIND_CHECKPOINT: u8 = 0;

const MAGIC: u64 = u64::from_le_bytes(*b"NFART001");
const INDEX_MAGIC: u64 = u64::from_le_bytes(*b"NFIDX001");
const HEADER_BYTES: usize = 48;
const INDEX_FILE: &str = "index.v1";
const LOCK_FILE: &str = "LOCK";

/// Point-in-time store counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from a verified on-disk record.
    pub hits: u64,
    /// Lookups with no record on disk (including records evicted by a
    /// concurrent process between index check and open).
    pub misses: u64,
    /// Records rejected by verification — bad magic/version/keys, length
    /// or checksum mismatch, or stored network/input bits differing from
    /// the caller's. Each reject deletes the damaged record and degrades
    /// to a miss (contract 13).
    pub verify_rejects: u64,
    /// Records published by this handle.
    pub inserts: u64,
    /// Records removed by byte-budget LRU pressure.
    pub evictions: u64,
    /// Records currently indexed.
    pub entries: usize,
    /// Total record bytes currently indexed.
    pub bytes: u64,
    /// Layer-rows of nominal recomputation skipped by hits (the
    /// [`CacheStats::nominal_rows_saved`](crate::CacheStats::nominal_rows_saved)
    /// accounting, at the disk tier).
    pub nominal_rows_saved: u64,
}

/// One [`ArtifactStore`] handle shared by many owners: every
/// [`CheckpointCache`](crate::CheckpointCache) of a serving shard, and,
/// by opening the same directory again, later processes.
///
/// Every lock of the handle recovers a poisoned mutex
/// (`unwrap_or_else(PoisonError::into_inner)`): a holder that panics
/// mid-publish leaves at worst a stray temp file, which contract 13
/// already treats as a valid (cold) store.
pub type SharedArtifactStore = Arc<Mutex<ArtifactStore>>;

/// Wrap an opened store into a [`SharedArtifactStore`].
pub fn share_store(store: ArtifactStore) -> SharedArtifactStore {
    Arc::new(Mutex::new(store))
}

/// In-memory mirror of one index row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    kind: u8,
    net_hash: u64,
    aux_hash: u64,
    bytes: u64,
    last_used: u64,
}

/// A persistent content-addressed artifact store rooted at a directory.
///
/// Multiple handles — in one process or many — may share a directory:
/// mutations serialize on an advisory lock file, reads are lock-free, and
/// every hit is bitwise-verified, so the worst a concurrent mutation can
/// cause is a miss.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    byte_budget: u64,
    entries: Vec<IndexEntry>,
    tick: u64,
    temp_seq: u64,
    hits: u64,
    misses: u64,
    verify_rejects: u64,
    inserts: u64,
    evictions: u64,
    nominal_rows_saved: u64,
}

impl ArtifactStore {
    /// Open (creating if needed) the store rooted at `dir`.
    ///
    /// Takes the store lock once to sweep stale temp files and reconcile
    /// the index against the directory: rows whose record vanished are
    /// dropped, unindexed records are adopted (as least-recently-used),
    /// and a missing or corrupt index file is rebuilt from scratch — the
    /// directory is the ground truth, the index only bookkeeping.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = ArtifactStore {
            dir,
            byte_budget: u64::MAX,
            entries: Vec::new(),
            tick: 0,
            temp_seq: 0,
            hits: 0,
            misses: 0,
            verify_rejects: 0,
            inserts: 0,
            evictions: 0,
            nominal_rows_saved: 0,
        };
        let _lock = store.lock_exclusive()?;
        let indexed = store.read_index().unwrap_or_default();
        store.entries = store.reconcile(indexed)?;
        store.tick = store.entries.iter().map(|e| e.last_used).max().unwrap_or(0);
        store.write_index().ok(); // best effort; directory stays truth
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cap the store at `bytes` of record payload; the next mutation
    /// evicts least-recently-used records down to the cap. `u64::MAX`
    /// (the default) disables eviction.
    pub fn set_byte_budget(&mut self, bytes: u64) {
        self.byte_budget = bytes;
    }

    /// Builder-style [`set_byte_budget`](Self::set_byte_budget).
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.set_byte_budget(bytes);
        self
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits,
            misses: self.misses,
            verify_rejects: self.verify_rejects,
            inserts: self.inserts,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.entries.iter().map(|e| e.bytes).sum(),
            nominal_rows_saved: self.nominal_rows_saved,
        }
    }

    /// Look up the nominal checkpoint for `(net, xs)`. On a verified hit
    /// the taps are rehydrated into `ws` (reshaped to fit) and the
    /// nominal outputs returned — bitwise the values a fresh
    /// `forward_batch` would produce, by construction of the publish
    /// path's bitwise round trip. On any miss — no record, or a record
    /// that fails verification — returns `None` with `ws` contents
    /// unspecified, and the caller recomputes. Builds a [`NetId`]; a
    /// [`CheckpointCache`](crate::CheckpointCache) passes the one it holds.
    pub fn load_checkpoint(
        &mut self,
        net: &Mlp,
        xs: &Matrix,
        ws: &mut BatchWorkspace,
    ) -> Option<Vec<f64>> {
        self.load_checkpoint_with_id(net, &NetId::of(net), xs, ws)
    }

    /// [`load_checkpoint`](Self::load_checkpoint) under the caller's
    /// `id == NetId::of(net)`, hashing nothing.
    pub(crate) fn load_checkpoint_with_id(
        &mut self,
        net: &Mlp,
        id: &NetId,
        xs: &Matrix,
        ws: &mut BatchWorkspace,
    ) -> Option<Vec<f64>> {
        let nominal_y = self.load_record(KIND_CHECKPOINT, id.hash(), input_set_hash(xs), |r| {
            decode_checkpoint(r, net, id, xs, ws)
        })?;
        self.nominal_rows_saved += (net.depth() * xs.rows()) as u64;
        Some(nominal_y)
    }

    /// Publish the nominal checkpoint for `(net, xs)`: `ws` and
    /// `nominal_y` as produced by `net.forward_batch(xs, ws)`. Returns
    /// `Ok(false)` if an identically-keyed record already exists (content
    /// addressing makes re-publishing a no-op), `Ok(true)` once the
    /// record is durably renamed into place. Builds a [`NetId`]; a
    /// [`CheckpointCache`](crate::CheckpointCache) passes the one it holds.
    ///
    /// # Panics
    /// If `ws`/`nominal_y` are not shaped as a checkpoint of `(net, xs)`
    /// (caller contract — publishing a mismatched workspace would poison
    /// the store with a record that verifies but lies).
    pub fn publish_checkpoint(
        &mut self,
        net: &Mlp,
        xs: &Matrix,
        ws: &BatchWorkspace,
        nominal_y: &[f64],
    ) -> io::Result<bool> {
        self.publish_checkpoint_with_id(net, &NetId::of(net), xs, ws, nominal_y)
    }

    /// [`publish_checkpoint`](Self::publish_checkpoint) (same panics) under
    /// the caller's `id == NetId::of(net)`, hashing nothing.
    pub(crate) fn publish_checkpoint_with_id(
        &mut self,
        net: &Mlp,
        id: &NetId,
        xs: &Matrix,
        ws: &BatchWorkspace,
        nominal_y: &[f64],
    ) -> io::Result<bool> {
        assert_eq!(ws.sums.len(), net.depth(), "workspace depth mismatch");
        assert_eq!(nominal_y.len(), xs.rows(), "nominal output count mismatch");
        for (l, layer) in net.layers().iter().enumerate() {
            assert_eq!(
                (ws.sums[l].rows(), ws.sums[l].cols()),
                (xs.rows(), layer.out_dim()),
                "workspace layer {l} shape mismatch"
            );
        }
        let aux_hash = input_set_hash(xs);
        let mut w = ByteWriter::new();
        w.put_bytes(id.bytes());
        w.put_u64(xs.rows() as u64);
        w.put_u64(xs.cols() as u64);
        for &v in xs.data() {
            w.put_f64(v);
        }
        w.put_u64(net.depth() as u64);
        for l in 0..net.depth() {
            w.put_u64(ws.sums[l].cols() as u64);
            for &v in ws.sums[l].data() {
                w.put_f64(v);
            }
            for &v in ws.outs[l].data() {
                w.put_f64(v);
            }
        }
        w.put_f64_slice(nominal_y);
        self.publish_record(KIND_CHECKPOINT, id.hash(), aux_hash, &w.into_bytes())
    }

    /// Persist the index (sizes + recency) now. Called automatically on
    /// every publish and eviction; recency-only updates are persisted
    /// lazily (here and on drop), since losing them costs eviction
    /// *order*, never correctness.
    pub fn flush_index(&mut self) -> io::Result<()> {
        let _lock = self.lock_exclusive()?;
        self.write_index()
    }

    // ---- record plumbing ------------------------------------------------

    fn record_path(&self, kind: u8, net_hash: u64, aux_hash: u64) -> PathBuf {
        self.dir
            .join(format!("{kind:02x}-{net_hash:016x}-{aux_hash:016x}.rec"))
    }

    /// Open, validate and decode the record under a key. No file is a
    /// plain miss (a concurrent eviction may have won the race); a record
    /// that fails validation or `decode`, or has bytes left over, is a
    /// verify reject, quarantined so the storm is one reject per damage.
    fn load_record<T>(
        &mut self,
        kind: u8,
        net_hash: u64,
        aux_hash: u64,
        decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, DecodeError>,
    ) -> Option<T> {
        let path = self.record_path(kind, net_hash, aux_hash);
        let Ok(map) = MappedFile::open(&path) else {
            self.misses += 1;
            self.forget(kind, net_hash, aux_hash);
            return None;
        };
        let decoded = validate_record(map.bytes(), kind, net_hash, aux_hash).and_then(|payload| {
            let mut r = ByteReader::new(payload);
            let value = decode(&mut r)?;
            if !r.is_exhausted() {
                return Err(DecodeError("trailing bytes after record"));
            }
            Ok(value)
        });
        match decoded {
            Ok(value) => {
                self.hits += 1;
                self.touch(kind, net_hash, aux_hash, map.len() as u64);
                Some(value)
            }
            Err(_) => {
                self.verify_rejects += 1;
                self.quarantine(&path, kind, net_hash, aux_hash);
                None
            }
        }
    }

    /// Serialize a whole record and atomically publish it under the key.
    fn publish_record(
        &mut self,
        kind: u8,
        net_hash: u64,
        aux_hash: u64,
        payload: &[u8],
    ) -> io::Result<bool> {
        let path = self.record_path(kind, net_hash, aux_hash);
        let _lock = self.lock_exclusive()?;
        if let Ok(meta) = fs::metadata(&path) {
            // Already published (possibly by another process since we
            // opened): content addressing makes this a no-op. Adopt it.
            self.touch(kind, net_hash, aux_hash, meta.len());
            self.write_index()?;
            return Ok(false);
        }
        let mut header = ByteWriter::new();
        header.put_u64(MAGIC);
        header.put_u64(STORE_FORMAT_VERSION as u64 | (kind as u64) << 8);
        header.put_u64(net_hash);
        header.put_u64(aux_hash);
        header.put_u64(payload.len() as u64);
        header.put_u64(checksum64(payload));
        debug_assert_eq!(header.len(), HEADER_BYTES);

        // Header, then the payload from the caller's buffer: one copy of
        // a record that can run to megabytes.
        self.temp_seq += 1;
        let temp = self
            .dir
            .join(format!(".tmp-{}-{}", std::process::id(), self.temp_seq));
        let mut file = File::create(&temp)?;
        file.write_all(header.bytes())?;
        file.write_all(payload)?;
        drop(file);
        // Chaos site: a panic here is a torn publish — the temp file
        // exists but the record was never renamed into place. Readers
        // must see a cold store; open() sweeps the orphan.
        neurofail_par::failpoint!("store::publish_temp");
        fs::rename(&temp, &path)?;
        // Chaos site: record durably published, index not yet rewritten —
        // the reconcile at open() must adopt the record.
        neurofail_par::failpoint!("store::publish_rename");
        self.inserts += 1;
        let bytes = (HEADER_BYTES + payload.len()) as u64;
        self.touch(kind, net_hash, aux_hash, bytes);
        self.evict_over_budget(kind, net_hash, aux_hash);
        self.write_index()?;
        Ok(true)
    }

    /// Bump (or create) the in-memory index row for a key.
    fn touch(&mut self, kind: u8, net_hash: u64, aux_hash: u64, bytes: u64) {
        self.tick += 1;
        let tick = self.tick;
        match self
            .entries
            .iter_mut()
            .find(|e| e.kind == kind && e.net_hash == net_hash && e.aux_hash == aux_hash)
        {
            Some(e) => {
                e.last_used = tick;
                e.bytes = bytes;
            }
            None => self.entries.push(IndexEntry {
                kind,
                net_hash,
                aux_hash,
                bytes,
                last_used: tick,
            }),
        }
    }

    /// Drop a key from the in-memory index (no file I/O).
    fn forget(&mut self, kind: u8, net_hash: u64, aux_hash: u64) {
        self.entries
            .retain(|e| !(e.kind == kind && e.net_hash == net_hash && e.aux_hash == aux_hash));
    }

    /// Delete a damaged record and its index row (best effort — a second
    /// handle may have removed it first, which is equally a miss).
    fn quarantine(&mut self, path: &Path, kind: u8, net_hash: u64, aux_hash: u64) {
        self.forget(kind, net_hash, aux_hash);
        if let Ok(_lock) = self.lock_exclusive() {
            let _ = fs::remove_file(path);
            let _ = self.write_index();
        }
    }

    /// Evict least-recently-used records until within the byte budget,
    /// never evicting the just-touched `keep` key. Caller holds the lock.
    fn evict_over_budget(&mut self, keep_kind: u8, keep_net: u64, keep_aux: u64) {
        loop {
            let total: u64 = self.entries.iter().map(|e| e.bytes).sum();
            if total <= self.byte_budget {
                return;
            }
            let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    !(e.kind == keep_kind && e.net_hash == keep_net && e.aux_hash == keep_aux)
                })
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                return; // only the protected record remains
            };
            let e = self.entries.swap_remove(lru);
            let _ = fs::remove_file(self.record_path(e.kind, e.net_hash, e.aux_hash));
            self.evictions += 1;
        }
    }

    // ---- index + lock plumbing ------------------------------------------

    /// Acquire the advisory store lock (blocking). The returned handle
    /// releases the lock on drop — including on panic unwind, so a chaos
    /// kill inside a publish cannot wedge other handles (and the OS
    /// releases it outright if the whole process dies).
    fn lock_exclusive(&self) -> io::Result<File> {
        let f = File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.dir.join(LOCK_FILE))?;
        f.lock()?;
        Ok(f)
    }

    /// Parse the index file; `None` on any damage (caller rebuilds).
    fn read_index(&self) -> Option<Vec<IndexEntry>> {
        let bytes = fs::read(self.dir.join(INDEX_FILE)).ok()?;
        let mut r = ByteReader::new(&bytes);
        if r.get_u64().ok()? != INDEX_MAGIC {
            return None;
        }
        let stored_sum = r.get_u64().ok()?;
        let body = &bytes[16..];
        if checksum64(body) != stored_sum {
            return None;
        }
        let mut r = ByteReader::new(body);
        if r.get_u64().ok()? != STORE_FORMAT_VERSION as u64 {
            return None;
        }
        let count = r.get_len(40).ok()?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let word = r.get_u64().ok()?;
            entries.push(IndexEntry {
                kind: (word & 0xff) as u8,
                net_hash: r.get_u64().ok()?,
                aux_hash: r.get_u64().ok()?,
                bytes: r.get_u64().ok()?,
                last_used: r.get_u64().ok()?,
            });
        }
        r.is_exhausted().then_some(entries)
    }

    /// Atomically rewrite the index file from the in-memory entries.
    /// Caller holds the lock.
    fn write_index(&mut self) -> io::Result<()> {
        let mut body = ByteWriter::new();
        body.put_u64(STORE_FORMAT_VERSION as u64);
        body.put_u64(self.entries.len() as u64);
        for e in &self.entries {
            body.put_u64(e.kind as u64);
            body.put_u64(e.net_hash);
            body.put_u64(e.aux_hash);
            body.put_u64(e.bytes);
            body.put_u64(e.last_used);
        }
        let mut file = ByteWriter::new();
        file.put_u64(INDEX_MAGIC);
        file.put_u64(checksum64(body.bytes()));
        self.temp_seq += 1;
        let temp = self
            .dir
            .join(format!(".tmp-{}-{}", std::process::id(), self.temp_seq));
        let mut bytes = file.into_bytes();
        bytes.extend_from_slice(body.bytes());
        fs::write(&temp, &bytes)?;
        // Chaos site: index temp written but never renamed — the stale
        // index must still reconcile correctly at the next open().
        neurofail_par::failpoint!("store::index_rewrite");
        fs::rename(&temp, self.dir.join(INDEX_FILE))
    }

    /// Make the index agree with the directory: sweep temp files, drop
    /// rows for vanished records, adopt unindexed records (as LRU, so a
    /// lost index biases toward evicting records of unknown recency).
    fn reconcile(&self, indexed: Vec<IndexEntry>) -> io::Result<Vec<IndexEntry>> {
        let mut on_disk: Vec<(u8, u64, u64, u64)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(key) = parse_record_name(&name) {
                on_disk.push((key.0, key.1, key.2, entry.metadata()?.len()));
            }
        }
        let mut merged = Vec::with_capacity(on_disk.len());
        for (kind, net_hash, aux_hash, bytes) in on_disk {
            let last_used = indexed
                .iter()
                .find(|e| e.kind == kind && e.net_hash == net_hash && e.aux_hash == aux_hash)
                .map(|e| e.last_used)
                .unwrap_or(0);
            merged.push(IndexEntry {
                kind,
                net_hash,
                aux_hash,
                bytes,
                last_used,
            });
        }
        Ok(merged)
    }
}

impl Drop for ArtifactStore {
    fn drop(&mut self) {
        // Persist recency bookkeeping; failure only costs eviction order.
        let _ = self.flush_index();
    }
}

/// Parse `{kind:02x}-{net:016x}-{aux:016x}.rec`; `None` for foreign files.
fn parse_record_name(name: &str) -> Option<(u8, u64, u64)> {
    let stem = name.strip_suffix(".rec")?;
    let mut parts = stem.splitn(3, '-');
    let kind = u8::from_str_radix(parts.next()?, 16).ok()?;
    let net = parts.next().filter(|p| p.len() == 16)?;
    let aux = parts.next().filter(|p| p.len() == 16)?;
    Some((
        kind,
        u64::from_str_radix(net, 16).ok()?,
        u64::from_str_radix(aux, 16).ok()?,
    ))
}

/// Validate a record image's header and checksum against the expected
/// key, returning the payload slice. Every failure mode — short file,
/// wrong magic/version/kind, key mismatch, length mismatch, checksum
/// mismatch — is a [`DecodeError`], which the store maps to a miss.
fn validate_record(
    bytes: &[u8],
    kind: u8,
    net_hash: u64,
    aux_hash: u64,
) -> Result<&[u8], DecodeError> {
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError("record shorter than header"));
    }
    let mut r = ByteReader::new(bytes);
    if r.get_u64().expect("header") != MAGIC {
        return Err(DecodeError("bad record magic"));
    }
    let meta = r.get_u64().expect("header");
    if (meta & 0xff) as u8 != STORE_FORMAT_VERSION || ((meta >> 8) & 0xff) as u8 != kind {
        return Err(DecodeError("record version/kind mismatch"));
    }
    if r.get_u64().expect("header") != net_hash || r.get_u64().expect("header") != aux_hash {
        return Err(DecodeError("record key mismatch"));
    }
    let payload = &bytes[HEADER_BYTES..];
    if r.get_u64().expect("header") != payload.len() as u64 {
        return Err(DecodeError("record length mismatch"));
    }
    if r.get_u64().expect("header") != checksum64(payload) {
        return Err(DecodeError("record checksum mismatch"));
    }
    Ok(payload)
}

/// Verify and rehydrate a validated checkpoint payload: the stored
/// network bytes against the caller's `id`, the stored input set bitwise
/// against the caller's, and every shape against the network — only then
/// are the taps copied into `ws`.
fn decode_checkpoint(
    r: &mut ByteReader<'_>,
    net: &Mlp,
    id: &NetId,
    xs: &Matrix,
    ws: &mut BatchWorkspace,
) -> Result<Vec<f64>, DecodeError> {
    if r.get_bytes()? != id.bytes() {
        // A 64-bit net-hash collision (or targeted corruption that kept
        // the checksum valid): the record is for a *different* network.
        return Err(DecodeError("stored network differs"));
    }
    let rows = r.get_len(1)?;
    let cols = r.get_len(1)?;
    if rows != xs.rows() || cols != xs.cols() {
        return Err(DecodeError("stored input shape differs"));
    }
    for &v in xs.data() {
        if r.get_u64()? != v.to_bits() {
            return Err(DecodeError("stored input set differs"));
        }
    }
    if r.get_len(8)? != net.depth() {
        return Err(DecodeError("stored depth differs"));
    }
    ws.reshape(net, rows);
    for (l, layer) in net.layers().iter().enumerate() {
        if r.get_len(1)? != layer.out_dim() {
            return Err(DecodeError("stored layer width differs"));
        }
        for v in ws.sums[l].data_mut() {
            *v = r.get_f64()?;
        }
        for v in ws.outs[l].data_mut() {
            *v = r.get_f64()?;
        }
    }
    let nominal_y = r.get_f64_vec()?;
    if nominal_y.len() != rows {
        return Err(DecodeError("stored output count differs"));
    }
    Ok(nominal_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn net(seed: u64) -> Mlp {
        MlpBuilder::new(3)
            .dense(5, Activation::Sigmoid { k: 1.0 })
            .dense(4, Activation::Tanh { k: 0.7 })
            .init(Init::Xavier)
            .build(&mut rng(seed))
    }

    fn points(seed: u64, rows: usize) -> Matrix {
        Matrix::from_fn(rows, 3, |r, c| {
            0.11 * (r as f64 + seed as f64) - 0.3 + 0.07 * c as f64
        })
    }

    fn checkpoint_of(net: &Mlp, xs: &Matrix) -> (BatchWorkspace, Vec<f64>) {
        let mut ws = BatchWorkspace::default();
        let y = net.forward_batch(xs, &mut ws);
        (ws, y)
    }

    #[test]
    fn publish_then_load_is_bitwise() {
        let dir = tmp_dir("roundtrip");
        let net = net(1);
        let xs = points(0, 6);
        let (ws, y) = checkpoint_of(&net, &xs);
        let mut store = ArtifactStore::open(&dir).unwrap();
        assert!(store.publish_checkpoint(&net, &xs, &ws, &y).unwrap());
        assert!(
            !store.publish_checkpoint(&net, &xs, &ws, &y).unwrap(),
            "content addressing: re-publish is a no-op"
        );
        let mut out = BatchWorkspace::default();
        let got = store.load_checkpoint(&net, &xs, &mut out).expect("hit");
        for (g, e) in got.iter().zip(&y) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
        for l in 0..net.depth() {
            assert_eq!(out.sums[l].data(), ws.sums[l].data());
            assert_eq!(out.outs[l].data(), ws.outs[l].data());
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 0, 1, 1));
        assert_eq!(s.nominal_rows_saved, (net.depth() * 6) as u64);
        assert!(s.bytes > HEADER_BYTES as u64);
        // A second handle over the same directory hits without help.
        drop(store);
        let mut fresh = ArtifactStore::open(&dir).unwrap();
        assert!(fresh.load_checkpoint(&net, &xs, &mut out).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_or_damage_degrades_to_miss() {
        let dir = tmp_dir("damage");
        let net_a = net(1);
        let xs = points(0, 5);
        let (ws, y) = checkpoint_of(&net_a, &xs);
        let mut store = ArtifactStore::open(&dir).unwrap();
        store.publish_checkpoint(&net_a, &xs, &ws, &y).unwrap();
        // Different network, different input: plain misses, no rejects.
        let mut out = BatchWorkspace::default();
        assert!(store.load_checkpoint(&net(2), &xs, &mut out).is_none());
        assert!(store
            .load_checkpoint(&net_a, &points(7, 5), &mut out)
            .is_none());
        assert_eq!(store.stats().verify_rejects, 0);
        // Flip one payload bit: checksum catches it, record quarantined.
        let path = store.record_path(
            KIND_CHECKPOINT,
            NetId::of(&net_a).hash(),
            input_set_hash(&xs),
        );
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_BYTES + bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_checkpoint(&net_a, &xs, &mut out).is_none());
        assert_eq!(store.stats().verify_rejects, 1);
        assert!(!path.exists(), "damaged record is quarantined");
        // And the next lookup is a clean miss, not a second reject.
        assert!(store.load_checkpoint(&net_a, &xs, &mut out).is_none());
        assert_eq!(store.stats().verify_rejects, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_lru_only() {
        let dir = tmp_dir("evict");
        let net = net(3);
        let sets: Vec<Matrix> = (0..3).map(|s| points(s, 4)).collect();
        let mut store = ArtifactStore::open(&dir).unwrap();
        let mut record_bytes = 0;
        for xs in &sets {
            let (ws, y) = checkpoint_of(&net, xs);
            store.publish_checkpoint(&net, xs, &ws, &y).unwrap();
            record_bytes = store.stats().bytes / store.stats().entries as u64;
        }
        assert_eq!(store.stats().entries, 3);
        // Touch set 0 so set 1 is the LRU, then budget down to two records.
        let mut out = BatchWorkspace::default();
        assert!(store.load_checkpoint(&net, &sets[0], &mut out).is_some());
        store.set_byte_budget(2 * record_bytes + record_bytes / 2);
        let (ws, y) = checkpoint_of(&net, &sets[2]);
        // Re-publish is a no-op on content but triggers budget enforcement
        // via a fresh publish of a 4th set.
        let xs3 = points(9, 4);
        let (ws3, y3) = checkpoint_of(&net, &xs3);
        store.publish_checkpoint(&net, &xs3, &ws3, &y3).unwrap();
        assert!(store.stats().evictions >= 1);
        assert!(store.stats().bytes <= 2 * record_bytes + record_bytes / 2);
        // The just-published and recently-touched records survive...
        assert!(store.load_checkpoint(&net, &xs3, &mut out).is_some());
        // ...and every surviving record still verifies bitwise.
        for xs in sets.iter().chain([&xs3]) {
            if let Some(got) = store.load_checkpoint(&net, xs, &mut out) {
                let (_, expect) = checkpoint_of(&net, xs);
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.to_bits(), e.to_bits());
                }
            }
        }
        assert_eq!(store.stats().verify_rejects, 0);
        let _ = (ws, y);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_reconciles_index_with_directory() {
        let dir = tmp_dir("reconcile");
        let net = net(6);
        let xs = points(0, 4);
        let (ws, y) = checkpoint_of(&net, &xs);
        {
            let mut store = ArtifactStore::open(&dir).unwrap();
            store.publish_checkpoint(&net, &xs, &ws, &y).unwrap();
        }
        // Zero the index and drop a stray temp file: open() rebuilds from
        // the directory and sweeps the temp.
        fs::write(dir.join(INDEX_FILE), b"").unwrap();
        fs::write(dir.join(".tmp-999-1"), b"torn").unwrap();
        let mut store = ArtifactStore::open(&dir).unwrap();
        assert!(!dir.join(".tmp-999-1").exists(), "temp swept");
        let mut out = BatchWorkspace::default();
        assert!(
            store.load_checkpoint(&net, &xs, &mut out).is_some(),
            "record adopted from directory scan"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_names_parse_and_foreign_files_are_ignored() {
        assert_eq!(
            parse_record_name("00-00000000000000ab-00000000000000cd.rec"),
            Some((0, 0xab, 0xcd))
        );
        assert_eq!(parse_record_name("index.v1"), None);
        assert_eq!(parse_record_name("LOCK"), None);
        assert_eq!(parse_record_name("00-short-00000000000000cd.rec"), None);
        let dir = tmp_dir("foreign");
        fs::write(dir.join("README.txt"), b"not a record").unwrap();
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.stats().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
