//! Corruption certification of the persistent artifact store —
//! **contract 13: a damaged store is bitwise-indistinguishable from a
//! cold store.**
//!
//! Whatever happens to the bytes on disk — flipped bits, truncation, torn
//! writes that left a temp file but no rename, a zeroed / deleted /
//! bit-flipped index, records replaced wholesale with garbage — every
//! subsequent read is either a *verified-correct hit* (bitwise equal to
//! recompute) or a *clean miss* that recomputes to the same bits. Never a
//! panic, never an `Err` escaping the lookup path, never a wrong value.
//! The fuzzer below drives ≥50 seeded damage campaigns against populated
//! stores, plus records re-keyed to another network (which random damage
//! cannot produce); the `chaos` module additionally kills writers
//! mid-publish at each deterministic failpoint site (`--features
//! failpoints`) and requires the survivor to be cold-equivalent too. The
//! failpoint schedule is process-global, so every test that publishes
//! holds the chaos session: none can consume another's armed hit.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::inject::{
    ArtifactStore, ByzantineStrategy, CheckpointCache, InjectionPlan, PlanId, PlanRegistry,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp, NetId};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use rand::Rng;

/// Hold the process-wide chaos session, nothing armed (a no-op without
/// the `failpoints` feature).
fn chaos_session() -> impl Sized {
    #[cfg(feature = "failpoints")]
    return neurofail::par::failpoint::install(neurofail::par::failpoint::ChaosSchedule::new(0));
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf-store-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

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

fn probes(seed: u64, rows: usize) -> Matrix {
    let mut r = rng(seed ^ 0x51AB);
    Matrix::from_fn(rows, 3, |_, _| r.gen_range(-1.0..=1.0))
}

/// Every `*.rec` file currently in the store directory.
fn record_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "rec"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// One seeded act of vandalism against the store directory. Returns a
/// human tag for assertion messages.
fn damage(dir: &Path, r: &mut impl Rng) -> &'static str {
    let records = record_files(dir);
    let kind = r.gen_range(0..7u64);
    match kind {
        // Flip one bit somewhere in a record (header or payload).
        0 if !records.is_empty() => {
            let p = &records[r.gen_range(0..records.len() as u64) as usize];
            let mut bytes = fs::read(p).unwrap();
            let i = r.gen_range(0..bytes.len() as u64) as usize;
            bytes[i] ^= 1 << r.gen_range(0..8u64);
            fs::write(p, bytes).unwrap();
            "bit flip"
        }
        // Truncate a record to a random prefix (0 included).
        1 if !records.is_empty() => {
            let p = &records[r.gen_range(0..records.len() as u64) as usize];
            let len = fs::metadata(p).unwrap().len();
            let keep = r.gen_range(0..=len);
            let mut bytes = fs::read(p).unwrap();
            bytes.truncate(keep as usize);
            fs::write(p, bytes).unwrap();
            "truncation"
        }
        // A torn publish: the temp is on disk, the rename never happened.
        2 => {
            let mut junk = vec![0u8; r.gen_range(1..200u64) as usize];
            junk.iter_mut()
                .for_each(|b| *b = r.gen_range(0..=255u64) as u8);
            fs::write(
                dir.join(format!(".tmp-{}-torn", r.gen_range(1..9999u64))),
                junk,
            )
            .unwrap();
            "torn publish"
        }
        // Zero the index.
        3 => {
            fs::write(dir.join("index.v1"), b"").unwrap();
            "zeroed index"
        }
        // Delete the index outright.
        4 => {
            let _ = fs::remove_file(dir.join("index.v1"));
            "deleted index"
        }
        // Flip a bit in the index.
        5 => {
            if let Ok(mut bytes) = fs::read(dir.join("index.v1")) {
                if !bytes.is_empty() {
                    let i = r.gen_range(0..bytes.len() as u64) as usize;
                    bytes[i] ^= 1 << r.gen_range(0..8u64);
                    fs::write(dir.join("index.v1"), bytes).unwrap();
                }
            }
            "index bit flip"
        }
        // Replace a record wholesale with garbage of plausible size.
        _ if !records.is_empty() => {
            let p = &records[r.gen_range(0..records.len() as u64) as usize];
            let mut junk = vec![0u8; r.gen_range(1..600u64) as usize];
            junk.iter_mut()
                .for_each(|b| *b = r.gen_range(0..=255u64) as u8);
            fs::write(p, junk).unwrap();
            "garbage record"
        }
        _ => "no-op (no records yet)",
    }
}

/// The fuzzer: ≥50 seeded campaigns of populate → vandalize → reopen →
/// evaluate. Acceptance: zero wrong bits, zero panics, zero errors
/// escaping — and the store keeps working (re-publish then hit) after
/// every campaign.
#[test]
fn fifty_seeds_of_damage_never_yield_a_wrong_bit() {
    let _session = chaos_session();
    for seed in 0..55u64 {
        let dir = store_dir(&format!("s{seed}"));
        let mut r = rng(seed ^ 0xDA3A);
        let depth = 1 + (seed % 3) as usize;
        let width = 3 + (seed % 5) as usize;
        let net = Arc::new(build_net(seed, depth, width));
        let (reg, ids) = build_registry(Arc::clone(&net), seed);
        let sets: Vec<Matrix> = (0..3)
            .map(|i| probes(seed * 8 + i, 2 + (i as usize)))
            .collect();
        let cold: Vec<Vec<Vec<f64>>> = sets.iter().map(|xs| reg.eval_many(&ids, xs)).collect();

        // Populate through the cache's disk tier.
        let mut scratch = BatchWorkspace::default();
        {
            let mut cache = CheckpointCache::new(sets.len());
            cache.attach_store(ArtifactStore::open(&dir).unwrap());
            for xs in &sets {
                reg.eval_many_cached(&ids, xs, &mut cache, &mut scratch);
            }
        }

        // 1–3 independent acts of damage.
        for _ in 0..r.gen_range(1..=3u64) {
            damage(&dir, &mut r);
        }

        // Reopen (must not error), then evaluate everything through a
        // fresh cache: the values must be bitwise the cold compute no
        // matter what the damage did — hits verified, misses recomputed.
        let mut cache = CheckpointCache::new(sets.len());
        cache.attach_store(ArtifactStore::open(&dir).expect("open survives any damage"));
        for (i, xs) in sets.iter().enumerate() {
            let got = reg.eval_many_cached(&ids, xs, &mut cache, &mut scratch);
            for (g, c) in got.iter().zip(&cold[i]) {
                for (gv, cv) in g.iter().zip(c) {
                    assert_eq!(gv.to_bits(), cv.to_bits(), "seed {seed}, set {i}");
                }
            }
        }
        let stats = cache.store_stats().expect("store attached");
        assert_eq!(
            stats.hits + stats.misses + stats.verify_rejects,
            sets.len() as u64,
            "seed {seed}: every lookup resolves as hit, miss or reject"
        );
        // No temp debris survives a reopen (torn publishes are swept).
        let debris = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(debris, 0, "seed {seed}: torn temps swept on open");

        // The damaged store keeps working: a re-publish round makes every
        // set a verified hit again for the *next* fresh cache.
        drop(cache);
        let mut again = CheckpointCache::new(sets.len());
        again.attach_store(ArtifactStore::open(&dir).unwrap());
        for xs in &sets {
            reg.eval_many_cached(&ids, xs, &mut again, &mut scratch);
        }
        let healed = again.store_stats().expect("store attached");
        assert_eq!(
            healed.verify_rejects, 0,
            "seed {seed}: damage is quarantined on first touch, not sticky"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Copy the record at `path` under network hash `net_hash`: the header
/// key and the file name change, the payload and its checksum do not.
fn rekey(path: &Path, net_hash: u64) {
    let mut bytes = fs::read(path).unwrap();
    bytes[16..24].copy_from_slice(&net_hash.to_le_bytes());
    // `{kind:02x}-{net:016x}-{aux:016x}.rec`
    let name = path.file_name().unwrap().to_str().unwrap();
    let name = format!("{}{net_hash:016x}{}", &name[..3], &name[19..]);
    fs::write(path.with_file_name(name), bytes).unwrap();
}

/// A record of net A re-keyed to net B keeps a valid checksum (it covers
/// the payload only); B's network bytes must reject it: a verify reject,
/// never A's values.
#[test]
fn records_rekeyed_to_another_network_are_rejected() {
    let _session = chaos_session();
    let dir = store_dir("rekey");
    let (net_a, net_b) = (build_net(1, 2, 4), build_net(2, 2, 4));
    let xs = probes(1, 4);
    let (mut ws, mut out) = (BatchWorkspace::default(), BatchWorkspace::default());
    let y = net_a.forward_batch(&xs, &mut ws);
    let mut store = ArtifactStore::open(&dir).unwrap();
    store.publish_checkpoint(&net_a, &xs, &ws, &y).unwrap();
    let records = record_files(&dir);
    assert_eq!(records.len(), 1, "one checkpoint");
    rekey(&records[0], NetId::of(&net_b).hash());

    assert!(store.load_checkpoint(&net_b, &xs, &mut out).is_none());
    assert_eq!(store.stats().verify_rejects, 1);
    // A's own record is untouched.
    let got = store
        .load_checkpoint(&net_a, &xs, &mut out)
        .expect("A hits");
    for (g, e) in got.iter().zip(&y) {
        assert_eq!(g.to_bits(), e.to_bits());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Deterministic writer kills at every store publish site
/// (`--features failpoints`): whatever instant the writer died, the
/// surviving directory serves only verified-correct hits or clean misses
/// — bitwise a cold store.
#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;

    use neurofail::par::failpoint::{install, ChaosAction, ChaosSchedule};

    /// Silence the expected chaos-payload panic backtraces (mirrors
    /// `tests/chaos_serve.rs`).
    fn quiet_chaos_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                let chaos = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("chaos failpoint"));
                if !chaos {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn writer_killed_mid_publish_leaves_a_cold_equivalent_store() {
        quiet_chaos_panics();
        for (site, durable) in [
            // Temp written, rename never happened: the record must NOT
            // exist afterwards.
            ("store::publish_temp", false),
            // Rename happened, index update didn't: the record is durable
            // and open() must adopt it from the directory scan.
            ("store::publish_rename", true),
            // Index temp written, index rename didn't: records durable,
            // index stale — open() reconciles.
            ("store::index_rewrite", true),
        ] {
            let dir = store_dir(&format!("kill-{}", site.rsplit(':').next().unwrap()));
            let net = Arc::new(build_net(3, 2, 5));
            let (reg, ids) = build_registry(Arc::clone(&net), 3);
            let xs = probes(3, 6);
            let cold = reg.eval_many(&ids, &xs);
            let mut ws = BatchWorkspace::default();
            let y = net.forward_batch(&xs, &mut ws);

            // Kill the writer at the armed site, mid-publish. The store
            // is opened *before* arming: `open` itself rewrites the
            // index, and the kill belongs to the publish, not the open.
            {
                let mut store = ArtifactStore::open(&dir).unwrap();
                let guard = install(ChaosSchedule::new(0xDEAD).on_hit(site, ChaosAction::Panic, 0));
                let killed = panic::catch_unwind(AssertUnwindSafe(|| {
                    store.publish_checkpoint(&net, &xs, &ws, &y)
                }));
                assert!(killed.is_err(), "{site}: writer killed");
                assert_eq!(guard.fired(site), 1, "{site}: armed site fired");
                drop(guard);
                // The dead writer's handle is leaked, not dropped: a dead
                // process never runs destructors (no index flush).
                std::mem::forget(store);
            }

            // The survivor: opens cleanly, serves the documented outcome,
            // and is bitwise cold-equivalent either way.
            let mut survivor = ArtifactStore::open(&dir).unwrap();
            let mut out = BatchWorkspace::default();
            match survivor.load_checkpoint(&net, &xs, &mut out) {
                Some(got) => {
                    assert!(durable, "{site}: record must not survive");
                    for (g, e) in got.iter().zip(&y) {
                        assert_eq!(g.to_bits(), e.to_bits(), "{site}: hit is bitwise");
                    }
                }
                None => assert!(!durable, "{site}: durable record must be adopted"),
            }
            assert_eq!(survivor.stats().verify_rejects, 0, "{site}");
            drop(survivor);

            // Cold-store equivalence through the full cached-eval path.
            let mut scratch = BatchWorkspace::default();
            let mut cache = CheckpointCache::new(2);
            cache.attach_store(ArtifactStore::open(&dir).unwrap());
            let got = reg.eval_many_cached(&ids, &xs, &mut cache, &mut scratch);
            for (g, c) in got.iter().zip(&cold) {
                for (gv, cv) in g.iter().zip(c) {
                    assert_eq!(gv.to_bits(), cv.to_bits(), "{site}: cold-equivalent");
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
