//! Order-preserving data-parallel combinators over index ranges and slices.
//!
//! All combinators share the same skeleton: workers claim contiguous chunks
//! of the index space through a shared atomic cursor, process them, and
//! publish results through a mutex-protected list of `(start, buffer)` pairs
//! that is merged (in index order) once all workers join. The atomic cursor
//! gives dynamic load balancing; the per-chunk buffers keep the hot loop
//! allocation- and contention-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::policy::Parallelism;

/// Map `f` over `0..len`, returning outputs in index order.
///
/// `f` receives the item index. Results are identical to the sequential
/// `(0..len).map(f).collect()` for any `Parallelism` policy.
///
/// # Panics
/// Propagates panics from `f` (the scope re-raises a worker's panic
/// after joining every worker).
pub fn parallel_map<U, F>(policy: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if policy.is_sequential() || len <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = policy.chunk_size(len);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..policy.worker_count() {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                let mut buf = Vec::with_capacity(end - start);
                for i in start..end {
                    buf.push(f(i));
                }
                parts
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((start, buf));
            });
        }
    });

    let mut parts = parts.into_inner().unwrap_or_else(PoisonError::into_inner);
    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(len);
    for (_, buf) in parts {
        out.extend(buf);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Run `f(i)` for every `i in 0..len`, for side effects observable through
/// `Sync` state (atomics, mutexes) captured by `f`.
pub fn for_each_index<F>(policy: Parallelism, len: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if policy.is_sequential() || len <= 1 {
        for i in 0..len {
            f(i);
        }
        return;
    }
    let chunk = policy.chunk_size(len);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..policy.worker_count() {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                for i in start..(start + chunk).min(len) {
                    f(i);
                }
            });
        }
    });
}

/// Fold `0..len` into an accumulator of type `A`.
///
/// Each worker folds its chunks locally with `fold`; worker accumulators are
/// then combined with `combine` **in index order of their first chunk**, so
/// the reduction is deterministic whenever `combine` is associative — even
/// for floating-point accumulators, where associativity failures would
/// otherwise make results depend on scheduling. (Per-worker fold order is
/// already index order within chunks; chunk claiming is racy but the merge
/// re-sorts, so only *grouping*, not order, varies. Use [`parallel_sum`] for
/// a fully order-insensitive compensated sum.)
pub fn parallel_reduce<A, F, C>(policy: Parallelism, len: usize, init: A, fold: F, combine: C) -> A
where
    A: Send + Sync + Clone,
    F: Fn(A, usize) -> A + Sync,
    C: Fn(A, A) -> A,
{
    if policy.is_sequential() || len <= 1 {
        return (0..len).fold(init, fold);
    }
    let chunk = policy.chunk_size(len);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, A)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..policy.worker_count() {
            scope.spawn(|| {
                // (first chunk start, local accumulator)
                let mut local: Option<(usize, A)> = None;
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + chunk).min(len);
                    let (first, mut acc) = match local.take() {
                        Some((first, acc)) => (first, acc),
                        None => (start, init.clone()),
                    };
                    for i in start..end {
                        acc = fold(acc, i);
                    }
                    local = Some((first, acc));
                }
                if let Some(entry) = local {
                    parts
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(entry);
                }
            });
        }
    });

    let mut parts = parts.into_inner().unwrap_or_else(PoisonError::into_inner);
    parts.sort_unstable_by_key(|(first, _)| *first);
    parts.into_iter().map(|(_, acc)| acc).fold(init, combine)
}

/// Sum `f(i)` over `0..len` with Neumaier-compensated accumulation.
///
/// The compensation makes the result insensitive (to within one ulp of the
/// compensated result) to how chunks are grouped across workers, so the same
/// campaign statistic is reported for any thread count.
pub fn parallel_sum<F>(policy: Parallelism, len: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    #[derive(Clone, Copy)]
    struct Comp {
        sum: f64,
        c: f64,
    }
    fn add(mut a: Comp, x: f64) -> Comp {
        let t = a.sum + x;
        if a.sum.abs() >= x.abs() {
            a.c += (a.sum - t) + x;
        } else {
            a.c += (x - t) + a.sum;
        }
        a.sum = t;
        a
    }
    let acc = parallel_reduce(
        policy,
        len,
        Comp { sum: 0.0, c: 0.0 },
        |acc, i| add(acc, f(i)),
        |a, b| {
            let merged = add(a, b.sum);
            Comp {
                sum: merged.sum,
                c: merged.c + b.c,
            }
        },
    );
    acc.sum + acc.c
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    const POLICIES: &[Parallelism] = &[
        Parallelism::Sequential,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(7),
    ];

    #[test]
    fn map_matches_sequential_for_all_policies() {
        let expected: Vec<u64> = (0..1000u64).map(|i| i * i + 1).collect();
        for &p in POLICIES {
            let got = parallel_map(p, 1000, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(got, expected, "policy {p:?}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        for &p in POLICIES {
            assert!(parallel_map(p, 0, |i| i).is_empty());
            assert_eq!(parallel_map(p, 1, |i| i + 10), vec![10]);
        }
    }

    #[test]
    fn map_len_not_multiple_of_chunk() {
        // 1009 is prime: exercises the ragged final chunk.
        let expected: Vec<usize> = (0..1009).collect();
        assert_eq!(parallel_map(Parallelism::Threads(4), 1009, |i| i), expected);
    }

    #[test]
    fn for_each_visits_every_index_exactly_once() {
        for &p in POLICIES {
            let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
            for_each_index(p, 500, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} policy {p:?}");
            }
        }
    }

    #[test]
    fn reduce_sums_integers() {
        for &p in POLICIES {
            let s = parallel_reduce(p, 10_001, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(s, 10_000 * 10_001 / 2, "policy {p:?}");
        }
    }

    #[test]
    fn reduce_max_is_deterministic() {
        let vals: Vec<f64> = (0..3000).map(|i| ((i * 37) % 101) as f64).collect();
        for &p in POLICIES {
            let m = parallel_reduce(
                p,
                vals.len(),
                f64::NEG_INFINITY,
                |a, i| a.max(vals[i]),
                f64::max,
            );
            assert_eq!(m, 100.0, "policy {p:?}");
        }
    }

    #[test]
    fn compensated_sum_is_thread_count_insensitive() {
        // A sum that loses badly to cancellation when done naively. The pair
        // (2k, 2k+1) contributes exactly 2k: both 1e16 and -1e16 + 2k are
        // exactly representable (ulp at 1e16 is 2 and 2k is even).
        let f = |i: usize| {
            if i.is_multiple_of(2) {
                1e16
            } else {
                -1e16 + (i - 1) as f64
            }
        };
        let expected = 2.0 * (4999.0 * 5000.0 / 2.0); // Σ 2k, k=0..4999
        let seq = parallel_sum(Parallelism::Sequential, 10_000, f);
        for &p in POLICIES {
            let got = parallel_sum(p, 10_000, f);
            assert!(
                (got - seq).abs() <= 1e-6 * seq.abs().max(1.0),
                "policy {p:?}: {got} vs {seq}"
            );
        }
        assert!((seq - expected).abs() <= 1e-6 * expected);
    }

    #[test]
    fn map_is_deterministic_across_runs() {
        let a = parallel_map(Parallelism::Threads(5), 4096, |i| i * 3);
        let b = parallel_map(Parallelism::Threads(3), 4096, |i| i * 3);
        assert_eq!(a, b);
    }
}
