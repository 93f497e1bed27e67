//! Per-shard serving statistics: traffic counters, batch-size histogram
//! and latency quantiles.
//!
//! Counters are plain relaxed atomics updated by shard workers and the
//! submit path; latencies go into a fixed-size ring reservoir behind a
//! mutex locked once per flush. A [`ServeStats`] snapshot is computed on
//! demand and is internally consistent only in the eventual sense — it is
//! an operational dashboard, not a synchronisation primitive.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Batch-size histogram buckets: `1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, ≤128, >128`.
pub const BATCH_BUCKETS: usize = 9;

/// Upper-edge labels for the histogram buckets, aligned with the entries
/// of [`ServeStats::batch_hist`].
pub const BATCH_BUCKET_LABELS: [&str; BATCH_BUCKETS] = [
    "1", "2", "<=4", "<=8", "<=16", "<=32", "<=64", "<=128", ">128",
];

/// Bucket index for a flush of `rows` rows.
pub(crate) fn bucket_of(rows: usize) -> usize {
    match rows {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        65..=128 => 7,
        _ => 8,
    }
}

/// Number of per-request latency samples retained per shard (a ring: the
/// most recent samples win).
const RESERVOIR: usize = 4096;

/// Retry-histogram buckets: which attempt a
/// [`submit_with_retry`](crate::CertServer::submit_with_retry) backoff
/// preceded — `1st, 2nd, 3rd, 4th, 5th, >5th` retry.
pub const RETRY_BUCKETS: usize = 6;

/// Labels aligned with the entries of [`ServeStats::retry_hist`].
pub const RETRY_BUCKET_LABELS: [&str; RETRY_BUCKETS] = ["1", "2", "3", "4", "5", ">5"];

/// Shared mutable statistics of one plan shard.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    requests: AtomicU64,
    rejected: AtomicU64,
    flushes: AtomicU64,
    rows: AtomicU64,
    nominal_rows_saved: AtomicU64,
    checkpoint_hits: AtomicU64,
    checkpoint_rows_reused: AtomicU64,
    hist: [AtomicU64; BATCH_BUCKETS],
    max_queue_depth: AtomicUsize,
    latencies: Mutex<Reservoir>,
    // Recovery and lifecycle counters (PR 7).
    worker_restarts: AtomicU64,
    rows_requeued: AtomicU64,
    requests_shed: AtomicU64,
    plans_quarantined: AtomicU64,
    deadlines_expired: AtomicU64,
    retries: AtomicU64,
    retry_hist: [AtomicU64; RETRY_BUCKETS],
    backoff_ns: AtomicU64,
    /// EWMA of per-row flush compute cost in nanoseconds (α = 1/8),
    /// floored at 1 ns once any flush has run — the load model behind
    /// overload shedding and `retry_after` hints.
    est_row_cost_ns: AtomicU64,
    // Artifact-store tier counters (PR 8).
    store_hits: AtomicU64,
    store_rows_reused: AtomicU64,
    store_publishes: AtomicU64,
}

#[derive(Debug, Default)]
struct Reservoir {
    /// Latency samples in nanoseconds, ring-ordered.
    samples: Vec<u64>,
    /// Next ring slot to overwrite once `samples` reaches capacity.
    next: usize,
}

impl ShardStats {
    /// A request was accepted; `observed_depth` is the queue length right
    /// after the enqueue.
    pub(crate) fn on_submit(&self, observed_depth: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(observed_depth, Ordering::Relaxed);
    }

    /// A `try_submit` bounced off a full queue.
    pub(crate) fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission was shed by the overload budget.
    pub(crate) fn on_shed(&self) {
        self.requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A panicked worker was respawned.
    pub(crate) fn on_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// `rows` staged-but-unanswered rows were recovered from a dead
    /// worker and re-enqueued.
    pub(crate) fn on_requeue(&self, rows: u64) {
        self.rows_requeued.fetch_add(rows, Ordering::Relaxed);
    }

    /// A plan crossed its strike limit and was quarantined.
    pub(crate) fn on_quarantine(&self) {
        self.plans_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// `rows` queued requests expired past their deadline unserved.
    pub(crate) fn on_deadline_expired(&self, rows: u64) {
        self.deadlines_expired.fetch_add(rows, Ordering::Relaxed);
    }

    /// `submit_with_retry` is about to back off before retry number
    /// `attempt` (1-based) for `backoff_ns` nanoseconds.
    pub(crate) fn on_retry(&self, attempt: u32, backoff_ns: u64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        let bucket = (attempt.max(1) as usize - 1).min(RETRY_BUCKETS - 1);
        self.retry_hist[bucket].fetch_add(1, Ordering::Relaxed);
        self.backoff_ns.fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// A flush's nominal pass was served from the shared artifact store:
    /// `rows_reused` layer-rows of nominal recomputation skipped.
    pub(crate) fn on_store_hit(&self, rows_reused: u64) {
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        self.store_rows_reused
            .fetch_add(rows_reused, Ordering::Relaxed);
    }

    /// A flush published its freshly computed checkpoint to the store.
    pub(crate) fn on_store_publish(&self) {
        self.store_publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one flush's measured per-row compute cost into the EWMA
    /// (α = 1/8; the first sample seeds the average directly).
    pub(crate) fn observe_row_cost(&self, sample_ns: u64) {
        let sample = sample_ns.max(1);
        let old = self.est_row_cost_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            (old - old / 8 + sample / 8).max(1)
        };
        self.est_row_cost_ns.store(new, Ordering::Relaxed);
    }

    /// Current EWMA per-row flush cost estimate, floored at 1 ns so the
    /// shedding product `depth × cost` is nonzero whenever the queue is.
    pub(crate) fn est_row_cost_ns(&self) -> u64 {
        self.est_row_cost_ns.load(Ordering::Relaxed).max(1)
    }

    /// A worker flushed a batch of `rows` rows whose per-request latencies
    /// are `latencies_ns`; `nominal_rows_saved` is the layer-rows of
    /// faulty-pass work the suffix engine took from the checkpoint,
    /// and `checkpoint_rows_reused` the layer-rows of **nominal**
    /// recomputation the worker's checkpoint cache served from the
    /// previous flush's checkpoint (`checkpoint_hit` marks the flush as
    /// having reused or extended one).
    pub(crate) fn on_flush(
        &self,
        rows: usize,
        latencies_ns: &[u64],
        nominal_rows_saved: u64,
        checkpoint_hit: bool,
        checkpoint_rows_reused: u64,
    ) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.nominal_rows_saved
            .fetch_add(nominal_rows_saved, Ordering::Relaxed);
        if checkpoint_hit {
            self.checkpoint_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.checkpoint_rows_reused
            .fetch_add(checkpoint_rows_reused, Ordering::Relaxed);
        self.hist[bucket_of(rows)].fetch_add(1, Ordering::Relaxed);
        let mut res = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for &ns in latencies_ns {
            if res.samples.len() < RESERVOIR {
                res.samples.push(ns);
            } else {
                let slot = res.next;
                res.samples[slot] = ns;
                res.next = (slot + 1) % RESERVOIR;
            }
        }
    }

    /// Snapshot the counters; `queue_depth` is the caller-observed live
    /// queue length.
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServeStats {
        let mut hist = [0u64; BATCH_BUCKETS];
        for (out, bucket) in hist.iter_mut().zip(&self.hist) {
            *out = bucket.load(Ordering::Relaxed);
        }
        let mut samples = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .samples
            .clone();
        samples.sort_unstable();
        let quantile = |q: f64| -> Duration {
            if samples.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            Duration::from_nanos(samples[idx])
        };
        let mut retry_hist = [0u64; RETRY_BUCKETS];
        for (out, bucket) in retry_hist.iter_mut().zip(&self.retry_hist) {
            *out = bucket.load(Ordering::Relaxed);
        }
        let flushes = self.flushes.load(Ordering::Relaxed);
        let rows = self.rows.load(Ordering::Relaxed);
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            flushes,
            rows_served: rows,
            nominal_rows_saved: self.nominal_rows_saved.load(Ordering::Relaxed),
            checkpoint_hits: self.checkpoint_hits.load(Ordering::Relaxed),
            checkpoint_rows_reused: self.checkpoint_rows_reused.load(Ordering::Relaxed),
            mean_batch: if flushes == 0 {
                0.0
            } else {
                rows as f64 / flushes as f64
            },
            batch_hist: hist,
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            p50_latency: quantile(0.50),
            p99_latency: quantile(0.99),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            rows_requeued: self.rows_requeued.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            plans_quarantined: self.plans_quarantined.load(Ordering::Relaxed),
            deadlines_expired: self.deadlines_expired.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retry_hist,
            total_backoff: Duration::from_nanos(self.backoff_ns.load(Ordering::Relaxed)),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_rows_reused: self.store_rows_reused.load(Ordering::Relaxed),
            store_publishes: self.store_publishes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of one plan shard's serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests accepted into the shard's queue.
    pub requests: u64,
    /// `try_submit` calls bounced by backpressure.
    pub rejected: u64,
    /// Batches executed.
    pub flushes: u64,
    /// Rows served across all flushes (equals completed requests).
    pub rows_served: u64,
    /// Layer-rows of the faulty pass the suffix engine took from the
    /// flush's checkpoint instead of recomputing: a flush row served by a
    /// plan whose resume takes `k` layers from it adds `k` here
    /// ([`ResumeStart::checkpoint_layers`](neurofail_inject::ResumeStart::checkpoint_layers)
    /// of the plan's
    /// [`resume_start`](neurofail_inject::CompiledPlan::resume_start)):
    /// `f + 1` for neuron faults first at layer `f`, `f` when a synapse
    /// enters `f`, `depth` for output-synapse-only and empty plans. A
    /// full per-plan `output_error_batch` flush would have recomputed all
    /// of them — this is the work cross-plan coalescing and suffix
    /// resumption eliminate (0 only under plans with a hidden synapse
    /// into layer 0).
    pub nominal_rows_saved: u64,
    /// Flushes whose nominal checkpoint came from the worker's checkpoint
    /// cache: the staged rows equal the previous flush's, or start
    /// bitwise with them, so the nominal pass ran not at all (identical
    /// flush) or only over the new suffix rows (an extension).
    pub checkpoint_hits: u64,
    /// Layer-rows of **nominal** recomputation those checkpoint hits
    /// skipped: a hit whose reused prefix spans `P` rows through an
    /// `L`-layer network banks `P · L`.
    pub checkpoint_rows_reused: u64,
    /// Mean rows per flush — the coalescing factor actually achieved.
    pub mean_batch: f64,
    /// Flush-size histogram over the [`BATCH_BUCKET_LABELS`] buckets.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Requests queued at snapshot time.
    pub queue_depth: usize,
    /// Deepest queue observed at any enqueue.
    pub max_queue_depth: usize,
    /// Median submit→response latency over the recent-sample reservoir.
    pub p50_latency: Duration,
    /// 99th-percentile submit→response latency over the reservoir.
    pub p99_latency: Duration,
    /// Panicked workers the shard supervisor respawned. 0 in a healthy
    /// run — worker panics are unreachable through the public API without
    /// the `failpoints` feature.
    pub worker_restarts: u64,
    /// Staged-but-unanswered rows recovered from dead workers and
    /// re-enqueued (each later answered exactly once, or failed typed —
    /// never dropped, never double-answered).
    pub rows_requeued: u64,
    /// Submissions rejected by the overload budget
    /// ([`ServeConfig::shed_budget`](crate::ServeConfig)) with a typed
    /// `Overloaded` error.
    pub requests_shed: u64,
    /// Plans quarantined after
    /// [`max_plan_strikes`](crate::ServeConfig::max_plan_strikes)
    /// flush panics attributed to their faulty suffix.
    pub plans_quarantined: u64,
    /// Queued requests that expired past their deadline unserved (failed
    /// with a typed `Deadline` error at flush staging).
    pub deadlines_expired: u64,
    /// Total backoff sleeps taken by
    /// [`submit_with_retry`](crate::CertServer::submit_with_retry).
    pub retries: u64,
    /// Retry histogram over the [`RETRY_BUCKET_LABELS`] buckets: which
    /// attempt each backoff preceded.
    pub retry_hist: [u64; RETRY_BUCKETS],
    /// Total time spent sleeping in retry backoff.
    pub total_backoff: Duration,
    /// Flushes whose *entire* nominal pass was served from the shared
    /// artifact store ([`CertServer::start_with_store`](crate::CertServer))
    /// — a warm start: the flush ran zero nominal forward rows. Always 0
    /// without a store attached.
    pub store_hits: u64,
    /// Layer-rows of nominal recomputation those store hits skipped
    /// (`rows × depth` per hit — the
    /// [`StoreStats::nominal_rows_saved`](neurofail_inject::StoreStats)
    /// accounting, seen from the serving side).
    pub store_rows_reused: u64,
    /// Freshly computed or extended flush checkpoints written through to
    /// the store (what warm-starts shard-mates and future workers).
    pub store_publishes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_all_sizes() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(64), 6);
        assert_eq!(bucket_of(65), 7);
        assert_eq!(bucket_of(1000), 8);
    }

    #[test]
    fn snapshot_aggregates_flushes() {
        let s = ShardStats::default();
        s.on_submit(3);
        s.on_submit(5);
        s.on_reject();
        s.on_flush(2, &[1_000, 3_000], 4, false, 0);
        s.on_flush(1, &[2_000], 3, true, 6);
        let snap = s.snapshot(7);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.flushes, 2);
        assert_eq!(snap.rows_served, 3);
        assert_eq!(snap.nominal_rows_saved, 7);
        assert_eq!(snap.checkpoint_hits, 1);
        assert_eq!(snap.checkpoint_rows_reused, 6);
        assert!((snap.mean_batch - 1.5).abs() < 1e-12);
        assert_eq!(snap.batch_hist[0], 1);
        assert_eq!(snap.batch_hist[1], 1);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.max_queue_depth, 5);
        assert_eq!(snap.p50_latency, Duration::from_nanos(2_000));
        assert_eq!(snap.p99_latency, Duration::from_nanos(3_000));
    }

    #[test]
    fn reservoir_wraps_at_capacity() {
        let s = ShardStats::default();
        let ns: Vec<u64> = (0..RESERVOIR as u64 + 100).collect();
        s.on_flush(ns.len(), &ns, 0, false, 0);
        let snap = s.snapshot(0);
        // The 100 oldest samples were overwritten by the wrap, so the kept
        // set is exactly {100, …, RESERVOIR+99} and the median shifts by
        // the evicted prefix.
        let expected = 100 + ((RESERVOIR - 1) as f64 * 0.5).round() as u64;
        assert_eq!(snap.p50_latency.as_nanos() as u64, expected);
    }

    #[test]
    fn recovery_counters_and_retry_histogram_aggregate() {
        let s = ShardStats::default();
        s.on_restart();
        s.on_requeue(3);
        s.on_shed();
        s.on_shed();
        s.on_quarantine();
        s.on_deadline_expired(2);
        s.on_retry(1, 100);
        s.on_retry(2, 200);
        s.on_retry(9, 400); // clamps into the >5 bucket
        let snap = s.snapshot(0);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.rows_requeued, 3);
        assert_eq!(snap.requests_shed, 2);
        assert_eq!(snap.plans_quarantined, 1);
        assert_eq!(snap.deadlines_expired, 2);
        assert_eq!(snap.retries, 3);
        assert_eq!(snap.retry_hist, [1, 1, 0, 0, 0, 1]);
        assert_eq!(snap.total_backoff, Duration::from_nanos(700));
    }

    #[test]
    fn row_cost_ewma_seeds_then_smooths_with_a_floor() {
        let s = ShardStats::default();
        assert_eq!(s.est_row_cost_ns(), 1, "unseeded estimate is floored");
        s.observe_row_cost(800);
        assert_eq!(s.est_row_cost_ns(), 800, "first sample seeds the EWMA");
        s.observe_row_cost(0); // floored sample
        let after = s.est_row_cost_ns();
        assert!((700..800).contains(&after), "α=1/8 decay, got {after}");
    }

    #[test]
    fn empty_stats_snapshot_is_zeroed() {
        let snap = ShardStats::default().snapshot(0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.mean_batch, 0.0);
        assert_eq!(snap.p99_latency, Duration::ZERO);
    }
}
