//! Serving-engine configuration.

use std::time::Duration;

use neurofail_par::Parallelism;

/// Tuning knobs of the micro-batching scheduler.
///
/// The two flush triggers mirror every production batcher: a shard worker
/// flushes as soon as it holds [`max_batch`](ServeConfig::max_batch) rows,
/// or once [`max_wait`](ServeConfig::max_wait) has elapsed since it started
/// collecting the current batch — whichever comes first. `max_wait` is the
/// latency the engine is willing to *spend* on coalescing; under heavy
/// concurrent load batches fill before the deadline and the wait costs
/// nothing, while a lone client pays at most `max_wait` extra latency per
/// query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Flush a batch once it holds this many rows (≥ 1). `1` disables
    /// coalescing entirely — every request is served as its own flush (the
    /// baseline the `serve_throughput` bench compares against).
    pub max_batch: usize,
    /// Flush a non-full batch once this much time has passed since its
    /// first row arrived. `Duration::ZERO` means "flush whatever the queue
    /// currently holds" (greedy drain, no waiting).
    pub max_wait: Duration,
    /// Bound of each plan shard's request queue. A full queue makes
    /// [`submit`](crate::CertServer::submit) block and
    /// [`try_submit`](crate::CertServer::try_submit) fail — backpressure,
    /// rather than unbounded memory growth, under overload.
    pub queue_capacity: usize,
    /// How many worker threads each plan shard runs. Responses are bitwise
    /// identical for every policy (per-row batch independence); more
    /// workers only change how flushes interleave in time.
    pub workers: Parallelism,
    /// Record every served request into an in-memory log retrievable with
    /// [`take_log`](crate::CertServer::take_log) (for deterministic
    /// replay/audit). Off by default: the log grows with traffic.
    pub record_log: bool,
    /// Coalesce requests for **different plans** of one admission family
    /// into one shard: plans registered against content-equal networks
    /// (bitwise-equal parameters, no `Arc` identity required) get one
    /// queue and worker pool, and each flush gets a *single* nominal
    /// checkpoint over every queued row plus one resumed faulty **suffix** per
    /// plan present in the flush (the multi-plan engine of
    /// `neurofail_inject::multi` at the serving layer). Served values stay
    /// bitwise identical to per-plan serving; the saving is the per-plan
    /// faulty prefix, reported as
    /// [`ServeStats::nominal_rows_saved`](crate::ServeStats). Off by
    /// default (per-plan shards).
    pub coalesce_plans: bool,
    /// Overload-shedding budget: when set, a submission whose estimated
    /// queue wait — current queue depth × the shard's EWMA per-row flush
    /// cost — exceeds the budget is rejected newest-first with a typed
    /// [`SubmitError::Overloaded`](crate::SubmitError) (counted in
    /// [`ServeStats::requests_shed`](crate::ServeStats)) instead of being
    /// queued behind work it would miss any latency target under. `None`
    /// (the default) never sheds; `Some(Duration::ZERO)` sheds whenever
    /// the queue is non-empty (useful in tests).
    pub shed_budget: Option<Duration>,
    /// How many flush panics *attributed to one plan's faulty suffix* a
    /// shard tolerates before it quarantines the plan (submissions then
    /// fail fast with
    /// [`SubmitError::Quarantined`](crate::SubmitError); other plans on
    /// the shard keep serving). Attribution is per-plan, so one poison
    /// plan cannot crash-loop a coalesced shard. Panics outside a plan's
    /// suffix resume (queue recv, nominal pass) are never attributed.
    /// Must be ≥ 1; default 3.
    pub max_plan_strikes: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(100),
            queue_capacity: 1024,
            workers: Parallelism::Sequential,
            record_log: false,
            coalesce_plans: false,
            shed_budget: None,
            max_plan_strikes: 3,
        }
    }
}

impl ServeConfig {
    /// Panic on nonsensical settings (zero batch or queue capacity).
    pub(crate) fn validate(&self) {
        assert!(self.max_batch >= 1, "ServeConfig: max_batch must be >= 1");
        assert!(
            self.queue_capacity >= 1,
            "ServeConfig: queue_capacity must be >= 1"
        );
        assert!(
            self.max_plan_strikes >= 1,
            "ServeConfig: max_plan_strikes must be >= 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let cfg = ServeConfig::default();
        cfg.validate();
        assert_eq!(cfg.max_batch, 64);
        assert!(!cfg.record_log);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        }
        .validate();
    }
}
