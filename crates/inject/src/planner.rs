//! Engine names kept only for the benchmark harness (`perfbench/`), which
//! replays the evaluation call paths call by call through them.
//!
//! No code path in the workspace consults a planner: each runs the one
//! engine it always gets. [`crate::PlanRegistry::eval_many`] and campaign
//! chunks run suffix-resume; `eval_many_cached` and `core::measured` go
//! straight to the checkpoint cache; serve's flush follows its live
//! streaming and store state. [`Planner::choose`] states that rule for
//! the harness, and [`Planner::observe`] does nothing.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// The five bitwise-equivalent evaluation engines (ARCHITECTURE
/// contracts 5, 6, 9, 10). The discriminants index
/// [`PlannerStats::picks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Per-row singleton batches (`eval_singleton`).
    Singleton,
    /// Per-plan whole-batch evaluation (`output_error_batch`), the
    /// reference every other engine is held to.
    WholeBatch,
    /// One shared nominal pass plus per-plan suffix resumes.
    SuffixResume,
    /// Streaming ingest over a bitwise-verified prefix.
    Streaming,
    /// Checkpoint-cache or artifact-store backed evaluation.
    Cached,
}

impl Engine {
    /// All engines in index order.
    pub const ALL: [Engine; 5] = [
        Engine::Singleton,
        Engine::WholeBatch,
        Engine::SuffixResume,
        Engine::Streaming,
        Engine::Cached,
    ];

    /// Stable index (the enum discriminant).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Singleton => "singleton",
            Engine::WholeBatch => "whole-batch",
            Engine::SuffixResume => "suffix-resume",
            Engine::Streaming => "streaming",
            Engine::Cached => "cached",
        }
    }
}

/// Summary of one evaluation request.
#[derive(Debug, Clone, Copy)]
pub struct RequestMix {
    /// Input rows to evaluate.
    pub rows: usize,
    /// Plans in the request.
    pub plans: usize,
    /// Network depth in layers.
    pub depth: usize,
    /// Σ over plans of `depth − first_faulty_layer`.
    pub suffix_layers: usize,
    /// A checkpoint cache is attached to this call path.
    pub cache_available: bool,
    /// The checkpoint for this `(net, rows)` key is resident.
    pub cache_resident: bool,
    /// Rows of an already-ingested streaming prefix.
    pub stream_prefix_rows: usize,
}

/// Point-in-time planner counters.
#[derive(Debug, Clone, Copy)]
pub struct PlannerStats {
    /// Times each engine was picked, indexed by [`Engine::index`].
    pub picks: [u64; 5],
    /// Plan evaluations skipped because an identical plan (same
    /// `(net, structure, value)` key) was already evaluated in the same
    /// request: its result is shared, bitwise, for free.
    pub dedup_hits: u64,
}

/// Pick and dedup counters; all state is relaxed atomics.
#[derive(Debug, Default)]
pub struct Planner {
    picks: [AtomicU64; 5],
    dedup_hits: AtomicU64,
}

impl Planner {
    /// The process-wide planner.
    pub fn global() -> &'static Planner {
        static GLOBAL: OnceLock<Planner> = OnceLock::new();
        GLOBAL.get_or_init(Planner::default)
    }

    /// The engine the call paths run for `mix`: [`Engine::Cached`] when a
    /// cache is attached, [`Engine::SuffixResume`] otherwise. Records the
    /// pick.
    pub fn choose(&self, mix: &RequestMix) -> Engine {
        let picked = if mix.cache_available {
            Engine::Cached
        } else {
            Engine::SuffixResume
        };
        self.picks[picked.index()].fetch_add(1, Relaxed);
        picked
    }

    /// Accepts a measured execution and does nothing with it.
    pub fn observe(&self, _engine: Engine, _mix: &RequestMix, _elapsed_ns: u64) {}

    /// Record `plans` evaluations skipped by identical-plan result
    /// sharing (see [`PlannerStats::dedup_hits`]).
    pub fn note_dedup(&self, plans: u64) {
        self.dedup_hits.fetch_add(plans, Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlannerStats {
        PlannerStats {
            picks: std::array::from_fn(|i| self.picks[i].load(Relaxed)),
            dedup_hits: self.dedup_hits.load(Relaxed),
        }
    }
}
