//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a workspace layer's public API: name, start, end, parent span
//! and request id. They stay in memory during the run; at the end they
//! are aggregated into per-layer self time and (up to a cap) written to
//! a tab-separated file.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers spans are attributed to, by longest dotted-prefix match
/// of the span name. Anything under `bench.` is the benchmark's own time
/// (waiting, bookkeeping) — the unattributed part.
pub const LAYERS: [&str; 10] = [
    "nn",
    "inject.ir",
    "inject.planner",
    "inject.multi",
    "inject.cache",
    "inject.campaign",
    "core.measured",
    "serve",
    "fleet.router",
    "bench",
];

const NONE: u32 = u32::MAX;

/// Spans written to disk at most; aggregation uses every span.
const DUMP_CAP: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// One thread's recorder. Disabled recorders do nothing and cost a
/// branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`NONE` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Tracer {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[open.0 as usize].end = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
    }

    /// Record a span observed after the fact (e.g. a request measured on
    /// another thread). Returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return NONE;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            req,
            parent: parent.unwrap_or(NONE),
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
        });
        idx
    }

    /// Self time per layer, in ns, and the summed duration of root spans.
    pub fn self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut roots = 0u64;
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end - s.start;
            if s.parent == NONE {
                roots += dur;
            }
            *per_layer.entry(layer_of(s.name)).or_default() += dur.saturating_sub(children);
        }
        (per_layer, roots)
    }

    /// Write up to [`DUMP_CAP`] spans as TSV: index, parent, request,
    /// name, start ns, end ns.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().take(DUMP_CAP).enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }

    /// Mean cost in ns of one begin/end pair where the run executes, measured on a
    /// scratch recorder: the per-span tracing overhead.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 200_000;
        let mut t = Tracer::new(true, Instant::now());
        t.spans.reserve(N);
        let t0 = Instant::now();
        for i in 0..N {
            let o = t.begin("bench.probe", i as u64);
            t.end(o);
        }
        t0.elapsed().as_nanos() as f64 / N as f64
    }
}

pub fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .filter(|l| name == **l || name.starts_with(&format!("{l}.")))
        .max_by_key(|l| l.len())
        .copied()
        .unwrap_or("bench")
}
