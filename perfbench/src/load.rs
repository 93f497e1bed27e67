//! Load generators shared by the two serving workloads: an open loop
//! (seeded Poisson arrivals, one submitting thread, one resolving
//! thread) and a closed loop with a fixed window of outstanding requests
//! from the same two threads.
//!
//! Open-loop latency is timed from when a request was *due*, not when it
//! was sent, so a stall in the system also charges the requests queued
//! behind it; how late the generator itself ran is reported separately.
//!
//! The generators' own memory stays small and independent of throughput
//! (so peak RSS measures the system under test): answers are folded into
//! a digest in resolution order — which is submission order — and only
//! the fixed-rate reference step keeps per-request samples.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{digest, quantile, us, wait_until, Stream};

/// A serving front-end under load.
pub trait Target: Sync {
    type Handle: Send;
    /// The generated input of query `q`: plan index and input row.
    fn query(&self, q: u64) -> (usize, Vec<f64>);
    /// Submit a query; `None` if it was refused at submission.
    fn submit(&self, plan: usize, input: Vec<f64>) -> Option<Self::Handle>;
    /// Wait for the answer: the value and, when the layer reports it,
    /// its own submit→response latency. `None` on a typed failure.
    fn resolve(&self, h: Self::Handle) -> Option<(f64, Option<Duration>)>;
}

/// The answers of one phase: queries `first_q..first_q + attempted`,
/// minus the failed ones, folded into a digest in query order.
#[derive(Default)]
pub struct Answered {
    pub first_q: u64,
    pub attempted: u64,
    /// Failed queries, ascending.
    pub failed_q: Vec<u64>,
    pub digest: u64,
}

impl Answered {
    fn new(first_q: u64) -> Answered {
        Answered {
            first_q,
            ..Answered::default()
        }
    }

    fn answer(&mut self, q: u64, value: f64) {
        self.digest = fold(self.digest, q, value);
    }

    pub fn answered(&self) -> impl Iterator<Item = u64> + '_ {
        (self.first_q..self.first_q + self.attempted)
            .filter(|q| self.failed_q.binary_search(q).is_err())
    }

    pub fn count(&self) -> u64 {
        self.attempted - self.failed_q.len() as u64
    }
}

pub fn fold(acc: u64, q: u64, value: f64) -> u64 {
    digest(digest(acc, q), value.to_bits())
}

/// Latency histogram with 1% wide log buckets from 1 µs: fixed memory
/// for the ladder steps, whose only use is a pass/fail decision.
pub struct Hist(Vec<u32>);

const BUCKET: f64 = 1.01;

impl Hist {
    fn new() -> Hist {
        Hist(vec![0; 2048])
    }

    fn add(&mut self, v_us: f64) {
        let b = (v_us.max(1.0).ln() / BUCKET.ln()) as usize;
        let last = self.0.len() - 1;
        self.0[b.min(last)] += 1;
    }

    /// Upper edge of the bucket holding quantile `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let n: u64 = self.0.iter().map(|&c| u64::from(c)).sum();
        let rank = (q * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.0.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return BUCKET.powi(b as i32 + 1);
            }
        }
        0.0
    }
}

/// Per-request samples of the reference step.
#[derive(Default)]
pub struct Samples {
    /// Due→resolved latency of every answered request, µs.
    pub latency_us: Vec<f64>,
    /// p90 and p99 latency of each of the equal time slices of the
    /// step, µs.
    pub window_p90_us: Vec<f64>,
    pub window_p99_us: Vec<f64>,
    /// Duration of the submit call, µs.
    pub submit_us: Vec<f64>,
    /// The layer's own submit→response latency, µs (when reported).
    pub internal_us: Vec<f64>,
    /// How late the generator submitted each request, µs.
    pub lag_us: Vec<f64>,
}

/// What one open-loop step observed.
pub struct Step {
    pub rate: f64,
    pub hist: Hist,
    /// Mean outstanding requests over the second half exceeded the first
    /// half's by more than half again plus a batch: the backlog grows.
    pub backlog_grew: bool,
    pub answers: Answered,
    pub samples: Option<Samples>,
}

impl Step {
    pub fn meets(&self, limit_us: f64) -> bool {
        self.answers.failed_q.is_empty()
            && !self.backlog_grew
            && self.hist.quantile(0.99) <= limit_us
    }
}

struct Sent<H> {
    q: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: Option<H>,
}

/// Open loop at `rate` requests/s for `dur`, queries `first_q..`. With
/// `windows > 0` per-request samples are kept, and when `tracer` is on
/// each request becomes a `bench.request` span (due→resolved) with a
/// `layer.0` child for the submit call and, if the layer reports its own
/// latency, a `layer.1` child after it.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<T: Target>(
    t: &T,
    rate: f64,
    dur: Duration,
    first_q: u64,
    seed: u64,
    windows: usize,
    layer: (&'static str, &'static str),
    tracer: &mut Tracer,
) -> Step {
    let mut arrivals = Stream::new(seed, first_q ^ rate.to_bits());
    let mut offsets = Vec::new();
    let mut at = 0.0;
    loop {
        at += arrivals.exp(rate);
        if at >= dur.as_secs_f64() {
            break;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
    let n = offsets.len();
    let outstanding = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent<T::Handle>>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut answers = Answered::new(first_q);
    answers.attempted = n as u64;
    let mut hist = Hist::new();
    let mut samples = (windows > 0).then(Samples::default);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let (first_half, second_half) = std::thread::scope(|s| {
        let outstanding = &outstanding;
        let offsets = &offsets;
        let keep_lag = windows > 0;
        let submitter = s.spawn(move || {
            let mut depth = [0.0f64; 2];
            let mut lag = Vec::with_capacity(if keep_lag { offsets.len() } else { 0 });
            for (i, off) in offsets.iter().enumerate() {
                let due = start + *off;
                wait_until(due);
                let q = first_q + i as u64;
                let (plan, input) = t.query(q);
                let submit_start = Instant::now();
                if keep_lag {
                    lag.push(us(submit_start - due));
                }
                let handle = t.submit(plan, input);
                let submit_end = Instant::now();
                depth[usize::from(2 * i >= offsets.len())] +=
                    outstanding.fetch_add(1, Ordering::Relaxed) as f64;
                let sent = Sent {
                    q,
                    due,
                    submit_start,
                    submit_end,
                    handle,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            (depth, lag)
        });
        for sent in rx.iter() {
            let result = sent.handle.and_then(|h| t.resolve(h));
            let done = Instant::now();
            outstanding.fetch_sub(1, Ordering::Relaxed);
            let Some((value, internal)) = result else {
                answers.failed_q.push(sent.q);
                continue;
            };
            answers.answer(sent.q, value);
            let lat = us(done - sent.due);
            hist.add(lat);
            let Some(smp) = samples.as_mut() else {
                continue;
            };
            smp.latency_us.push(lat);
            smp.submit_us.push(us(sent.submit_end - sent.submit_start));
            let w =
                ((sent.due - start).as_secs_f64() / dur.as_secs_f64() * windows as f64) as usize;
            per_window[w.min(windows - 1)].push(lat);
            if let Some(d) = internal {
                smp.internal_us.push(us(d));
            }
            if tracer.on() {
                let root = tracer.record("bench.request", sent.q, None, sent.due, done);
                tracer.record(
                    layer.0,
                    sent.q,
                    Some(root),
                    sent.submit_start,
                    sent.submit_end,
                );
                if let Some(d) = internal {
                    let end = (sent.submit_start + d).min(done);
                    if end > sent.submit_end {
                        tracer.record(layer.1, sent.q, Some(root), sent.submit_end, end);
                    }
                }
            }
        }
        let (depth, lag) = submitter.join().expect("submitter thread");
        if let Some(smp) = samples.as_mut() {
            smp.lag_us = lag;
            for w in per_window.iter_mut().filter(|w| !w.is_empty()) {
                smp.window_p90_us.push(quantile(w, 0.90));
                smp.window_p99_us.push(quantile(w, 0.99));
            }
        }
        (depth[0], depth[1])
    });
    let half = (n / 2).max(1) as f64;
    Step {
        rate,
        hist,
        backlog_grew: second_half / half > 1.5 * (first_half / half) + 64.0,
        answers,
        samples,
    }
}

/// What the closed loop observed.
pub struct Saturation {
    pub answers: Answered,
    /// Completions per second in each of the equal time windows.
    pub window_rates: Vec<f64>,
}

/// Closed loop: keep `window` requests outstanding for `dur`, queries
/// `first_q..`. A bounded hand-off channel between the two threads holds
/// the window, so neither thread spins.
pub fn closed_loop<T: Target>(
    t: &T,
    window: usize,
    dur: Duration,
    first_q: u64,
    windows: usize,
) -> Saturation {
    let (tx, rx) = mpsc::sync_channel::<(u64, Option<T::Handle>)>(window.saturating_sub(2).max(1));
    let start = Instant::now();
    let deadline = start + dur;
    let mut answers = Answered::new(first_q);
    let mut done_in = vec![0u64; windows];
    std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut q = first_q;
            while Instant::now() < deadline {
                let (plan, input) = t.query(q);
                if tx.send((q, t.submit(plan, input))).is_err() {
                    break;
                }
                q += 1;
            }
            q - first_q
        });
        for (q, handle) in rx.iter() {
            match handle.and_then(|h| t.resolve(h)) {
                Some((value, _)) => {
                    answers.answer(q, value);
                    let at = start.elapsed().as_secs_f64() / dur.as_secs_f64();
                    if at < 1.0 {
                        done_in[(at * windows as f64) as usize] += 1;
                    }
                }
                None => answers.failed_q.push(q),
            }
        }
        answers.attempted = submitter.join().expect("submitter thread");
    });
    let window_s = dur.as_secs_f64() / windows as f64;
    Saturation {
        answers,
        window_rates: done_in.iter().map(|&n| n as f64 / window_s).collect(),
    }
}

/// The three phases both serving workloads run, in order: an open-loop
/// step at the fixed reference rate, a closed loop with 64 requests
/// outstanding, and a rate ladder (doubling from `ladder_start` while the
/// step meets the latency limit), taking 45%, 35% and 20% of the run.
pub struct Phases {
    pub max_rate: f64,
    pub ladder: Vec<Step>,
    pub reference: Step,
    pub saturation: Saturation,
    /// Peak RSS of the system under test (the benchmark process plus
    /// any worker processes), read after the reference step.
    pub peak_rss_mb: f64,
}

const LADDER_STEPS: usize = 6;
/// Time slices of the reference and saturation phases; each reports the
/// median over its slices, so one slow slice does not move the result.
const WINDOWS: usize = 15;
/// A run whose generator ran later than this share of the latency limit
/// (p99, reference step) is marked not comparable.
pub const LAG_SHARE: f64 = 0.25;

impl Phases {
    #[allow(clippy::too_many_arguments)]
    pub fn run<T: Target>(
        t: &T,
        args: &crate::Args,
        ladder_start: f64,
        limit_us: f64,
        reference_rate: f64,
        layer: (&'static str, &'static str),
        peak_rss: &dyn Fn() -> f64,
        tracer: &mut Tracer,
    ) -> Phases {
        let reference = open_loop(
            t,
            reference_rate,
            args.secs(0.45),
            20 << 32,
            args.seed,
            WINDOWS,
            layer,
            tracer,
        );
        // Read after the fixed-rate step, whose request count depends on
        // the seed alone: the later phases serve a throughput-dependent
        // number of requests (and fleet workers log every request), and a
        // ladder step past capacity queues requests in the generator.
        let peak_rss_mb = peak_rss();
        let saturation = closed_loop(t, 64, args.secs(0.35), 30 << 32, WINDOWS);
        let mut quiet = Tracer::new(false, args.t0);
        let step_dur = args.secs(0.2 / LADDER_STEPS as f64);
        let mut ladder = Vec::new();
        let mut max_rate = 0.0;
        for i in 0..LADDER_STEPS {
            let rate = ladder_start * (1u64 << i) as f64;
            let first_q = (1 + i as u64) << 32;
            let step = open_loop(t, rate, step_dur, first_q, args.seed, 0, layer, &mut quiet);
            let ok = step.meets(limit_us);
            ladder.push(step);
            if !ok {
                break;
            }
            max_rate = rate;
        }
        Phases {
            max_rate,
            ladder,
            reference,
            saturation,
            peak_rss_mb,
        }
    }

    fn all(&self) -> impl Iterator<Item = &Answered> {
        self.ladder
            .iter()
            .map(|s| &s.answers)
            .chain([&self.reference.answers, &self.saturation.answers])
    }

    /// The oracle: refold every phase's answered queries over the
    /// reference values `reference(queries)` returns (in order). A phase
    /// whose digest differs counts one mismatch.
    pub fn check(&self, mut reference: impl FnMut(&[u64]) -> Vec<f64>, r: &mut Report) {
        for a in self.all() {
            let qs: Vec<u64> = a.answered().collect();
            let mut d = 0;
            for chunk in qs.chunks(4096) {
                for (&q, v) in chunk.iter().zip(reference(chunk)) {
                    d = fold(d, q, v);
                }
            }
            if d != a.digest {
                r.mismatch();
            }
        }
    }

    /// Counts, end-to-end metrics, the ladder and the generator-lag gate.
    pub fn report(&self, limit_us: f64, r: &mut Report) {
        for a in self.all() {
            r.count(a.attempted, a.failed_q.len() as u64);
        }
        for s in &self.ladder {
            r.note(format!(
                "ladder rate {} q/s: p50 {:.0} us, p99 {:.0} us, failed {}, backlog grew {} -> {}",
                s.rate,
                s.hist.quantile(0.5),
                s.hist.quantile(0.99),
                s.answers.failed_q.len(),
                s.backlog_grew,
                if s.meets(limit_us) {
                    "meets limit"
                } else {
                    "misses limit"
                }
            ));
        }
        r.note(format!(
            "max_rate_qps = {} 1/s (p99 <= {limit_us} us)",
            self.max_rate
        ));
        r.layer("bench.max_rate_qps", self.max_rate);
        r.e2e("peak_rss_mb", self.peak_rss_mb);
        let smp = self
            .reference
            .samples
            .as_ref()
            .expect("reference keeps samples");
        r.e2e("latency_p50_us", quantile(&mut smp.latency_us.clone(), 0.5));
        // The tail is p90, taken in the quieter slices: on a shared
        // 2-vCPU host, preemption by other tenants stalls a few requests a
        // second by milliseconds, which moves p99 by 4-6x from run to run,
        // and now and then stalls a tenth of a run's requests for a
        // stretch of seconds. So: each slice's p90, and of those the first
        // quartile. p99 is kept as a per-layer metric.
        r.e2e(
            "latency_tail_us",
            quantile(&mut smp.window_p90_us.clone(), 0.25),
        );
        r.layer(
            "bench.latency_p99_us",
            quantile(&mut smp.window_p99_us.clone(), 0.5),
        );
        r.e2e(
            "throughput_per_s",
            quantile(&mut self.saturation.window_rates.clone(), 0.5),
        );
        r.note(format!(
            "reference rate {} q/s: {} answered, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, window p90s {:.0?}, window p99s {:.0?}",
            self.reference.rate,
            smp.latency_us.len(),
            quantile(&mut smp.latency_us.clone(), 0.5),
            quantile(&mut smp.latency_us.clone(), 0.9),
            quantile(&mut smp.latency_us.clone(), 0.99),
            smp.window_p90_us,
            smp.window_p99_us
        ));
        r.note(format!(
            "saturation (window 64): {} answered, window rates {:.0?}",
            self.saturation.answers.count(),
            self.saturation.window_rates
        ));
        let lag = quantile(&mut smp.lag_us.clone(), 0.99);
        r.layer("bench.gen_lag_us.p99", lag);
        if lag > LAG_SHARE * limit_us {
            r.invalid.push(format!(
                "generator lag p99 {lag:.1} us exceeds {LAG_SHARE} of the {limit_us} us limit"
            ));
        }
    }
}
