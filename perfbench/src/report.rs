//! The metric catalogue and the run report.
//!
//! `E2E` and `LAYER` are the metric names and units `BENCHMARK.json`
//! lists under `end_to_end` and `per_layer`; a run prints every metric of
//! its mode. A per-layer metric of a layer the workload never calls reads
//! 0.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, measured in the traced run.
pub const LAYER: [(&str, &str); 75] = [
    ("tensor.gemm_nt_gflops.portable", "GFLOP/s"),
    ("tensor.gemm_nt_gflops.avx2", "GFLOP/s"),
    ("tensor.gemm_nt_gflops.avx512", "GFLOP/s"),
    ("tensor.gemm_nt_gflops.mixed32", "GFLOP/s"),
    ("tensor.gemm_tn_acc_gflops", "GFLOP/s"),
    ("tensor.sigmoid_ns_per_elem", "ns"),
    ("nn.forward_batch_us", "us"),
    ("nn.forward_batch_rows", "count"),
    ("nn.backward_batch_us", "us"),
    ("nn.train_epoch_ms", "ms"),
    ("inject.ir.admitted", "count"),
    ("inject.ir.bodies_compiled", "count"),
    ("inject.compile_us", "us"),
    ("inject.multi.suffix_us", "us"),
    ("inject.planner.picks.singleton", "count"),
    ("inject.planner.picks.whole-batch", "count"),
    ("inject.planner.picks.suffix-resume", "count"),
    ("inject.planner.picks.streaming", "count"),
    ("inject.planner.picks.cached", "count"),
    ("inject.cache.net_hash_us", "us"),
    ("inject.cache.input_hash_us", "us"),
    ("inject.cache.contains_us", "us"),
    ("inject.cache.lookup_us.hit", "us"),
    ("inject.cache.lookup_us.store_hit", "us"),
    ("inject.cache.lookup_us.miss", "us"),
    ("inject.cache.hit_ratio", "ratio"),
    ("inject.cache.hits", "count"),
    ("inject.cache.store_hits", "count"),
    ("inject.cache.misses", "count"),
    ("inject.cache.evictions", "count"),
    ("inject.cache.hash_share", "ratio"),
    ("inject.store.load_us", "us"),
    ("inject.store.publish_us", "us"),
    ("inject.store.record_bytes", "bytes"),
    ("inject.store.verify_rejects", "count"),
    ("inject.store.io_share", "ratio"),
    ("inject.campaign.trial_us", "us"),
    ("inject.campaign.evals_per_s", "1/s"),
    ("core.measured.sweep_ms", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.internal_latency_us.p50", "us"),
    ("serve.internal_latency_us.p99", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.flushes", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.nominal_rows_saved", "count"),
    ("serve.recovery_events", "count"),
    ("par.channel.handoff_ns", "ns"),
    ("fleet.router.submit_us.p50", "us"),
    ("fleet.router.submit_us.p99", "us"),
    ("fleet.router.idle_rtt_us", "us"),
    ("fleet.proto.encode_ns", "ns"),
    ("fleet.proto.decode_ns", "ns"),
    ("fleet.transport.pingpong_us", "us"),
    ("fleet.worker_share_max", "ratio"),
    ("fleet.recovery_events", "count"),
    ("bench.max_rate_qps", "1/s"),
    ("bench.latency_p99_us", "us"),
    ("bench.failed_ratio", "ratio"),
    ("bench.valid", "bool"),
    ("bench.gen_lag_us.p99", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_ratio", "ratio"),
    ("trace.self_share.nn", "ratio"),
    ("trace.self_share.inject.ir", "ratio"),
    ("trace.self_share.inject.planner", "ratio"),
    ("trace.self_share.inject.multi", "ratio"),
    ("trace.self_share.inject.cache", "ratio"),
    ("trace.self_share.inject.campaign", "ratio"),
    ("trace.self_share.core.measured", "ratio"),
    ("trace.self_share.serve", "ratio"),
    ("trace.self_share.fleet.router", "ratio"),
    ("trace.self_share.bench", "ratio"),
    ("trace.spans", "count"),
];

/// Everything one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches (also counted in `failed`).
    pub mismatches: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    /// Reasons the run is not comparable (empty on a healthy run).
    pub invalid: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(E2E.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layer.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count an output that differs from its oracle (it also failed).
    pub fn mismatch(&mut self) {
        self.mismatches += 1;
        self.failed += 1;
    }

    /// Count `n` attempted operations, `failed` of which failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Print every metric of the mode by name with its unit, then the
    /// one-line JSON result. Returns whether every output was correct.
    pub fn print(&mut self, traced: bool) -> bool {
        let correct = self.mismatches == 0;
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.layer("bench.failed_ratio", failed_ratio);
        self.layer("bench.valid", f64::from(u8::from(self.invalid.is_empty())));
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "attempted {} failed {} (failed_ratio {failed_ratio}) oracle_mismatches {}",
            self.attempted, self.failed, self.mismatches
        );
        if self.invalid.is_empty() {
            println!("valid: yes");
        } else {
            println!("valid: NO — not comparable: {}", self.invalid.join("; "));
        }
        let mut json = Vec::new();
        let catalogue: &[(&str, &str)] = if traced { &LAYER } else { &E2E };
        for (name, unit) in catalogue {
            let value = if traced {
                self.layer.get(*name).copied().unwrap_or(0.0)
            } else {
                *self
                    .e2e
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"))
            };
            assert!(value.is_finite(), "{name} = {value}");
            println!("metric {name} = {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            json.join(", ")
        );
        correct
    }
}
