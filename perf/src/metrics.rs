//! The names this benchmark prints. `BENCHMARK.json` declares the same
//! names; `tests/quick.rs` fails when the two lists differ.

use std::collections::BTreeMap;

/// Timed seconds per run that the op counts in `workloads.rs` are tuned
/// for. `--seconds` scales every op count by `seconds / RUN_SECONDS`.
pub const RUN_SECONDS: f64 = 16.0;

pub const WORKLOADS: [&str; 5] = [
    "clover_mem",
    "clover_mem_plan",
    "clover_dist_cache",
    "mgcfd_mem",
    "serve_mix",
];

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(layer.name, unit)`, printed by every traced run.
/// Probe metrics are measured on every workload; a metric taken from the
/// run itself is 0 on a workload that does not run that layer.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("stream.triad_gbs", "GB/s"),
    ("stream.copy_gbs", "GB/s"),
    ("stream.triad_cache_gbs", "GB/s"),
    ("machine.c2c_latency_ns", "ns"),
    ("ops.closure_gbs", "GB/s"),
    ("ops.rows_gbs", "GB/s"),
    ("ops.fused_gbs", "GB/s"),
    ("ops.nt_gbs", "GB/s"),
    ("ops.tiled_gbs", "GB/s"),
    ("ops.reduce_gbs", "GB/s"),
    ("ops.rows_roof_frac", "ratio"),
    ("ops.loop_dispatch_us", "us"),
    ("ops.halo_exchange_us", "us"),
    ("ops.bytes_per_step", "B"),
    ("ops.loops_per_step", "count"),
    ("ops.profile_time_frac", "ratio"),
    ("shmpi.pingpong_us", "us"),
    ("shmpi.pingpong_spsc_us", "us"),
    ("shmpi.msg_gbs", "GB/s"),
    ("shmpi.allreduce_us", "us"),
    ("shmpi.barrier_us", "us"),
    ("shmpi.universe_spawn_us", "us"),
    ("shmpi.wait_frac", "ratio"),
    ("shmpi.msgs_per_step", "count"),
    ("shmpi.bytes_per_step", "B"),
    ("shmpi.unreceived", "count"),
    ("op2.direct_gbs", "GB/s"),
    ("op2.colored_gbs", "GB/s"),
    ("op2.block_colored_gbs", "GB/s"),
    ("op2.gather_gbs", "GB/s"),
    ("op2.color_build_ms", "ms"),
    ("op2.n_colors", "count"),
    ("op2.schedule_stride", "count"),
    ("op2.rcb_partition_ms", "ms"),
    ("op2.rank_halo_exchange_us", "us"),
    ("op2.bytes_per_step", "B"),
    ("op2.loops_per_step", "count"),
    ("apps.step_ms_p50", "ms"),
    ("apps.step_ms_p90", "ms"),
    ("apps.step_ms_p99", "ms"),
    ("apps.eff_gbs", "GB/s"),
    ("apps.warmup_ms", "ms"),
    ("apps.validation", "ratio"),
    ("apps.flops_per_byte", "flop/B"),
    ("apps.mgcfd_flux_ms", "ms"),
    ("apps.mgcfd_time_step_ms", "ms"),
    ("apps.mgcfd_restrict_ms", "ms"),
    ("apps.mgcfd_prolong_ms", "ms"),
    ("dslcheck.static_plan_ms", "ms"),
    ("dslcheck.plan_certs", "count"),
    ("dslcheck.static_all_ms", "ms"),
    ("dslcheck.placement_search_ms", "ms"),
    ("perfmodel.all_figures_ms", "ms"),
    ("memsim.cachesim_mlines_s", "Mlines/s"),
    ("serve.parse_key_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.http_healthz_us", "us"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.req_ms_p99", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("serve.bind_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("trace.off_call_ns", "ns"),
    ("trace.on_overhead_frac", "ratio"),
    ("trace.bench_span_overhead_frac", "ratio"),
    ("host.nproc", "count"),
    ("host.llc_bytes", "B"),
    ("host.ws_over_llc", "ratio"),
    ("host.calib_drift_frac", "ratio"),
];

/// Metric values of one run, keyed by a name from one of the tables.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric '{name}' is not in a table of metrics.rs");
        let twice = self.0.insert(name, value).is_some();
        assert!(!twice, "metric '{name}' was measured twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values in table order. Panics when a name of the table was not
    /// measured: a run must never print a partial set.
    pub fn in_order(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric '{name}' was not measured"));
                (name, unit, v)
            })
            .collect()
    }
}
