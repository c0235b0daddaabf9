//! Every metric the benchmark prints, with its unit — the single list
//! `BENCHMARK.json` must agree with (a test checks it does).

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("live_serial_ms", "ms"),
    m("live_parallel_ms", "ms"),
    m("bare_parallel_ms", "ms"),
    m("offline_parallel_ms", "ms"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("forkrt.bare_serial_ms", "ms"),
    m("forkrt.empty_run_us", "us"),
    m("forkrt.steals", "count"),
    m("forkrt.steal_success", "ratio"),
    m("forkrt.parks", "count"),
    m("spprog.threads", "count"),
    m("spprog.accesses", "count"),
    m("spprog.maint_serial_ms", "ms"),
    m("spprog.maint_share", "ratio"),
    m("sphybrid.maint_parallel_ms", "ms"),
    m("sphybrid.traces", "count"),
    m("sphybrid.query_ns", "ns"),
    m("spmaint.query_ns", "ns"),
    m("spmaint.queries", "count"),
    m("sphybrid.sp_bytes", "bytes"),
    m("racedet.shadow_bytes", "bytes"),
    m("om.growth", "count"),
    m("dsu.growth", "count"),
    m("racedet.check_serial_ns", "ns"),
    m("racedet.check_parallel_ns", "ns"),
    m("racedet.check_share", "ratio"),
    m("racedet.lockfree_share", "ratio"),
    m("racedet.locked", "count"),
    m("racedet.races", "count"),
    m("session_p50_ms", "ms"),
    m("session_tail_ms", "ms"),
    m("service_max_sps", "1/s"),
    m("service_sat_sps", "1/s"),
    m("spservice.queue_wait_p50_ms", "ms"),
    m("spservice.queue_wait_tail_ms", "ms"),
    m("spservice.run_p50_ms", "ms"),
    m("spservice.sjf_share", "ratio"),
    m("spservice.estimate_err", "ratio"),
    m("spservice.arena_reuse", "ratio"),
    m("spservice.arenas", "count"),
    m("spservice.quarantined", "count"),
    m("spservice.backlog_slope", "ms/s"),
    m("spprog.enforce_x", "ratio"),
    m("spmetrics.attached_x", "ratio"),
    m("loadgen.late_ms_tail", "ms"),
    m("trace.overhead_x", "ratio"),
    m("trace.events", "count"),
    m("workloads.gen_s", "s"),
    m("spprog.record_s", "s"),
    m("spservice.reference_s", "s"),
    m("error_rate", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.unit.len() <= 16);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }
}
