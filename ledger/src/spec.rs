//! The benchmark's contract as data: the end-to-end metrics with their
//! regression bounds, and the per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same rows for the driver; a unit test keeps
//! the two from disagreeing on a name, a unit, a direction or a bound.

use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 7;

/// Measuring passes per workload when a person runs the whole ledger.
pub const REPETITIONS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of `segram` sees; every one is reported on every
/// workload (the README gives each workload's reading of each).
pub const END_TO_END: &[Metric] = &[
    e2e("reads_per_s", "reads/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_read", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("mapped_correct_share", "share", Better::Higher, 0.03),
    e2e("req_latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("index_update_s", "s", Better::Lower, 0.25),
    e2e("index_load_s", "s", Better::Lower, 0.25),
    e2e("sgi_mb", "MiB", Better::Lower, 0.015),
];

/// Metrics of single layers, from the traced run. A layer that is not on
/// a workload's path reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("io.inflate_ns_per_read", "ns", Lower),
    layer("io.inflate_mb_per_s", "MiB/s", Higher),
    layer("io.frame_ns_per_read", "ns", Lower),
    layer("io.decode_ns_per_read", "ns", Lower),
    layer("io.write_ns_per_read", "ns", Lower),
    layer("io.deflate_ns_per_read", "ns", Lower),
    layer("io.deflate_ratio", "ratio", Lower),
    layer("index.seed_ns_per_read", "ns", Lower),
    layer("index.minimizer_ns_per_read", "ns", Lower),
    layer("index.lookup_ns_per_read", "ns", Lower),
    layer("index.minimizers_per_read", "count", Lower),
    layer("index.seed_locations_per_read", "count", Lower),
    layer("index.regions_per_read", "count", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.apply_delta_s", "s", Lower),
    layer("index.encode_s", "s", Lower),
    layer("index.decode_s", "s", Lower),
    layer("index.carried_location_share", "share", Higher),
    layer("graph.extract_ns_per_region", "ns", Lower),
    layer("graph.region_chars_per_read", "count", Lower),
    layer("graph.construct_s", "s", Lower),
    layer("align.align_ns_per_region", "ns", Lower),
    layer("align.compute_ns_per_region", "ns", Lower),
    layer("align.traceback_ns_per_region", "ns", Lower),
    layer("align.windowed_ns_per_region", "ns", Lower),
    layer("align.regions_per_read", "count", Lower),
    layer("align.cells_per_read", "count", Lower),
    layer("align.ns_per_cell", "ns", Lower),
    layer("align.useful_region_share", "share", Higher),
    layer("core.map_read_ns_per_read", "ns", Lower),
    layer("core.driver_self_ns_per_read", "ns", Lower),
    layer("core.render_ns_per_read", "ns", Lower),
    layer("core.alignment_share", "share", Lower),
    layer("core.engine_efficiency", "share", Higher),
    layer("core.elastic_busiest_pool_share", "share", Lower),
    layer("serve.req_latency_p50_ms", "ms", Lower),
    layer("serve.queue_delay_p50_us", "us", Lower),
    layer("serve.queue_delay_p95_us", "us", Lower),
    layer("serve.connect_to_ok_us", "us", Lower),
    layer("serve.first_chunk_ms", "ms", Lower),
    layer("serve.busy_refusals", "count", Lower),
    layer("cli.process_start_ms", "ms", Lower),
    layer("cli.index_load_ms", "ms", Lower),
    layer("hw.modeled_ns_per_read", "ns", Lower),
    layer("hw.bitalign_utilization", "share", Higher),
    layer("hw.sw_over_modeled", "ratio", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// The metrics a run of the given kind must report.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn row(m: &Metric) -> String {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    }

    #[test]
    fn benchmark_json_states_these_tables() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                BENCHMARK_JSON.contains(&row(m)),
                "missing or stale: {}",
                row(m)
            );
        }
        for case in crate::workloads::CASES {
            let row = format!("{{\"name\": \"{}\", \"why\": \"", case.name);
            assert!(BENCHMARK_JSON.contains(&row), "no workload {}", case.name);
        }
        let named = crate::workloads::CASES.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(BENCHMARK_JSON.matches("\"name\": ").count(), named);
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = crate::workloads::CASES.iter().map(|c| c.name).collect();
        assert!((2..=8).contains(&names.len()));
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }
}
