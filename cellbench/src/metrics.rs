//! Metric names, units and the result line.

use std::collections::HashMap;

use crate::stats::median;

/// The end-to-end metrics a plain run reports, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// The per-layer metrics a traced run reports, with their units, in
/// `BENCHMARK.json` order. A count of work a workload's runs never do
/// (`mem.accesses` on `spe-exchange`) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("experiments.build_ms", "ms"),
    ("fabric.run_ms", "ms"),
    ("fabric.ns_per_packet", "ns"),
    ("fabric.events", "count"),
    ("fabric.packets", "count"),
    ("fabric.events_per_packet", "ratio"),
    ("fabric.suppressed_pumps", "count"),
    ("fabric.sim_cycles", "cycles"),
    ("fabric.peak_live_packets", "count"),
    ("kernel.queue_ns_per_event", "ns"),
    ("eib.arbitrate_ns_per_grant", "ns"),
    ("eib.grants", "count"),
    ("eib.busy_cycles", "cycles"),
    ("eib.stall_cycles", "cycles"),
    ("mem.submit_ns", "ns"),
    ("mem.accesses", "count"),
    ("mem.busy_cycles", "cycles"),
    ("mem.stall_cycles", "cycles"),
    ("mfc.issue_ns_per_packet", "ns"),
    ("mfc.stall_slot_cycles", "cycles"),
    ("mfc.stall_sync_cycles", "cycles"),
    ("exec.try_run_ms", "ms"),
    ("exec.hits", "count"),
    ("exec.misses", "count"),
    ("exec.hit_rate", "ratio"),
    ("diskcache.load_us", "us"),
    ("diskcache.encode_us", "us"),
    ("diskcache.decode_us", "us"),
    ("diskcache.entry_bytes", "bytes"),
    ("diskcache.loaded", "count"),
    ("diskcache.discarded", "count"),
    ("tracestore.record_ms", "ms"),
    ("tracestore.open_ms", "ms"),
    ("tracestore.recount_ms", "ms"),
    ("tracestore.sink_self_ms", "ms"),
    ("tracestore.bytes_per_packet", "bytes"),
    ("tracestore.written", "count"),
    ("tracestore.errors", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.result_line_us", "us"),
    ("client.batch_ms", "ms"),
    ("serve.wire_wait_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.deduped", "count"),
    ("serve.rejected", "count"),
    ("serve.queue_peak", "count"),
    ("serve.timeouts", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("host.reference_ms", "ms"),
    ("error_rate", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (runs, batches, passes or calls).
    pub samples: usize,
}

impl Metric {
    /// A metric measured over `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Per-layer values gathered by name; [`LayerValues::into_metrics`]
/// lays them out as [`PER_LAYER`], zero where nothing was measured.
#[derive(Debug, Default)]
pub struct LayerValues(HashMap<&'static str, (f64, usize)>);

impl LayerValues {
    /// Sets `name` to `value` measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    /// Sets `name` to the median of `samples`, if there are any.
    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, median(samples), samples.len());
        }
    }

    /// Every [`PER_LAYER`] metric, in order.
    #[must_use]
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, value, unit, samples)
            })
            .collect()
    }
}

/// The result line: one JSON object with the metrics whose names are in
/// `declared`.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    declared: &[(&str, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| declared.iter().any(|&(name, _)| name == m.name))
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
