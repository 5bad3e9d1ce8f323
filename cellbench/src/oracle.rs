//! Correctness checks on the program's outputs.
//!
//! Every run's report must satisfy the model's conservation laws, every
//! pass of a workload must reproduce the first pass bit for bit, every
//! recorded trace store must reconcile with its manifest and report,
//! and — at the default seed and quick scale — the figures rendered
//! from a simulator workload's reports must reproduce the committed
//! `BENCH_baseline.json` at tolerance 0. `FabricMetrics::events` and
//! `suppressed_pumps` are left out of the exact comparisons, so a change
//! that removes events without changing the model still passes.

use std::path::Path;
use std::sync::Arc;

use cellsim_core::baseline::{
    BandwidthPoint, Baseline, FigureDigest, LatencyDigest, PathDigest, SpreadDigest, SpreadRow,
};
use cellsim_core::exec::{config_fingerprint, RunSpec, SweepExecutor};
use cellsim_core::experiments::{self, ExperimentConfig};
use cellsim_core::report::{Figure, SpreadFigure};
use cellsim_core::tracestore::{Manifest, TraceStore};
use cellsim_core::{CellSystem, DmaPathClass, FabricReport, MetricsSummary};

/// `report` with the event-count counters zeroed: the part of a report
/// a simulator-only speed-up must leave identical.
fn normalized(report: &FabricReport) -> FabricReport {
    let mut r = report.clone();
    r.metrics.events = 0;
    r.metrics.suppressed_pumps = 0;
    r
}

/// Whether two reports agree on everything but the event counters.
#[must_use]
pub fn same_outputs(a: &FabricReport, b: &FabricReport) -> bool {
    normalized(a) == normalized(b)
}

/// Checks one report against the conservation laws of its run.
///
/// # Errors
///
/// The first law the report breaks.
pub fn check_report(spec: &RunSpec, report: &FabricReport) -> Result<(), String> {
    let want = spec.plan.total_bytes();
    if report.total_bytes != want {
        return Err(format!(
            "delivered {} bytes, plan moves {want}",
            report.total_bytes
        ));
    }
    if report.packets == 0 || report.cycles == 0 {
        return Err("empty run".to_string());
    }
    if report.metrics.run_cycles != report.cycles {
        return Err("metrics run length differs from the report's".to_string());
    }
    if report.metrics.faults.any() {
        return Err("fault activity on a healthy blade".to_string());
    }
    for (spe, m) in report.metrics.per_spe.iter().enumerate() {
        if m.accounted_cycles() != report.cycles {
            return Err(format!(
                "SPE {spe} accounts {} cycles of {}",
                m.accounted_cycles(),
                report.cycles
            ));
        }
    }
    let per_spe: u64 = report.per_spe_bytes.iter().sum();
    if per_spe != report.total_bytes {
        return Err("per-SPE bytes do not sum to the total".to_string());
    }
    Ok(())
}

/// Reconciles a recorded run's trace store with its manifest and with
/// the report the recording returned (the `cellsim-trace check` rules).
///
/// # Errors
///
/// Every drift found, joined.
pub fn reconcile(
    manifest: &Manifest,
    store: &TraceStore,
    recount: ([u64; 4], u64),
    report: &FabricReport,
) -> Result<(), String> {
    let (counts, delivered_bytes) = recount;
    let t = store.totals();
    let mut drifts = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            drifts.push(format!("{what}: {got} != {want}"));
        }
    };
    expect("recount issue", counts[0], t.issued);
    expect("recount mem", counts[1], t.mem_accesses);
    expect("recount grant", counts[2], t.grants);
    expect("recount deliver", counts[3], t.delivered);
    expect(
        "recount delivered bytes",
        delivered_bytes,
        t.delivered_bytes,
    );
    expect("deliver events vs packets", t.delivered, manifest.packets);
    expect(
        "delivered bytes vs total_bytes",
        t.delivered_bytes,
        manifest.total_bytes,
    );
    expect(
        "issue events vs packets+abandoned",
        t.issued,
        manifest.packets + manifest.abandoned,
    );
    expect(
        "store sim events vs manifest",
        t.sim_events,
        manifest.events,
    );
    expect("trace events vs manifest", t.events, manifest.trace_events);
    expect(
        "trace bytes vs manifest",
        store.size_bytes(),
        manifest.trace_bytes,
    );
    expect(
        "manifest packets vs report",
        manifest.packets,
        report.packets,
    );
    expect(
        "manifest bytes vs report",
        manifest.total_bytes,
        report.total_bytes,
    );
    expect("manifest cycles vs report", manifest.cycles, report.cycles);
    if format!("{:016x}", store.payload_checksum()) != manifest.trace_checksum {
        drifts.push("payload checksum differs from the manifest".to_string());
    }
    if drifts.is_empty() {
        Ok(())
    } else {
        Err(drifts.join("; "))
    }
}

/// Renders `figures` from already-computed reports and compares them
/// with the committed baseline at tolerance 0.
///
/// The reports are preloaded into an executor, so rendering simulates
/// nothing; a figure that would need a run outside `specs` is an error.
///
/// # Errors
///
/// Why the baseline could not be read, or every drift found.
pub fn check_baseline(
    baseline_path: &Path,
    system: &CellSystem,
    cfg: &ExperimentConfig,
    figures: &[&str],
    specs: &[RunSpec],
    reports: &[Arc<FabricReport>],
) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let recorded = Baseline::from_json(&text).map_err(|e| e.to_string())?;
    let exec = SweepExecutor::new(1);
    for (spec, report) in specs.iter().zip(reports) {
        exec.preload(spec.key.clone(), Arc::clone(report));
    }
    let mut rendered: Vec<Figure> = Vec::new();
    let mut spreads: Vec<SpreadFigure> = Vec::new();
    let mut latency_ids: Vec<&str> = Vec::new();
    let err = |e: experiments::ExperimentError| e.to_string();
    for &figure in figures {
        match figure {
            "8" => rendered.extend(experiments::figure8_with(&exec, system, cfg).map_err(err)?),
            "12" => {
                rendered.extend(experiments::figure12_with(&exec, system, cfg).map_err(err)?);
                spreads.extend(experiments::figure13_with(&exec, system, cfg).map_err(err)?);
                latency_ids.push("13");
            }
            "15" => {
                rendered.extend(experiments::figure15_with(&exec, system, cfg).map_err(err)?);
                spreads.extend(experiments::figure16_with(&exec, system, cfg).map_err(err)?);
                latency_ids.push("16");
            }
            "gups" => {
                rendered.push(experiments::figure_gups_with(&exec, system, cfg).map_err(err)?)
            }
            "stencil" => {
                rendered.push(experiments::figure_stencil_with(&exec, system, cfg).map_err(err)?);
            }
            "pairlist" => {
                rendered.push(experiments::figure_pairlist_with(&exec, system, cfg).map_err(err)?);
            }
            other => return Err(format!("figure {other} has no baseline renderer")),
        }
        latency_ids.push(figure);
    }
    let mut latency = Vec::new();
    for id in &latency_ids {
        let summary = experiments::figure_metrics_with(&exec, system, cfg, id)
            .map_err(err)?
            .ok_or_else(|| format!("figure {id} has no metrics digest"))?;
        latency.push(latency_digest(id, &summary));
    }
    let misses = exec.stats().misses;
    if misses > 0 {
        return Err(format!(
            "rendering needed {misses} runs outside the workload's reports"
        ));
    }
    let current = Baseline {
        config_fingerprint: config_fingerprint(system.config()),
        tolerance: recorded.tolerance,
        experiment: cfg.clone(),
        figures: rendered.iter().map(figure_digest).collect(),
        spreads: spreads.iter().map(spread_digest).collect(),
        latency,
    };
    // The file stores six decimals; round the fresh digest the same way.
    let current = Baseline::from_json(&current.to_json()).map_err(|e| e.to_string())?;
    let expected = Baseline {
        figures: recorded
            .figures
            .iter()
            .filter(|f| current.figures.iter().any(|c| c.id == f.id))
            .cloned()
            .collect(),
        spreads: recorded
            .spreads
            .iter()
            .filter(|f| current.spreads.iter().any(|c| c.id == f.id))
            .cloned()
            .collect(),
        latency: recorded
            .latency
            .iter()
            .filter(|f| current.latency.iter().any(|c| c.figure == f.figure))
            .cloned()
            .collect(),
        ..recorded
    };
    let drifts = expected.compare(&current, Some(0.0));
    if drifts.is_empty() {
        Ok(())
    } else {
        let shown: Vec<String> = drifts.iter().take(5).map(ToString::to_string).collect();
        Err(format!(
            "{} baseline drift(s): {}",
            drifts.len(),
            shown.join("; ")
        ))
    }
}

fn figure_digest(fig: &Figure) -> FigureDigest {
    FigureDigest {
        id: fig.id.clone(),
        points: fig
            .series
            .iter()
            .flat_map(|s| {
                s.points.iter().map(|p| BandwidthPoint {
                    series: s.label.clone(),
                    x: p.x.clone(),
                    gbps: p.gbps,
                })
            })
            .collect(),
    }
}

fn spread_digest(fig: &SpreadFigure) -> SpreadDigest {
    SpreadDigest {
        id: fig.id.clone(),
        rows: fig
            .rows
            .iter()
            .map(|(x, s)| SpreadRow {
                x: x.clone(),
                stats: [s.min, s.median, s.mean, s.max],
            })
            .collect(),
    }
}

fn latency_digest(figure: &str, summary: &MetricsSummary) -> LatencyDigest {
    let paths = DmaPathClass::ALL
        .iter()
        .zip(&summary.latency.paths)
        .map(|(path, p)| {
            let h = &p.end_to_end;
            PathDigest {
                path: path.name().to_string(),
                commands: p.commands,
                percentiles: [h.percentile(50), h.percentile(95), h.percentile(99), h.max],
                phase_cycles: p.phase_cycles,
            }
        })
        .collect();
    let es = &summary.latency.element_service;
    LatencyDigest {
        figure: figure.to_string(),
        paths,
        element_service: [
            es.count,
            es.percentile(50),
            es.percentile(95),
            es.percentile(99),
            es.max,
        ],
    }
}
