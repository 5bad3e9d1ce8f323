//! Performance-baseline snapshots and regression gating.
//!
//! A [`Baseline`] is the digest `repro --baseline-out` writes and
//! `repro --check` compares against: for every paper figure, the
//! bandwidth at each (series, x) point, the placement spreads, and —
//! for the figures that exercise the DMA fabric — the per-path latency
//! percentiles and phase attribution from
//! [`LatencyMetrics`](crate::latency::LatencyMetrics).
//!
//! The file embeds the [`ExperimentConfig`] it was collected with and
//! the [`config_fingerprint`] of the machine model. `--check` re-runs
//! the *baseline's* experiment config (so a committed quick-scale
//! baseline stays fast to verify) and reports every drifted value; a
//! changed machine model shows up both as a fingerprint mismatch and as
//! value drifts, each naming the figure and metric that moved.
//!
//! Intentional modelling changes are re-baselined by regenerating the
//! file with `--baseline-out` and committing it alongside the change.

use std::fmt;

use crate::exec::{config_fingerprint, SweepExecutor};
use crate::experiments::{self, ExperimentConfig, ExperimentError};
use crate::json::{self, JsonValue};
use crate::latency::DmaPathClass;
use crate::metrics::MetricsSummary;
use crate::report::{Figure, SpreadFigure};
use crate::CellSystem;

/// Format version of the baseline file; bumped on schema changes.
pub const BASELINE_VERSION: u64 = 1;

/// One recorded bandwidth point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthPoint {
    /// Series label ("2 SPEs", "get", …).
    pub series: String,
    /// Swept-parameter label ("128 B", …).
    pub x: String,
    /// Bandwidth in GB/s, rounded to the file's 6-decimal precision.
    pub gbps: f64,
}

/// The bandwidth digest of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureDigest {
    /// Figure id ("8a", "10", …).
    pub id: String,
    /// Every (series, x) point, in figure order.
    pub points: Vec<BandwidthPoint>,
}

/// One row of a placement-spread figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadRow {
    /// Swept-parameter label.
    pub x: String,
    /// min/median/mean/max over placements, rounded to 6 decimals.
    pub stats: [f64; 4],
}

/// The digest of one spread figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadDigest {
    /// Figure id ("13a", "16b", …).
    pub id: String,
    /// One row per swept value.
    pub rows: Vec<SpreadRow>,
}

/// The latency-percentile digest of one path of one figure's sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDigest {
    /// Path name ("mem-get", …).
    pub path: String,
    /// Commands retired on the path.
    pub commands: u64,
    /// p50/p95/p99/max end-to-end latency in bus cycles.
    pub percentiles: [u64; 4],
    /// Σ cycles per phase (queue/slot/ring/service).
    pub phase_cycles: [u64; 4],
}

/// The latency digest of one fabric figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyDigest {
    /// Figure id ("8", "10", …).
    pub figure: String,
    /// Per-path digests in [`DmaPathClass::ALL`] order.
    pub paths: Vec<PathDigest>,
    /// count/p50/p95/p99/max of the element-service histogram.
    pub element_service: [u64; 5],
}

/// A committed performance snapshot: what `--check` gates against.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// [`config_fingerprint`] of the machine model that produced it.
    pub config_fingerprint: u64,
    /// Relative tolerance band recorded at collection time (e.g. `0.01`
    /// = 1 %); `--check-tolerance` overrides it.
    pub tolerance: f64,
    /// The experiment protocol the snapshot covers; `--check` re-runs
    /// exactly this.
    pub experiment: ExperimentConfig,
    /// Per-figure bandwidth points.
    pub figures: Vec<FigureDigest>,
    /// Per-figure placement spreads.
    pub spreads: Vec<SpreadDigest>,
    /// Per-figure latency digests (fabric figures only).
    pub latency: Vec<LatencyDigest>,
}

/// One value that moved outside the tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// What moved, e.g. `figure 8a ["2 SPEs" @ 128 B] GB/s` or
    /// `figure 8 latency mem-get p95`.
    pub location: String,
    /// The recorded value.
    pub baseline: f64,
    /// The just-measured value.
    pub current: f64,
}

impl Drift {
    fn relative(&self) -> f64 {
        let scale = self.baseline.abs().max(self.current.abs());
        if scale == 0.0 {
            0.0
        } else {
            (self.baseline - self.current).abs() / scale
        }
    }
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {} -> current {} ({:+.2}%)",
            self.location,
            self.baseline,
            self.current,
            100.0 * self.relative()
        )
    }
}

/// Why a baseline file could not be read.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineError {
    /// What is wrong, with the JSON path that broke.
    pub message: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid baseline: {}", self.message)
    }
}

impl std::error::Error for BaselineError {}

fn bad(message: impl Into<String>) -> BaselineError {
    BaselineError {
        message: message.into(),
    }
}

/// A missing or malformed field in a gate file (`BENCH_baseline.json`
/// or `BENCH_perf.json`); each file's own error type wraps the message.
#[derive(Debug)]
pub(crate) struct FieldError(pub(crate) String);

impl From<FieldError> for BaselineError {
    fn from(e: FieldError) -> BaselineError {
        bad(e.0)
    }
}

/// Rounds through the gate files' 6-decimal representation so collected
/// and re-parsed values compare bit-identically.
pub(crate) fn round6(x: f64) -> f64 {
    format!("{x:.6}")
        .parse()
        .expect("formatted float re-parses")
}

impl Baseline {
    /// Runs the whole experiment suite on `exec` and digests it.
    ///
    /// # Errors
    ///
    /// The first [`ExperimentError`] any figure reports.
    pub fn collect(
        exec: &SweepExecutor,
        system: &CellSystem,
        cfg: &ExperimentConfig,
        tolerance: f64,
    ) -> Result<Baseline, ExperimentError> {
        let (figures, spreads) = experiments::all_figures_with(exec, system, cfg)?;
        let mut latency = Vec::new();
        for id in experiments::FIGURE_IDS {
            if let Some(summary) = experiments::figure_metrics_with(exec, system, cfg, id)? {
                latency.push(LatencyDigest::from_summary(id, &summary));
            }
        }
        Ok(Baseline {
            config_fingerprint: config_fingerprint(system.config()),
            tolerance,
            experiment: cfg.clone(),
            figures: figures.iter().map(FigureDigest::from_figure).collect(),
            spreads: spreads.iter().map(SpreadDigest::from_figure).collect(),
            latency,
        })
    }

    /// Compares `current` (freshly collected) against this (recorded)
    /// baseline and returns every drift outside `tolerance` (defaults
    /// to the recorded [`Baseline::tolerance`]). Missing or extra
    /// figures, series and paths are drifts too — a schema change must
    /// re-baseline explicitly.
    pub fn compare(&self, current: &Baseline, tolerance: Option<f64>) -> Vec<Drift> {
        let tol = tolerance.unwrap_or(self.tolerance);
        let mut drifts = Vec::new();
        fn gate(drifts: &mut Vec<Drift>, tol: f64, location: String, baseline: f64, current: f64) {
            let d = Drift {
                location,
                baseline,
                current,
            };
            if d.relative() > tol || !tol.is_finite() {
                drifts.push(d);
            }
        }
        if self.config_fingerprint != current.config_fingerprint {
            drifts.push(Drift {
                location: "machine config fingerprint".into(),
                baseline: self.config_fingerprint as f64,
                current: current.config_fingerprint as f64,
            });
        }
        if self.experiment != current.experiment {
            drifts.push(Drift {
                location: "experiment config".into(),
                baseline: 0.0,
                current: 1.0,
            });
        }
        for fig in &self.figures {
            let Some(cur) = current.figures.iter().find(|c| c.id == fig.id) else {
                drifts.push(Drift {
                    location: format!("figure {}: missing from current run", fig.id),
                    baseline: fig.points.len() as f64,
                    current: 0.0,
                });
                continue;
            };
            for p in &fig.points {
                match cur
                    .points
                    .iter()
                    .find(|c| c.series == p.series && c.x == p.x)
                {
                    Some(c) => gate(
                        &mut drifts,
                        tol,
                        format!("figure {} [{:?} @ {}] GB/s", fig.id, p.series, p.x),
                        p.gbps,
                        c.gbps,
                    ),
                    None => drifts.push(Drift {
                        location: format!(
                            "figure {} [{:?} @ {}]: point missing from current run",
                            fig.id, p.series, p.x
                        ),
                        baseline: p.gbps,
                        current: f64::NAN,
                    }),
                }
            }
        }
        for fig in &current.figures {
            if !self.figures.iter().any(|b| b.id == fig.id) {
                drifts.push(Drift {
                    location: format!("figure {}: not in baseline (re-baseline?)", fig.id),
                    baseline: 0.0,
                    current: fig.points.len() as f64,
                });
            }
        }
        for sp in &self.spreads {
            let Some(cur) = current.spreads.iter().find(|c| c.id == sp.id) else {
                drifts.push(Drift {
                    location: format!("spread {}: missing from current run", sp.id),
                    baseline: sp.rows.len() as f64,
                    current: 0.0,
                });
                continue;
            };
            const STATS: [&str; 4] = ["min", "median", "mean", "max"];
            for row in &sp.rows {
                match cur.rows.iter().find(|c| c.x == row.x) {
                    Some(c) => {
                        for (name, (b, v)) in STATS.iter().zip(row.stats.iter().zip(c.stats.iter()))
                        {
                            gate(
                                &mut drifts,
                                tol,
                                format!("spread {} [{} {}] GB/s", sp.id, row.x, name),
                                *b,
                                *v,
                            );
                        }
                    }
                    None => drifts.push(Drift {
                        location: format!(
                            "spread {} [{}]: row missing from current run",
                            sp.id, row.x
                        ),
                        baseline: row.stats[0],
                        current: f64::NAN,
                    }),
                }
            }
        }
        const PCTS: [&str; 4] = ["p50", "p95", "p99", "max"];
        for lat in &self.latency {
            let Some(cur) = current.latency.iter().find(|c| c.figure == lat.figure) else {
                drifts.push(Drift {
                    location: format!("figure {} latency: missing from current run", lat.figure),
                    baseline: lat.paths.len() as f64,
                    current: 0.0,
                });
                continue;
            };
            for path in &lat.paths {
                let Some(c) = cur.paths.iter().find(|c| c.path == path.path) else {
                    drifts.push(Drift {
                        location: format!(
                            "figure {} latency {}: path missing from current run",
                            lat.figure, path.path
                        ),
                        baseline: path.commands as f64,
                        current: 0.0,
                    });
                    continue;
                };
                gate(
                    &mut drifts,
                    tol,
                    format!("figure {} latency {} commands", lat.figure, path.path),
                    path.commands as f64,
                    c.commands as f64,
                );
                for (name, (b, v)) in PCTS
                    .iter()
                    .zip(path.percentiles.iter().zip(c.percentiles.iter()))
                {
                    gate(
                        &mut drifts,
                        tol,
                        format!("figure {} latency {} {}", lat.figure, path.path, name),
                        *b as f64,
                        *v as f64,
                    );
                }
                for (phase, (b, v)) in ["queue-wait", "slot-wait", "ring-wait", "service"]
                    .iter()
                    .zip(path.phase_cycles.iter().zip(c.phase_cycles.iter()))
                {
                    gate(
                        &mut drifts,
                        tol,
                        format!(
                            "figure {} latency {} phase {}",
                            lat.figure, path.path, phase
                        ),
                        *b as f64,
                        *v as f64,
                    );
                }
            }
            for (name, (b, v)) in ["count", "p50", "p95", "p99", "max"]
                .iter()
                .zip(lat.element_service.iter().zip(cur.element_service.iter()))
            {
                gate(
                    &mut drifts,
                    tol,
                    format!("figure {} latency element-service {}", lat.figure, name),
                    *b as f64,
                    *v as f64,
                );
            }
        }
        drifts
    }

    /// Serializes the baseline as deterministic JSON (keys in fixed
    /// order, floats at 6 decimals, one line).
    pub fn to_json(&self) -> String {
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|f| {
                let points: Vec<String> = f
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"series\":\"{}\",\"x\":\"{}\",\"gbps\":{:.6}}}",
                            json::escape(&p.series),
                            json::escape(&p.x),
                            p.gbps
                        )
                    })
                    .collect();
                format!(
                    "{{\"id\":\"{}\",\"points\":[{}]}}",
                    json::escape(&f.id),
                    points.join(",")
                )
            })
            .collect();
        let spreads: Vec<String> = self
            .spreads
            .iter()
            .map(|s| {
                let rows: Vec<String> = s
                    .rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"x\":\"{}\",\"min\":{:.6},\"median\":{:.6},\
                             \"mean\":{:.6},\"max\":{:.6}}}",
                            json::escape(&r.x),
                            r.stats[0],
                            r.stats[1],
                            r.stats[2],
                            r.stats[3]
                        )
                    })
                    .collect();
                format!(
                    "{{\"id\":\"{}\",\"rows\":[{}]}}",
                    json::escape(&s.id),
                    rows.join(",")
                )
            })
            .collect();
        let latency: Vec<String> = self
            .latency
            .iter()
            .map(|l| {
                let paths: Vec<String> = l
                    .paths
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"path\":\"{}\",\"commands\":{},\
                             \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\
                             \"phase_cycles\":[{},{},{},{}]}}",
                            json::escape(&p.path),
                            p.commands,
                            p.percentiles[0],
                            p.percentiles[1],
                            p.percentiles[2],
                            p.percentiles[3],
                            p.phase_cycles[0],
                            p.phase_cycles[1],
                            p.phase_cycles[2],
                            p.phase_cycles[3]
                        )
                    })
                    .collect();
                let es = l.element_service;
                format!(
                    "{{\"figure\":\"{}\",\"paths\":[{}],\
                     \"element_service\":{{\"count\":{},\"p50\":{},\
                     \"p95\":{},\"p99\":{},\"max\":{}}}}}",
                    json::escape(&l.figure),
                    paths.join(","),
                    es[0],
                    es[1],
                    es[2],
                    es[3],
                    es[4]
                )
            })
            .collect();
        format!(
            "{{\"version\":{},\"config_fingerprint\":{},\"tolerance\":{:.6},\
             \"experiment\":{},\"figures\":[{}],\"spreads\":[{}],\"latency\":[{}]}}\n",
            BASELINE_VERSION,
            self.config_fingerprint,
            self.tolerance,
            experiment_json(&self.experiment),
            figures.join(","),
            spreads.join(","),
            latency.join(",")
        )
    }

    /// Parses a baseline file.
    ///
    /// # Errors
    ///
    /// [`BaselineError`] naming the missing or malformed field.
    pub fn from_json(text: &str) -> Result<Baseline, BaselineError> {
        let doc = json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = field_u64(&doc, "version")?;
        if version != BASELINE_VERSION {
            return Err(bad(format!(
                "unsupported baseline version {version} (expected {BASELINE_VERSION})"
            )));
        }
        let cfg = parse_experiment(&doc)?;
        let figures = doc
            .get("figures")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing 'figures'"))?
            .iter()
            .map(|f| {
                let id = field_str(f, "id")?;
                let points = f
                    .get("points")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| bad(format!("figure {id}: missing 'points'")))?
                    .iter()
                    .map(|p| {
                        Ok(BandwidthPoint {
                            series: field_str(p, "series")?,
                            x: field_str(p, "x")?,
                            gbps: field_f64(p, "gbps")?,
                        })
                    })
                    .collect::<Result<Vec<_>, BaselineError>>()?;
                Ok(FigureDigest { id, points })
            })
            .collect::<Result<Vec<_>, BaselineError>>()?;
        let spreads = doc
            .get("spreads")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing 'spreads'"))?
            .iter()
            .map(|s| {
                let id = field_str(s, "id")?;
                let rows = s
                    .get("rows")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| bad(format!("spread {id}: missing 'rows'")))?
                    .iter()
                    .map(|r| {
                        Ok(SpreadRow {
                            x: field_str(r, "x")?,
                            stats: [
                                field_f64(r, "min")?,
                                field_f64(r, "median")?,
                                field_f64(r, "mean")?,
                                field_f64(r, "max")?,
                            ],
                        })
                    })
                    .collect::<Result<Vec<_>, BaselineError>>()?;
                Ok(SpreadDigest { id, rows })
            })
            .collect::<Result<Vec<_>, BaselineError>>()?;
        let latency = doc
            .get("latency")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing 'latency'"))?
            .iter()
            .map(|l| {
                let figure = field_str(l, "figure")?;
                let paths = l
                    .get("paths")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| bad(format!("latency {figure}: missing 'paths'")))?
                    .iter()
                    .map(|p| {
                        let phases = p
                            .get("phase_cycles")
                            .and_then(JsonValue::as_array)
                            .filter(|a| a.len() == 4)
                            .ok_or_else(|| bad("bad 'phase_cycles'"))?;
                        let mut phase_cycles = [0u64; 4];
                        for (slot, v) in phase_cycles.iter_mut().zip(phases) {
                            *slot = v.as_u64().ok_or_else(|| bad("bad phase cycle"))?;
                        }
                        Ok(PathDigest {
                            path: field_str(p, "path")?,
                            commands: field_u64(p, "commands")?,
                            percentiles: [
                                field_u64(p, "p50")?,
                                field_u64(p, "p95")?,
                                field_u64(p, "p99")?,
                                field_u64(p, "max")?,
                            ],
                            phase_cycles,
                        })
                    })
                    .collect::<Result<Vec<_>, BaselineError>>()?;
                let es = l
                    .get("element_service")
                    .ok_or_else(|| bad(format!("latency {figure}: missing 'element_service'")))?;
                Ok(LatencyDigest {
                    figure,
                    paths,
                    element_service: [
                        field_u64(es, "count")?,
                        field_u64(es, "p50")?,
                        field_u64(es, "p95")?,
                        field_u64(es, "p99")?,
                        field_u64(es, "max")?,
                    ],
                })
            })
            .collect::<Result<Vec<_>, BaselineError>>()?;
        Ok(Baseline {
            config_fingerprint: field_u64(&doc, "config_fingerprint")?,
            tolerance: field_f64(&doc, "tolerance")?,
            experiment: cfg,
            figures,
            spreads,
            latency,
        })
    }
}

/// The `"experiment"` object both gate files embed: the protocol a
/// check re-runs.
pub(crate) fn experiment_json(cfg: &ExperimentConfig) -> String {
    let sizes: Vec<String> = cfg.dma_elem_sizes.iter().map(u32::to_string).collect();
    format!(
        "{{\"volume_per_spe\":{},\"dma_elem_sizes\":[{}],\"placements\":{},\"seed\":{}}}",
        cfg.volume_per_spe,
        sizes.join(","),
        cfg.placements,
        cfg.seed
    )
}

/// Parses `doc`'s `"experiment"` object (see [`experiment_json`]).
pub(crate) fn parse_experiment(doc: &JsonValue) -> Result<ExperimentConfig, FieldError> {
    let err = |message: &str| FieldError(message.to_string());
    let experiment = doc
        .get("experiment")
        .ok_or_else(|| err("missing 'experiment'"))?;
    let sizes = experiment
        .get("dma_elem_sizes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| err("missing 'experiment.dma_elem_sizes'"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| err("bad element size"))
        })
        .collect::<Result<Vec<u32>, _>>()?;
    Ok(ExperimentConfig {
        volume_per_spe: field_u64(experiment, "volume_per_spe")?,
        dma_elem_sizes: sizes,
        placements: usize::try_from(field_u64(experiment, "placements")?)
            .map_err(|_| err("placements out of range"))?,
        seed: field_u64(experiment, "seed")?,
    })
}

pub(crate) fn field_u64(v: &JsonValue, key: &str) -> Result<u64, FieldError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| FieldError(format!("missing or non-integer '{key}'")))
}

pub(crate) fn field_f64(v: &JsonValue, key: &str) -> Result<f64, FieldError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| FieldError(format!("missing or non-numeric '{key}'")))
}

pub(crate) fn field_str(v: &JsonValue, key: &str) -> Result<String, FieldError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| FieldError(format!("missing or non-string '{key}'")))
}

impl FigureDigest {
    fn from_figure(fig: &Figure) -> FigureDigest {
        FigureDigest {
            id: fig.id.clone(),
            points: fig
                .series
                .iter()
                .flat_map(|s| {
                    s.points.iter().map(|p| BandwidthPoint {
                        series: s.label.clone(),
                        x: p.x.clone(),
                        gbps: round6(p.gbps),
                    })
                })
                .collect(),
        }
    }
}

impl SpreadDigest {
    fn from_figure(fig: &SpreadFigure) -> SpreadDigest {
        SpreadDigest {
            id: fig.id.clone(),
            rows: fig
                .rows
                .iter()
                .map(|(x, s)| SpreadRow {
                    x: x.clone(),
                    stats: [
                        round6(s.min),
                        round6(s.median),
                        round6(s.mean),
                        round6(s.max),
                    ],
                })
                .collect(),
        }
    }
}

impl LatencyDigest {
    fn from_summary(figure: &str, summary: &MetricsSummary) -> LatencyDigest {
        let paths = DmaPathClass::ALL
            .iter()
            .enumerate()
            .map(|(pi, path)| {
                let p = &summary.latency.paths[pi];
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            config_fingerprint: 0xDEAD_BEEF_u64,
            tolerance: 0.01,
            experiment: ExperimentConfig::quick(),
            figures: vec![FigureDigest {
                id: "8a".into(),
                points: vec![BandwidthPoint {
                    series: "1 SPE".into(),
                    x: "128 B".into(),
                    gbps: 1.234567,
                }],
            }],
            spreads: vec![SpreadDigest {
                id: "13a".into(),
                rows: vec![SpreadRow {
                    x: "16 KB".into(),
                    stats: [1.0, 2.0, 2.5, 4.0],
                }],
            }],
            latency: vec![LatencyDigest {
                figure: "8".into(),
                paths: vec![PathDigest {
                    path: "mem-get".into(),
                    commands: 256,
                    percentiles: [100, 200, 300, 400],
                    phase_cycles: [10, 20, 30, 40],
                }],
                element_service: [256, 90, 180, 270, 360],
            }],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let b = sample();
        let parsed = Baseline::from_json(&b.to_json()).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn committed_baseline_re_serializes_byte_for_byte() {
        let text = include_str!("../../../BENCH_baseline.json");
        let parsed = Baseline::from_json(text).expect("committed baseline parses");
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn identical_baselines_have_no_drift() {
        let b = sample();
        assert!(b.compare(&b.clone(), None).is_empty());
        // Even at zero tolerance: values are bit-identical.
        assert!(b.compare(&b.clone(), Some(0.0)).is_empty());
    }

    #[test]
    fn value_drift_names_the_figure_and_metric() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures[0].points[0].gbps = 2.0;
        cur.latency[0].paths[0].percentiles[1] = 900;
        let drifts = b.compare(&cur, None);
        assert_eq!(drifts.len(), 2);
        assert!(drifts[0].location.contains("figure 8a"));
        assert!(drifts[0].location.contains("128 B"));
        assert!(drifts[1].location.contains("latency mem-get p95"));
    }

    #[test]
    fn fingerprint_mismatch_is_a_drift() {
        let b = sample();
        let mut cur = b.clone();
        cur.config_fingerprint ^= 1;
        let drifts = b.compare(&cur, None);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].location.contains("fingerprint"));
    }

    #[test]
    fn tolerance_band_filters_small_drift() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures[0].points[0].gbps *= 1.005; // +0.5%
        assert!(b.compare(&cur, None).is_empty(), "inside 1% band");
        assert_eq!(b.compare(&cur, Some(0.001)).len(), 1, "outside 0.1%");
        // A perturbed (negative) tolerance fails everything measurable.
        assert!(!b.compare(&b.clone(), Some(-1.0)).is_empty());
    }

    #[test]
    fn missing_figure_is_reported() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures.clear();
        let drifts = b.compare(&cur, None);
        assert!(drifts
            .iter()
            .any(|d| d.location.contains("figure 8a: missing")));
    }

    #[test]
    fn malformed_files_name_the_field() {
        let err = Baseline::from_json("{}").unwrap_err();
        assert!(err.message.contains("version"));
        let err = Baseline::from_json("not json").unwrap_err();
        assert!(err.message.contains("JSON error"));
    }
}
