//! Wall-clock throughput snapshots and wide-band performance gating.
//!
//! A [`PerfBaseline`] is the digest `repro --perf-baseline-out` writes
//! (committed as `BENCH_perf.json`) and `repro --perf-check` compares
//! against: for every figure that exercises the DMA fabric, the
//! deterministic work counters (events processed, bus packets, simulated
//! cycles) and the wall-clock seconds the figure's sweep took on the
//! recording host.
//!
//! The gate is deliberately asymmetric. The work counters are
//! deterministic — a change in any of them means the *model* changed and
//! the wall-clock numbers are no longer comparable, so they are compared
//! exactly. The throughput (events per wall second) is host-dependent
//! noise-prone, so it is gated one-sided with a wide relative band:
//! a regression beyond `band` fails, any speedup passes. A failed check
//! on a faster machine is impossible by construction; a failed check on
//! the recording machine means the event core genuinely got slower.
//!
//! Perf collection never shares an executor between figures and never
//! uses the disk cache: every run is computed from scratch so the
//! recorded seconds measure the simulator, not the cache.
//!
//! Intentional slowdowns (or a new reference host) are re-baselined by
//! regenerating the file with `--perf-baseline-out` and committing it
//! alongside the change.

use std::fmt;
use std::time::Instant;

use crate::baseline::{
    experiment_json, field_f64, field_str, field_u64, parse_experiment, round6, Drift, FieldError,
};
use crate::exec::SweepExecutor;
use crate::experiments::{self, ExperimentConfig, ExperimentError};
use crate::json::{self, JsonValue};
use crate::CellSystem;

/// Format version of the perf file; bumped on schema changes.
pub const PERF_VERSION: u64 = 1;

/// Relative regression band recorded when `--perf-band` is not given:
/// 50 %. Wall clocks on shared CI runners jitter by tens of percent;
/// the band only needs to catch algorithmic regressions (which move
/// throughput by integer factors), not tuning-level noise.
pub const DEFAULT_PERF_BAND: f64 = 0.5;

/// The figures a perf snapshot times: exactly those whose sweeps
/// exercise the DMA fabric (the ones
/// [`experiments::figure_metrics_with`] returns a summary for).
pub const PERF_FIGURES: &[&str] = &["8", "10", "12", "13", "15", "16"];

/// The timed digest of one figure's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFigure {
    /// Figure id ("8", "10", …).
    pub id: String,
    /// Kernel events processed across the figure's runs (deterministic).
    pub events: u64,
    /// Bus packets retired across the figure's runs (deterministic).
    pub packets: u64,
    /// Simulated bus cycles across the figure's runs (deterministic).
    pub sim_cycles: u64,
    /// Wall-clock seconds the sweep took, rounded to the file's
    /// 6-decimal precision.
    pub wall_seconds: f64,
}

impl PerfFigure {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }

    /// Bus packets retired per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }

    /// Simulated cycles per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }
}

/// A committed throughput snapshot: what `--perf-check` gates against.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaseline {
    /// One-sided relative regression band recorded at collection time
    /// (e.g. `0.5` = fail below half the recorded throughput);
    /// `--perf-band` overrides it at check time.
    pub band: f64,
    /// Worker threads the snapshot was timed with; `--perf-check`
    /// re-runs with the same count so wall clocks compare.
    pub jobs: usize,
    /// The experiment protocol the snapshot covers; `--perf-check`
    /// re-runs exactly this.
    pub experiment: ExperimentConfig,
    /// Per-figure timed digests, in [`PERF_FIGURES`] order.
    pub figures: Vec<PerfFigure>,
}

/// Why a perf file could not be read.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfError {
    /// What is wrong, with the JSON path that broke.
    pub message: String,
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid perf baseline: {}", self.message)
    }
}

impl std::error::Error for PerfError {}

fn bad(message: impl Into<String>) -> PerfError {
    PerfError {
        message: message.into(),
    }
}

impl From<FieldError> for PerfError {
    fn from(e: FieldError) -> PerfError {
        bad(e.0)
    }
}

impl PerfBaseline {
    /// Times every fabric figure of `cfg` with `jobs` workers and
    /// digests the result. Each figure gets a fresh, cache-free
    /// executor so the recorded seconds measure real computation and
    /// figures do not share deduplicated runs.
    ///
    /// # Errors
    ///
    /// The first [`ExperimentError`] any figure reports.
    pub fn collect(
        jobs: usize,
        system: &CellSystem,
        cfg: &ExperimentConfig,
        band: f64,
    ) -> Result<PerfBaseline, ExperimentError> {
        let mut figures = Vec::with_capacity(PERF_FIGURES.len());
        for id in PERF_FIGURES {
            let exec = SweepExecutor::new(jobs);
            let start = Instant::now();
            let summary = experiments::figure_metrics_with(&exec, system, cfg, id)?
                .expect("PERF_FIGURES lists only fabric figures");
            let wall = start.elapsed().as_secs_f64();
            figures.push(PerfFigure {
                id: (*id).to_string(),
                events: summary.events,
                packets: summary.packets,
                sim_cycles: summary.run_cycles,
                wall_seconds: round6(wall),
            });
        }
        Ok(PerfBaseline {
            band,
            jobs,
            experiment: cfg.clone(),
            figures,
        })
    }

    /// Total events per wall second over every figure — the headline
    /// throughput number the CI smoke step logs.
    pub fn total_events_per_sec(&self) -> f64 {
        let events: u64 = self.figures.iter().map(|f| f.events).sum();
        let wall: f64 = self.figures.iter().map(|f| f.wall_seconds).sum();
        events as f64 / wall.max(f64::MIN_POSITIVE)
    }

    /// Compares `current` (freshly collected) against this (recorded)
    /// snapshot.
    ///
    /// The deterministic work counters must match *exactly* — a
    /// mismatch means the model changed and the file must be
    /// regenerated, whatever the wall clocks say. Throughput is gated
    /// one-sided: a figure drifts only when its current events/sec
    /// falls below `(1 - band)` of the recorded value (`band` defaults
    /// to the recorded [`PerfBaseline::band`]); speedups never drift.
    pub fn compare(&self, current: &PerfBaseline, band: Option<f64>) -> Vec<Drift> {
        let band = band.unwrap_or(self.band);
        let mut drifts = Vec::new();
        if self.jobs != current.jobs {
            drifts.push(Drift {
                location: "perf jobs (wall clocks compare only at equal parallelism)".into(),
                baseline: self.jobs as f64,
                current: current.jobs as f64,
            });
        }
        if self.experiment != current.experiment {
            drifts.push(Drift {
                location: "perf experiment config".into(),
                baseline: 0.0,
                current: 1.0,
            });
        }
        for fig in &self.figures {
            let Some(cur) = current.figures.iter().find(|c| c.id == fig.id) else {
                drifts.push(Drift {
                    location: format!("perf figure {}: missing from current run", fig.id),
                    baseline: fig.events as f64,
                    current: 0.0,
                });
                continue;
            };
            for (what, b, c) in [
                ("events", fig.events, cur.events),
                ("packets", fig.packets, cur.packets),
                ("sim_cycles", fig.sim_cycles, cur.sim_cycles),
            ] {
                if b != c {
                    drifts.push(Drift {
                        location: format!(
                            "perf figure {} {what} (deterministic: must match exactly; \
                             re-baseline after model changes)",
                            fig.id
                        ),
                        baseline: b as f64,
                        current: c as f64,
                    });
                }
            }
            let floor = fig.events_per_sec() * (1.0 - band);
            if cur.events_per_sec() < floor {
                drifts.push(Drift {
                    location: format!(
                        "perf figure {} events/sec (regression beyond the {:.0}% band)",
                        fig.id,
                        100.0 * band
                    ),
                    baseline: fig.events_per_sec(),
                    current: cur.events_per_sec(),
                });
            }
        }
        for fig in &current.figures {
            if !self.figures.iter().any(|b| b.id == fig.id) {
                drifts.push(Drift {
                    location: format!("perf figure {}: not in baseline (re-baseline?)", fig.id),
                    baseline: 0.0,
                    current: fig.events as f64,
                });
            }
        }
        drifts
    }

    /// Serializes the snapshot as deterministic JSON (keys in fixed
    /// order, floats at 6 decimals, one line). The derived
    /// `events_per_sec` field is informational and ignored on parse.
    pub fn to_json(&self) -> String {
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|f| {
                format!(
                    "{{\"id\":\"{}\",\"events\":{},\"packets\":{},\
                     \"sim_cycles\":{},\"wall_seconds\":{:.6},\
                     \"events_per_sec\":{:.6}}}",
                    json::escape(&f.id),
                    f.events,
                    f.packets,
                    f.sim_cycles,
                    f.wall_seconds,
                    f.events_per_sec()
                )
            })
            .collect();
        format!(
            "{{\"version\":{},\"band\":{:.6},\"jobs\":{},\"experiment\":{},\"figures\":[{}]}}\n",
            PERF_VERSION,
            self.band,
            self.jobs,
            experiment_json(&self.experiment),
            figures.join(",")
        )
    }

    /// Parses a perf file.
    ///
    /// # Errors
    ///
    /// [`PerfError`] naming the missing or malformed field.
    pub fn from_json(text: &str) -> Result<PerfBaseline, PerfError> {
        let doc = json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = field_u64(&doc, "version")?;
        if version != PERF_VERSION {
            return Err(bad(format!(
                "unsupported perf version {version} (expected {PERF_VERSION})"
            )));
        }
        let cfg = parse_experiment(&doc)?;
        let figures = doc
            .get("figures")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing 'figures'"))?
            .iter()
            .map(|f| {
                Ok(PerfFigure {
                    id: field_str(f, "id")?,
                    events: field_u64(f, "events")?,
                    packets: field_u64(f, "packets")?,
                    sim_cycles: field_u64(f, "sim_cycles")?,
                    wall_seconds: field_f64(f, "wall_seconds")?,
                })
            })
            .collect::<Result<Vec<_>, PerfError>>()?;
        Ok(PerfBaseline {
            band: field_f64(&doc, "band")?,
            jobs: usize::try_from(field_u64(&doc, "jobs")?)
                .map_err(|_| bad("jobs out of range"))?,
            experiment: cfg,
            figures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfBaseline {
        PerfBaseline {
            band: 0.5,
            jobs: 1,
            experiment: ExperimentConfig::quick(),
            figures: vec![
                PerfFigure {
                    id: "8".into(),
                    events: 1_000_000,
                    packets: 50_000,
                    sim_cycles: 2_000_000,
                    wall_seconds: 2.0,
                },
                PerfFigure {
                    id: "10".into(),
                    events: 400_000,
                    packets: 20_000,
                    sim_cycles: 900_000,
                    wall_seconds: 1.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let b = sample();
        let parsed = PerfBaseline::from_json(&b.to_json()).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn committed_perf_file_re_serializes_byte_for_byte() {
        let text = include_str!("../../../BENCH_perf.json");
        let parsed = PerfBaseline::from_json(text).expect("committed perf file parses");
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn identical_snapshots_have_no_drift() {
        let b = sample();
        assert!(b.compare(&b.clone(), None).is_empty());
        // Even with a zero band: equal throughput is not "below" it.
        assert!(b.compare(&b.clone(), Some(0.0)).is_empty());
    }

    #[test]
    fn speedups_never_drift() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures[0].wall_seconds = 0.1; // 20x faster
        assert!(b.compare(&cur, Some(0.0)).is_empty(), "one-sided gate");
    }

    #[test]
    fn regressions_beyond_the_band_drift() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures[0].wall_seconds = 3.0; // -33%: inside a 50% band
        assert!(b.compare(&cur, None).is_empty());
        let drifts = b.compare(&cur, Some(0.1)); // outside a 10% band
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].location.contains("figure 8 events/sec"));
    }

    #[test]
    fn deterministic_counts_gate_exactly_whatever_the_band() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures[1].packets += 1;
        let drifts = b.compare(&cur, Some(f64::INFINITY));
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].location.contains("figure 10 packets"));
        assert!(drifts[0].location.contains("deterministic"));
    }

    #[test]
    fn jobs_mismatch_is_a_drift() {
        let b = sample();
        let mut cur = b.clone();
        cur.jobs = 4;
        let drifts = b.compare(&cur, None);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].location.contains("jobs"));
    }

    #[test]
    fn missing_figure_is_reported() {
        let b = sample();
        let mut cur = b.clone();
        cur.figures.remove(1);
        let drifts = b.compare(&cur, None);
        assert!(drifts
            .iter()
            .any(|d| d.location.contains("figure 10: missing")));
    }

    #[test]
    fn malformed_files_name_the_field() {
        let err = PerfBaseline::from_json("{}").unwrap_err();
        assert!(err.message.contains("version"));
        let err = PerfBaseline::from_json("not json").unwrap_err();
        assert!(err.message.contains("JSON error"));
    }

    #[test]
    fn collect_times_every_fabric_figure() {
        // A deliberately tiny protocol so this stays a unit test.
        let cfg = ExperimentConfig {
            volume_per_spe: 16 << 10,
            dma_elem_sizes: vec![4096],
            placements: 1,
            seed: 0xCE11,
        };
        let system = CellSystem::blade();
        let perf = PerfBaseline::collect(1, &system, &cfg, DEFAULT_PERF_BAND).expect("collects");
        assert_eq!(perf.figures.len(), PERF_FIGURES.len());
        for fig in &perf.figures {
            assert!(fig.events > 0, "figure {} counted no events", fig.id);
            assert!(fig.packets > 0, "figure {} counted no packets", fig.id);
            assert!(fig.sim_cycles > 0, "figure {} ran no cycles", fig.id);
            assert!(fig.wall_seconds > 0.0);
        }
        assert!(perf.total_events_per_sec() > 0.0);
        // The work counters are deterministic: a second collection
        // drifts only if throughput regressed, never on the counts.
        let again = PerfBaseline::collect(1, &system, &cfg, DEFAULT_PERF_BAND).expect("collects");
        let drifts = perf.compare(&again, Some(f64::INFINITY));
        assert!(
            drifts.is_empty(),
            "deterministic counter drifted: {drifts:?}"
        );
    }
}
