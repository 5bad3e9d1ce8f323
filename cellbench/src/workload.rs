//! The four workloads and the inputs each generates from its seed.

use std::collections::HashSet;

use cellsim_core::exec::{RunKey, RunSpec};
use cellsim_core::experiments::{figure_points, figure_specs, ExperimentConfig};
use cellsim_core::CellSystem;

/// The seed the committed `BENCH_baseline.json` was recorded at.
pub const DEFAULT_SEED: u64 = 0xCE11;

/// Runs per `serve-warm` batch.
pub const BATCH_RUNS: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every Figure 8 run: SPE↔memory GET/PUT/GET+PUT.
    MemStream,
    /// Every Figure 12 and 15 run: SPE↔SPE couples and cycles.
    SpeExchange,
    /// Every GUPS, stencil and pair-list run, recorded to a trace store
    /// and read back.
    AppRecord,
    /// Closed-loop client batches against an in-process daemon whose
    /// disk cache holds every Figure 8/12/15 report.
    ServeWarm,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` gates all but `spe-exchange`,
    /// whose run-to-run spread reached the bound on the host that set it.
    pub const ALL: [Workload; 4] = [
        Workload::MemStream,
        Workload::SpeExchange,
        Workload::AppRecord,
        Workload::ServeWarm,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemStream => "mem-stream",
            Workload::SpeExchange => "spe-exchange",
            Workload::AppRecord => "app-record",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The figures whose run specs make up the workload (for
    /// `serve-warm`: the figures whose reports fill the daemon's cache).
    #[must_use]
    pub fn figures(self) -> &'static [&'static str] {
        match self {
            Workload::MemStream => &["8"],
            Workload::SpeExchange => &["12", "15"],
            Workload::AppRecord => &["gups", "stencil", "pairlist"],
            Workload::ServeWarm => &["8", "12", "15"],
        }
    }

    /// Whether the workload simulates in its timed loop.
    #[must_use]
    pub fn simulates(self) -> bool {
        self != Workload::ServeWarm
    }
}

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The quick-scale figure protocol the committed baseline records.
    Quick,
    /// A few small runs per workload, for the benchmark's self-tests.
    Tiny,
}

/// The experiment protocol of `scale`, with `seed` driving the
/// placement lottery.
#[must_use]
pub fn experiment_config(scale: Scale, seed: u64) -> ExperimentConfig {
    match scale {
        Scale::Quick => ExperimentConfig {
            seed,
            ..ExperimentConfig::quick()
        },
        Scale::Tiny => ExperimentConfig {
            volume_per_spe: 16 << 10,
            dma_elem_sizes: vec![128, 1024, 16384],
            placements: 1,
            seed,
        },
    }
}

/// Most runs one workload keeps at [`Scale::Tiny`].
const TINY_RUNS: usize = 6;

/// Expands `figures` into run specs, in figure order, dropping keys
/// already seen (the `serve-warm` union). At [`Scale::Tiny`] every
/// figure keeps an evenly spread handful of its runs.
///
/// # Errors
///
/// The experiment error, rendered, if a figure rejects the config.
pub fn build_specs(
    system: &CellSystem,
    cfg: &ExperimentConfig,
    figures: &[&str],
    scale: Scale,
) -> Result<Vec<RunSpec>, String> {
    let mut seen: HashSet<RunKey> = HashSet::new();
    let mut specs = Vec::new();
    for figure in figures {
        let points = figure_points(cfg, figure)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("figure {figure} does not sweep the fabric"))?;
        let mut fig_specs = figure_specs(system, cfg, &points);
        if scale == Scale::Tiny {
            let step = fig_specs.len().div_ceil(TINY_RUNS).max(1);
            fig_specs = fig_specs.into_iter().step_by(step).collect();
        }
        specs.extend(
            fig_specs
                .into_iter()
                .filter(|spec| seen.insert(spec.key.clone())),
        );
    }
    Ok(specs)
}

/// SplitMix64: a small, well-mixed generator for seeded draws.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The batches one `serve-warm` client sends: `batches` batches of
/// [`BATCH_RUNS`] indices into the cached universe of `universe` runs,
/// drawn uniformly with replacement from a stream fixed by `(seed,
/// client)`.
#[must_use]
pub fn draw_batches(seed: u64, client: usize, universe: usize, batches: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::new(seed ^ (0x00C1_1E57_u64 << 16).wrapping_mul(client as u64 + 1));
    (0..batches)
        .map(|_| (0..BATCH_RUNS).map(|_| rng.below(universe)).collect())
        .collect()
}
