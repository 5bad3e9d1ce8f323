//! One benchmark run: set-up, timed passes, the oracle, and — on a
//! traced run — the spans and per-layer metrics.
//!
//! A *pass* is the workload's fixed work: every run spec once (the
//! three simulator workloads) or every client batch once against a
//! freshly bound daemon (`serve-warm`). A run repeats passes until its
//! time budget is spent and reports medians over them. Simulator passes
//! time the reference kernel of [`crate::pace`] after every run, and
//! their host times are reported scaled by that pace.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cellsim_core::diskcache::{report_from_json, report_to_json, DiskCache};
use cellsim_core::exec::{RunSpec, SweepExecutor};
use cellsim_core::experiments::ExperimentConfig;
use cellsim_core::json;
use cellsim_core::tracestore::{Manifest, RunDir, RunDirStats, TraceStore};
use cellsim_core::{CellSystem, FabricReport};
use cellsim_serve::protocol::{decode_request, encode_run_request, result_line};
use cellsim_serve::{Client, ServeOptions, ServeStats, Server};

use crate::metrics::{LayerValues, Metric};
use crate::oracle;
use crate::pace;
use crate::probes::{probe_run, ProbeTotals};
use crate::spans::{self, traced, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{
    build_specs, draw_batches, experiment_config, Scale, Workload, DEFAULT_SEED,
};

/// Set-ups timed before the first pass, each followed by its own
/// reference timings.
const SETUP_REPS: usize = 15;

/// Reference-kernel timings after each set-up.
const SETUP_REFS: usize = 3;

/// Batches each `serve-warm` client sends per pass.
const BATCHES_PER_CLIENT: usize = 24;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the placement lottery and the serve batch draw.
    pub seed: u64,
    /// Time budget for the timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where scratch directories and span files go.
    pub out_dir: PathBuf,
    /// The committed baseline the default-seed oracle compares with.
    pub baseline: PathBuf,
    /// Self-test hook: damage the report of this run index in the second
    /// pass (simulator workloads), or the expected reply to the first
    /// run the first client asks for (`serve-warm`), so the oracle must
    /// catch it.
    pub corrupt_run: Option<usize>,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output passed the oracle.
    pub correct: bool,
    /// Runs attempted over all passes.
    pub attempted: u64,
    /// Runs that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Oracle findings, one line each.
    pub findings: Vec<String>,
}

/// The measurements of one pass.
#[derive(Debug, Default)]
struct Pass {
    /// Host seconds of the pass's work, reference timings excluded.
    wall_s: f64,
    /// Reference-kernel timings between the runs (simulator workloads).
    ref_s: Vec<f64>,
    /// Wall window of the pass on the tracer's clock (traced passes).
    window_ns: (u64, u64),
    run_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    runs: u64,
    packets: u64,
    failed: u64,
    findings: Vec<String>,
    /// Per-spec reports, in spec order (simulator workloads).
    reports: Vec<Option<Arc<FabricReport>>>,
    /// Fresh-executor cache hits (must stay 0: every run simulates).
    exec_hits: u64,
    /// Trace-store counters (`app-record`).
    rundir: RunDirStats,
    /// Trace-store bytes written (`app-record`).
    trace_bytes: u64,
    /// Daemon counters at the end of the pass (`serve-warm`).
    serve: Option<ServeStats>,
}

impl Pass {
    /// The host pace during the pass; 1 on `serve-warm`, whose passes
    /// wait on socket timers rather than compute and are not scaled.
    fn pace(&self) -> f64 {
        pace::pace(&self.ref_s)
    }

    /// The pass's wall time at the nominal host speed.
    fn scaled_wall_s(&self) -> f64 {
        self.wall_s / self.pace()
    }
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a pass needs that set-up does not rebuild.
struct Ctx<'a> {
    opts: &'a Options,
    system: CellSystem,
    cfg: ExperimentConfig,
    scratch: PathBuf,
    /// `serve-warm`: the cache directory the daemon serves from.
    cache_dir: PathBuf,
    /// `serve-warm`: each client's batches, as indices into the specs.
    batches: Vec<Vec<Vec<usize>>>,
    /// `serve-warm`: the expected wire encoding of each spec's report.
    expected: Vec<String>,
    /// `serve-warm`: each spec's report, as computed during set-up.
    cached: Vec<Arc<FabricReport>>,
}

impl Ctx<'_> {
    fn specs(&self) -> Result<Vec<RunSpec>, String> {
        build_specs(
            &self.system,
            &self.cfg,
            self.opts.workload.figures(),
            self.opts.scale,
        )
    }
}

/// Runs the workload as `opts` says.
///
/// # Errors
///
/// A set-up failure that leaves nothing to measure (bad config, no
/// socket, unwritable scratch directory).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = opts.out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let _guard = Scratch(scratch.clone());
    let mut ctx = Ctx {
        opts,
        system: CellSystem::blade(),
        cfg: experiment_config(opts.scale, opts.seed),
        cache_dir: scratch.join("cache"),
        scratch,
        batches: Vec::new(),
        expected: Vec::new(),
        cached: Vec::new(),
    };
    // Findings outside the passes count one failed run each.
    let mut findings = Vec::new();
    if opts.workload == Workload::ServeWarm {
        findings.extend(prefill(&mut ctx)?);
        if opts.corrupt_run.is_some() {
            // The first run the first client asks for: every reply to it
            // must now be refused.
            let first = ctx.batches[0][0][0];
            ctx.expected[first].push(' ');
        }
    }
    // Set-up time at the nominal host speed, and every reference timing
    // of the run (for `host.reference_ms`).
    let mut setup_s = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..SETUP_REPS {
        let raw = time_setup(&ctx)?;
        let after: Vec<f64> = (0..SETUP_REFS).map(|_| pace::reference_s()).collect();
        setup_s.push(raw / pace::pace(&after));
        refs.extend(after);
    }

    // A traced run leaves half its budget to the layer pass.
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let started = Instant::now();
    let tracer = Tracer::new();
    let oracle_specs = ctx.specs()?;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    // A traced run alternates plain and traced passes, so the overhead
    // compares passes made under the same conditions. Each pass is
    // checked against the first as it completes; only the first plain
    // and first traced pass keep their reports, so memory stays flat
    // however many passes fit the budget.
    while plain.len() < 2 || started.elapsed() < budget {
        let id = (plain.len() + traced_passes.len()) as u64;
        let mut pass = run_pass(&ctx, None, id)?;
        if plain.len() == 1 {
            if let Some(n) = opts.corrupt_run {
                corrupt(&mut pass, n);
            }
        }
        check_pass(&ctx, &oracle_specs, plain.first(), &mut pass);
        if !plain.is_empty() {
            pass.reports.clear();
        }
        plain.push(pass);
        if opts.trace {
            let mut pass = run_pass(&ctx, Some(&tracer), id + 1)?;
            check_pass(&ctx, &oracle_specs, plain.first(), &mut pass);
            if !traced_passes.is_empty() {
                pass.reports.clear();
            }
            traced_passes.push(pass);
        }
    }

    let walls: Vec<String> = plain
        .iter()
        .map(|p| format!("{:.3}/{:.2}", p.wall_s, p.pace()))
        .collect();
    eprintln!(
        "cellbench: plain pass host walls (s) / paces: {}",
        walls.join(" ")
    );
    let all: Vec<&Pass> = plain.iter().chain(&traced_passes).collect();
    refs.extend(all.iter().flat_map(|p| p.ref_s.iter().copied()));
    let attempted: u64 = all.iter().map(|p| p.runs).sum();
    let mut failed: u64 = all.iter().map(|p| p.failed).sum::<u64>() + findings.len() as u64;
    for p in &all {
        findings.extend(p.findings.iter().cloned());
    }
    if opts.workload.simulates() && failed == 0 {
        // A drifted figure makes every run of the pass it came from wrong.
        if let Some(drift) = baseline_finding(&ctx, &oracle_specs, &plain[0]) {
            failed += plain[0].runs;
            findings.push(drift);
        }
    }
    let metrics = if opts.trace {
        let mut layers = layer_pass(&ctx, &tracer, &traced_passes)?;
        layers.host_refs = refs;
        failed += layers.findings.len() as u64;
        findings.extend(layers.findings.iter().cloned());
        let spans = tracer.spans();
        let span_file =
            opts.out_dir
                .join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
        spans::write_json(&spans, &span_file)
            .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
        eprintln!(
            "cellbench: {} spans written to {}",
            spans.len(),
            span_file.display()
        );
        per_layer(
            &ctx,
            &plain,
            &traced_passes,
            &spans,
            &layers,
            attempted,
            failed,
        )
    } else {
        end_to_end(&plain, &setup_s, attempted, failed)
    };
    let correct = failed == 0 && findings.is_empty();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        findings,
    })
}

/// Times one set-up: building the plans and run specs, plus binding the
/// daemon on `serve-warm` (which is then stopped again).
fn time_setup(ctx: &Ctx<'_>) -> Result<f64, String> {
    let start = Instant::now();
    let specs = ctx.specs()?;
    let server = if ctx.opts.workload == Workload::ServeWarm {
        Some(bind(&ctx.cache_dir)?)
    } else {
        None
    };
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(specs);
    if let Some(server) = server {
        stop(server)?;
    }
    Ok(elapsed)
}

/// One pass of the workload, traced when `tracer` is given.
fn run_pass(ctx: &Ctx<'_>, tracer: Option<&Tracer>, id: u64) -> Result<Pass, String> {
    let window_start = tracer.map_or(0, Tracer::now_ns);
    let mut pass = match ctx.opts.workload {
        Workload::MemStream | Workload::SpeExchange => exec_pass(ctx, tracer)?,
        Workload::AppRecord => record_pass(ctx, tracer, id)?,
        Workload::ServeWarm => serve_pass(ctx, tracer)?,
    };
    pass.window_ns = (window_start, tracer.map_or(0, Tracer::now_ns));
    Ok(pass)
}

fn build_traced(ctx: &Ctx<'_>, tracer: Option<&Tracer>) -> Result<Vec<RunSpec>, String> {
    traced(tracer, "experiments.build", 0, None, |_| ctx.specs())
}

/// Times the reference kernel after run `i` of a simulator pass.
fn pace_after(tracer: Option<&Tracer>, pass: &mut Pass, i: usize) {
    let t = traced(tracer, "host.reference", i as u64, None, |_| {
        pace::reference_s()
    });
    pass.ref_s.push(t);
}

/// Ends a simulator pass's wall clock, leaving out its reference timings.
fn end_wall(pass: &mut Pass, start: Instant) {
    pass.wall_s = start.elapsed().as_secs_f64() - pass.ref_s.iter().sum::<f64>();
}

/// `mem-stream` / `spe-exchange`: every spec on a fresh 1-worker
/// executor, so every run simulates.
fn exec_pass(ctx: &Ctx<'_>, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let specs = build_traced(ctx, tracer)?;
    let mut pass = Pass::default();
    let start = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let batch = vec![spec.clone()];
        let t0 = Instant::now();
        let (result, hits) = traced(tracer, "run", i as u64, None, |parent| {
            traced(tracer, "exec.try_run", i as u64, parent, |_| {
                let exec = SweepExecutor::new(1);
                let result = exec.try_run(batch).pop();
                (result, exec.stats().hits)
            })
        });
        pass.run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.exec_hits += hits;
        pass.reports.push(match result {
            Some(Ok(report)) => Some(report),
            Some(Err(e)) => {
                pass.findings.push(format!("run {i}: {e}"));
                None
            }
            None => None,
        });
        pace_after(tracer, &mut pass, i);
    }
    end_wall(&mut pass, start);
    finish_sim_pass(ctx, &mut pass);
    Ok(pass)
}

/// `app-record`: every spec recorded into a fresh run directory, its
/// store reopened and recounted, and the three reconciled.
fn record_pass(ctx: &Ctx<'_>, tracer: Option<&Tracer>, id: u64) -> Result<Pass, String> {
    let specs = build_traced(ctx, tracer)?;
    let root = ctx.scratch.join(format!("runs-{id}"));
    let rundir = RunDir::create(&root).map_err(|e| format!("cannot create run dir: {e}"))?;
    let mut pass = Pass::default();
    let start = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = traced(tracer, "run", i as u64, None, |parent| {
            let report = traced(tracer, "tracestore.record", i as u64, parent, |_| {
                rundir.run_recorded(spec)
            })
            .map_err(|f| f.to_string())?;
            let dir = rundir.entry_dir(&spec.key);
            let (manifest, store) = traced(tracer, "tracestore.open", i as u64, parent, |_| {
                let manifest = Manifest::load(&dir).map_err(|e| e.to_string())?;
                let store =
                    TraceStore::open(&dir.join(&manifest.trace_file)).map_err(|e| e.to_string())?;
                Ok::<_, String>((manifest, store))
            })?;
            let recount = traced(tracer, "tracestore.recount", i as u64, parent, |_| {
                store.recount()
            })
            .map_err(|e| e.to_string())?;
            Ok::<_, String>((report, manifest, store, recount))
        });
        pass.run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let report = outcome.and_then(|(report, manifest, store, recount)| {
            pass.trace_bytes += store.size_bytes();
            oracle::reconcile(&manifest, &store, recount, &report)?;
            Ok(report)
        });
        pass.reports.push(match report {
            Ok(report) => Some(Arc::new(report)),
            Err(e) => {
                pass.findings.push(format!("run {i}: {e}"));
                None
            }
        });
        pace_after(tracer, &mut pass, i);
    }
    end_wall(&mut pass, start);
    pass.rundir = rundir.stats();
    if pass.rundir.errors > 0 {
        pass.findings
            .push(format!("{} trace-store write errors", pass.rundir.errors));
    }
    traced(tracer, "tracestore.cleanup", 0, None, |_| {
        drop(rundir);
        let _ = std::fs::remove_dir_all(&root);
    });
    finish_sim_pass(ctx, &mut pass);
    Ok(pass)
}

/// Tallies a simulator pass: runs, packets, failures, and one batch per
/// figure point (its placements).
fn finish_sim_pass(ctx: &Ctx<'_>, pass: &mut Pass) {
    pass.runs = pass.reports.len() as u64;
    pass.failed = pass.reports.iter().filter(|r| r.is_none()).count() as u64;
    pass.packets = pass.reports.iter().flatten().map(|r| r.packets).sum();
    pass.batch_ms = pass
        .run_ms
        .chunks(ctx.cfg.placements)
        .map(|c| c.iter().sum())
        .collect();
    if pass.exec_hits > 0 {
        pass.findings.push(format!(
            "{} runs were answered from a cache instead of simulating",
            pass.exec_hits
        ));
    }
}

/// Damages one report so the oracle must notice (self-test hook).
fn corrupt(pass: &mut Pass, index: usize) {
    if let Some(Some(report)) = pass.reports.get_mut(index) {
        let mut bad = (**report).clone();
        bad.total_bytes += 1;
        *report = Arc::new(bad);
    }
}

/// The per-pass simulator oracle: conservation laws on every report,
/// and every report identical to the first pass's. Failures count
/// against the pass.
fn check_pass(ctx: &Ctx<'_>, specs: &[RunSpec], first: Option<&Pass>, pass: &mut Pass) {
    if !ctx.opts.workload.simulates() {
        return;
    }
    for (i, (spec, report)) in specs.iter().zip(&pass.reports).enumerate() {
        let Some(report) = report else { continue };
        let reference = first.and_then(|f| f.reports[i].as_ref());
        let verdict = oracle::check_report(spec, report).and_then(|()| match reference {
            Some(reference) if !oracle::same_outputs(reference, report) => {
                Err("differs from the first pass".to_string())
            }
            _ => Ok(()),
        });
        if let Err(e) = verdict {
            pass.failed += 1;
            pass.findings.push(format!("run {i}: {e}"));
        }
    }
}

/// At the default seed and quick scale, the first pass's figures must
/// reproduce the committed baseline.
fn baseline_finding(ctx: &Ctx<'_>, specs: &[RunSpec], first: &Pass) -> Option<String> {
    if ctx.opts.seed != DEFAULT_SEED || ctx.opts.scale != Scale::Quick {
        return None;
    }
    let reports: Vec<Arc<FabricReport>> = first.reports.iter().cloned().collect::<Option<_>>()?;
    oracle::check_baseline(
        &ctx.opts.baseline,
        &ctx.system,
        &ctx.cfg,
        ctx.opts.workload.figures(),
        specs,
        &reports,
    )
    .err()
}

// ---- serve-warm ---------------------------------------------------------

/// Fills the daemon's cache directory with every Figure 8/12/15 report
/// (untimed), records what each reply must equal, and draws the client
/// batches. Returns oracle findings about the reports themselves.
fn prefill(ctx: &mut Ctx<'_>) -> Result<Vec<String>, String> {
    let specs = ctx.specs()?;
    let exec = SweepExecutor::with_cache_dir(clients(), &ctx.cache_dir)
        .map_err(|e| format!("cannot open cache dir: {e}"))?;
    let mut findings = Vec::new();
    for (i, (spec, result)) in specs.iter().zip(exec.try_run(specs.clone())).enumerate() {
        match result {
            Ok(report) => {
                if let Err(e) = oracle::check_report(spec, &report) {
                    findings.push(format!("cached run {i}: {e}"));
                }
                ctx.expected.push(report_to_json(&report));
                ctx.cached.push(report);
            }
            Err(e) => return Err(format!("cannot fill the cache: {e}")),
        }
    }
    if ctx.opts.seed == DEFAULT_SEED && ctx.opts.scale == Scale::Quick {
        if let Err(e) = oracle::check_baseline(
            &ctx.opts.baseline,
            &ctx.system,
            &ctx.cfg,
            ctx.opts.workload.figures(),
            &specs,
            &ctx.cached,
        ) {
            findings.push(e);
        }
    }
    let batches = if ctx.opts.scale == Scale::Tiny {
        2
    } else {
        BATCHES_PER_CLIENT
    };
    ctx.batches = (0..clients())
        .map(|c| draw_batches(ctx.opts.seed, c, specs.len(), batches))
        .collect();
    Ok(findings)
}

/// Client connections, and daemon workers: at most two, at most the
/// host's cores.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn bind(cache_dir: &Path) -> Result<Server, String> {
    let opts = ServeOptions {
        jobs: 1,
        workers: clients(),
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeOptions::default()
    };
    Server::bind("127.0.0.1:0", &opts).map_err(|e| format!("cannot bind the daemon: {e}"))
}

/// Serves on `server` while `body` runs, then stops it and waits for it.
fn with_server<T>(
    tracer: Option<&Tracer>,
    server: Server,
    body: impl FnOnce(SocketAddr) -> T,
) -> Result<T, String> {
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve());
        let out = body(addr);
        traced(tracer, "serve.stop", 0, None, |_| {
            handle.shutdown();
            match serving.join() {
                Ok(Ok(())) => Ok(out),
                Ok(Err(e)) => Err(format!("daemon failed: {e}")),
                Err(_) => Err("daemon thread panicked".to_string()),
            }
        })
    })
}

fn stop(server: Server) -> Result<(), String> {
    with_server(None, server, |_| ())
}

/// What one client saw in a pass.
struct ClientPass {
    batch_ms: Vec<f64>,
    failed: u64,
    packets: u64,
    findings: Vec<String>,
}

/// One client's closed loop: send a batch, wait for every reply, check
/// each against the locally computed report, repeat.
fn client_loop(
    ctx: &Ctx<'_>,
    specs: &[RunSpec],
    tracer: Option<&Tracer>,
    parent: Option<usize>,
    addr: SocketAddr,
    c: usize,
) -> ClientPass {
    let mut out = ClientPass {
        batch_ms: Vec::new(),
        failed: 0,
        packets: 0,
        findings: Vec::new(),
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            out.failed = (ctx.batches[c].len() * crate::workload::BATCH_RUNS) as u64;
            out.findings.push(format!("client {c} cannot connect: {e}"));
            return out;
        }
    };
    for (b, batch) in ctx.batches[c].iter().enumerate() {
        let batch_specs: Vec<RunSpec> = batch.iter().map(|&i| specs[i].clone()).collect();
        let id = format!("c{c}b{b}");
        let t0 = Instant::now();
        let outcome = traced(tracer, "client.batch", batch_id(c, b), parent, |_| {
            client.run_batch(&id, None, &batch_specs)
        });
        out.batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(outcome) => {
                for (&i, result) in batch.iter().zip(&outcome.results) {
                    match result {
                        Ok(report) if report_to_json(report) == ctx.expected[i] => {
                            out.packets += report.packets;
                        }
                        Ok(_) => {
                            out.failed += 1;
                            out.findings.push(format!("{id}: run {i} reply differs"));
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.findings.push(format!("{id}: {e}"));
                        }
                    }
                }
            }
            Err(e) => {
                out.failed += batch.len() as u64;
                out.findings.push(format!("{id}: {e}"));
            }
        }
    }
    out
}

fn batch_id(client: usize, batch: usize) -> u64 {
    (client as u64) << 32 | batch as u64
}

/// `serve-warm`: a fresh daemon over the filled cache directory, and
/// every client's batches against it.
fn serve_pass(ctx: &Ctx<'_>, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let specs = build_traced(ctx, tracer)?;
    let server = traced(tracer, "serve.bind", 0, None, |_| bind(&ctx.cache_dir))?;
    let (wall_s, results, stats) = with_server(tracer, server, |addr| {
        let start = Instant::now();
        let results: Vec<ClientPass> = traced(tracer, "serve.clients", 0, None, |parent| {
            std::thread::scope(|scope| {
                let specs = &specs;
                let handles: Vec<_> = (0..ctx.batches.len())
                    .map(|c| scope.spawn(move || client_loop(ctx, specs, tracer, parent, addr, c)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a client thread never panics"))
                    .collect()
            })
        });
        let wall_s = start.elapsed().as_secs_f64();
        let stats = traced(tracer, "serve.stats", 0, None, |_| {
            Client::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
        });
        (wall_s, results, stats)
    })?;
    let mut pass = Pass {
        wall_s,
        serve: Some(stats.map_err(|e| format!("cannot read daemon stats: {e}"))?),
        ..Pass::default()
    };
    for r in results {
        pass.runs += (r.batch_ms.len() * crate::workload::BATCH_RUNS) as u64;
        pass.failed += r.failed;
        pass.packets += r.packets;
        // Every run of a batch is answered when its batch is.
        for &ms in &r.batch_ms {
            pass.run_ms
                .extend(std::iter::repeat_n(ms, crate::workload::BATCH_RUNS));
        }
        pass.batch_ms.extend(r.batch_ms);
        pass.findings.extend(r.findings);
    }
    Ok(pass)
}

// ---- metrics ------------------------------------------------------------

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of the plain passes, host times at the
/// nominal host speed (each pass's times divided by its pace).
fn end_to_end(passes: &[Pass], setup_s: &[f64], attempted: u64, failed: u64) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    // Latency percentiles pool the runs of the middle half of the passes
    // by wall time: like the medians over passes, they then stay put when
    // a few passes run during a host slowdown (or a fast spell) that the
    // pace does not fully correct.
    let mut by_wall: Vec<&Pass> = passes.iter().collect();
    by_wall.sort_by(|a, b| a.scaled_wall_s().total_cmp(&b.scaled_wall_s()));
    let middle = &by_wall[by_wall.len() / 4..by_wall.len() - by_wall.len() / 4];
    let scaled = |f: &dyn Fn(&Pass) -> &[f64]| -> Vec<f64> {
        middle
            .iter()
            .flat_map(|p| f(p).iter().map(|ms| ms / p.pace()))
            .collect()
    };
    let run_ms = scaled(&|p| &p.run_ms);
    let batch_ms = scaled(&|p| &p.batch_ms);
    let n = passes.len();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    vec![
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        Metric::new("wall_s", median(&per_pass(&Pass::scaled_wall_s)), "s", n),
        Metric::new(
            "runs_per_s",
            median(&per_pass(&|p| p.runs as f64 / p.scaled_wall_s())),
            "1/s",
            n,
        ),
        Metric::new(
            "packets_per_s",
            median(&per_pass(&|p| p.packets as f64 / p.scaled_wall_s())),
            "1/s",
            n,
        ),
        Metric::new("run_p50_ms", median(&run_ms), "ms", run_ms.len()),
        Metric::new("run_p90_ms", percentile(&run_ms, 90.0), "ms", run_ms.len()),
        Metric::new("batch_p50_ms", median(&batch_ms), "ms", batch_ms.len()),
        Metric::new(
            "batch_p90_ms",
            percentile(&batch_ms, 90.0),
            "ms",
            batch_ms.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
        Metric::new(
            "success_rate",
            1.0 - error_rate,
            "ratio",
            attempted as usize,
        ),
        Metric::new("error_rate", error_rate, "ratio", attempted as usize),
    ]
}

/// What the layer pass measured, per layer.
#[derive(Default)]
struct Layers {
    /// The reports of the runs the pass drove.
    reports: Vec<Arc<FabricReport>>,
    fabric_ms: Vec<f64>,
    probes: ProbeTotals,
    /// Cold single-run executor calls (`app-record`, whose passes record
    /// instead of using an executor).
    exec_ms: Vec<f64>,
    exec_hits: u64,
    /// Warm per-batch executor calls over the disk cache, as the daemon
    /// makes them.
    batch_exec_ms: Vec<f64>,
    batch_hits: u64,
    batch_misses: u64,
    record_ms: Vec<f64>,
    open_ms: Vec<f64>,
    recount_ms: Vec<f64>,
    sink_self_ms: Vec<f64>,
    trace_bytes: u64,
    trace_packets: u64,
    rundir: RunDirStats,
    disk_load_us: Vec<f64>,
    disk_encode_us: Vec<f64>,
    disk_decode_us: Vec<f64>,
    entry_bytes: Vec<f64>,
    disk_loaded: u64,
    disk_discarded: u64,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    result_line_us: Vec<f64>,
    wire_wait_ms: Vec<f64>,
    /// Daemon counters after the batches (simulator workloads).
    serve: Option<ServeStats>,
    /// Every reference-kernel timing of the run, set-ups and passes.
    host_refs: Vec<f64>,
    findings: Vec<String>,
}

/// The layer pass of a traced run: drives every layer directly, under
/// spans, with the workload's own runs — its specs on the simulator
/// workloads, the distinct runs its clients asked for on `serve-warm` —
/// so each layer's cost is measured under this workload's traffic.
fn layer_pass(ctx: &Ctx<'_>, tracer: &Tracer, traced_passes: &[Pass]) -> Result<Layers, String> {
    let workload = ctx.opts.workload;
    let specs = ctx.specs()?;
    // The runs, each with the report every layer must reproduce.
    let runs: Vec<(usize, Arc<FabricReport>)> = if workload.simulates() {
        traced_passes[0]
            .reports
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.clone().map(|r| (i, r)))
            .collect()
    } else {
        let mut seen = std::collections::HashSet::new();
        ctx.batches
            .iter()
            .flatten()
            .flatten()
            .filter(|&&i| seen.insert(i))
            .map(|&i| (i, Arc::clone(&ctx.cached[i])))
            .collect()
    };
    let root = ctx.scratch.join("layers");
    let cache_dir = if workload.simulates() {
        root.join("cache")
    } else {
        ctx.cache_dir.clone()
    };
    let rundir =
        RunDir::create(&root.join("runs")).map_err(|e| format!("cannot create run dir: {e}"))?;
    let disk = DiskCache::open(&cache_dir).map_err(|e| format!("cannot open cache: {e}"))?;
    let pass_record_ms = durations_by_id(tracer, "tracestore.record");
    let mut layers = Layers {
        reports: runs.iter().map(|(_, r)| Arc::clone(r)).collect(),
        ..Layers::default()
    };
    for (i, reference) in &runs {
        let (i, spec) = (*i, &specs[*i]);
        let id = i as u64;
        let (result, fabric_us) = timed_us(|| {
            tracer.span("fabric.run", id, None, |_| {
                spec.system.try_run(&spec.placement, &spec.plan)
            })
        });
        let report = match result {
            Ok(report) if oracle::same_outputs(&report, reference) => report,
            Ok(_) => {
                layers
                    .findings
                    .push(format!("run {i}: direct fabric run differs"));
                continue;
            }
            Err(e) => {
                layers.findings.push(format!("run {i}: {e}"));
                continue;
            }
        };
        let fabric_ms = fabric_us / 1e3;
        layers.fabric_ms.push(fabric_ms);

        if workload == Workload::AppRecord {
            let ((result, hits), us) = timed_us(|| {
                tracer.span("exec.try_run", id, None, |_| {
                    let exec = SweepExecutor::new(1);
                    let result = exec.try_run(vec![spec.clone()]).pop();
                    (result, exec.stats().hits)
                })
            });
            if !matches!(&result, Some(Ok(r)) if oracle::same_outputs(r, reference)) {
                layers
                    .findings
                    .push(format!("run {i}: executor run differs"));
            }
            layers.exec_ms.push(us / 1e3);
            layers.exec_hits += hits;
            if let Some(&record_ms) = pass_record_ms.get(&id) {
                layers.sink_self_ms.push(record_ms - fabric_ms);
            }
        } else {
            record_layer(tracer, &rundir, spec, &report, fabric_ms, id, &mut layers);
        }

        tracer.span("probe", id, None, |_| {
            probe_run(spec, &report, &mut layers.probes)
        })?;

        if workload.simulates() {
            disk.store(&spec.key, &report);
        }
        disk_layer(tracer, &disk, spec, &report, id, &mut layers);
    }
    layers.rundir = rundir.stats();
    let disk_stats = disk.stats();
    layers.disk_loaded = disk_stats.loaded;
    layers.disk_discarded = disk_stats.discarded;

    // The wire: every batch's protocol and executor work done locally,
    // against the round trip a daemon took for it.
    let batches: Vec<(u64, Vec<usize>)> = if workload.simulates() {
        let indices: Vec<usize> = runs.iter().map(|(i, _)| *i).collect();
        indices
            .chunks(crate::workload::BATCH_RUNS)
            .enumerate()
            .map(|(b, chunk)| (batch_id(0, b), chunk.to_vec()))
            .collect()
    } else {
        ctx.batches
            .iter()
            .enumerate()
            .flat_map(|(c, batches)| {
                batches
                    .iter()
                    .enumerate()
                    .map(move |(b, batch)| (batch_id(c, b), batch.clone()))
            })
            .collect()
    };
    let rtt = if workload.simulates() {
        let expected: HashMap<usize, String> =
            runs.iter().map(|(i, r)| (*i, report_to_json(r))).collect();
        daemon_layer(tracer, &cache_dir, &specs, &batches, &expected, &mut layers)?
    } else {
        durations_by_id(tracer, "client.batch")
    };
    let exec = SweepExecutor::with_cache_dir(1, &cache_dir)
        .map_err(|e| format!("cannot open cache dir: {e}"))?;
    for (id, batch) in &batches {
        let id = *id;
        let batch_specs: Vec<RunSpec> = batch.iter().map(|&i| specs[i].clone()).collect();
        let name = format!("b{id:x}");
        let (line, enc) = timed_us(|| {
            tracer.span("protocol.encode", id, None, |_| {
                encode_run_request(&name, None, &batch_specs, false)
            })
        });
        let (decoded, dec) = timed_us(|| {
            tracer.span("protocol.decode", id, None, |_| {
                decode_request(&line).is_ok()
            })
        });
        if !decoded {
            layers
                .findings
                .push(format!("{name}: request line does not decode"));
        }
        let (results, exec_us) = timed_us(|| {
            tracer.span("exec.batch", id, None, |_| {
                exec.try_run(batch_specs.clone())
            })
        });
        let mut lines_us = 0.0;
        for (k, (spec, result)) in batch_specs.iter().zip(&results).enumerate() {
            let Ok(report) = result else {
                layers
                    .findings
                    .push(format!("{name}: run {k} failed locally"));
                continue;
            };
            let (line, us) = timed_us(|| {
                tracer.span("protocol.result_line", id, None, |_| {
                    result_line(&name, k, &spec.key, report)
                })
            });
            std::hint::black_box(line);
            layers.result_line_us.push(us);
            lines_us += us;
        }
        layers.encode_us.push(enc);
        layers.decode_us.push(dec);
        layers.batch_exec_ms.push(exec_us / 1e3);
        if let Some(&ms) = rtt.get(&id) {
            layers
                .wire_wait_ms
                .push(ms - (enc + dec + exec_us + lines_us) / 1e3);
        }
    }
    let stats = exec.stats();
    layers.batch_hits = stats.hits;
    layers.batch_misses = stats.misses;
    Ok(layers)
}

/// Records `spec` into `rundir`, reopens and recounts the store, and
/// reconciles it (the `app-record` pass work, for the other workloads).
fn record_layer(
    tracer: &Tracer,
    rundir: &RunDir,
    spec: &RunSpec,
    report: &FabricReport,
    fabric_ms: f64,
    id: u64,
    layers: &mut Layers,
) {
    let (recorded, record_us) =
        timed_us(|| tracer.span("tracestore.record", id, None, |_| rundir.run_recorded(spec)));
    let dir = rundir.entry_dir(&spec.key);
    let (opened, open_us) = timed_us(|| {
        tracer.span("tracestore.open", id, None, |_| {
            let manifest = Manifest::load(&dir).map_err(|e| e.to_string())?;
            let store =
                TraceStore::open(&dir.join(&manifest.trace_file)).map_err(|e| e.to_string())?;
            Ok::<_, String>((manifest, store))
        })
    });
    let checked = recorded.map_err(|f| f.to_string()).and_then(|recorded| {
        if !oracle::same_outputs(&recorded, report) {
            return Err("recorded run differs".to_string());
        }
        let (manifest, store) = opened?;
        let (recount, recount_us) =
            timed_us(|| tracer.span("tracestore.recount", id, None, |_| store.recount()));
        let recount = recount.map_err(|e| e.to_string())?;
        oracle::reconcile(&manifest, &store, recount, &recorded)?;
        layers.recount_ms.push(recount_us / 1e3);
        layers.trace_bytes += store.size_bytes();
        layers.trace_packets += recorded.packets;
        Ok(())
    });
    match checked {
        Ok(()) => {
            layers.record_ms.push(record_us / 1e3);
            layers.open_ms.push(open_us / 1e3);
            layers.sink_self_ms.push(record_us / 1e3 - fabric_ms);
        }
        Err(e) => layers.findings.push(format!("recording: {e}")),
    }
}

/// Loads `spec`'s entry from the disk cache and round-trips its report
/// through the cache's JSON encoding.
fn disk_layer(
    tracer: &Tracer,
    disk: &DiskCache,
    spec: &RunSpec,
    report: &FabricReport,
    id: u64,
    layers: &mut Layers,
) {
    let (loaded, load_us) =
        timed_us(|| tracer.span("diskcache.load", id, None, |_| disk.load(&spec.key)));
    let Some(loaded) = loaded else {
        layers
            .findings
            .push(format!("cached run {id} does not load"));
        return;
    };
    let (text, encode_us) =
        timed_us(|| tracer.span("diskcache.encode", id, None, |_| report_to_json(&loaded)));
    let (back, decode_us) = timed_us(|| {
        tracer.span("diskcache.decode", id, None, |_| {
            json::parse(&text).ok().and_then(|v| report_from_json(&v))
        })
    });
    if back.as_ref() != Some(report) || text != report_to_json(report) {
        layers
            .findings
            .push(format!("cached run {id} does not round-trip"));
    }
    layers.disk_load_us.push(load_us);
    layers.disk_encode_us.push(encode_us);
    layers.disk_decode_us.push(decode_us);
    if let Ok(meta) = std::fs::metadata(disk.entry_path(&spec.key)) {
        layers.entry_bytes.push(meta.len() as f64);
    }
}

/// Sends `batches` from one client to a daemon serving `cache_dir` and
/// returns each batch's round trip in ms, checking every reply.
fn daemon_layer(
    tracer: &Tracer,
    cache_dir: &Path,
    specs: &[RunSpec],
    batches: &[(u64, Vec<usize>)],
    expected: &HashMap<usize, String>,
    layers: &mut Layers,
) -> Result<HashMap<u64, f64>, String> {
    let server = bind(cache_dir)?;
    let findings = &mut layers.findings;
    let rtt = with_server(Some(tracer), server, |addr| {
        let mut rtt = HashMap::new();
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                findings.push(format!("cannot connect: {e}"));
                return (rtt, None);
            }
        };
        for (id, batch) in batches {
            let batch_specs: Vec<RunSpec> = batch.iter().map(|&i| specs[i].clone()).collect();
            let (outcome, us) = timed_us(|| {
                tracer.span("client.batch", *id, None, |_| {
                    client.run_batch(&format!("b{id:x}"), None, &batch_specs)
                })
            });
            rtt.insert(*id, us / 1e3);
            match outcome {
                Ok(outcome) => {
                    for (i, result) in batch.iter().zip(&outcome.results) {
                        let ok = result
                            .as_ref()
                            .is_ok_and(|r| Some(&report_to_json(r)) == expected.get(i));
                        if !ok {
                            findings.push(format!("daemon reply for run {i} differs"));
                        }
                    }
                }
                Err(e) => findings.push(format!("batch {id:x}: {e}")),
            }
        }
        (rtt, client.stats().ok())
    })?;
    layers.serve = rtt.1;
    Ok(rtt.0)
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// Duration in ms of the latest span named `name` for each id.
fn durations_by_id(tracer: &Tracer, name: &str) -> HashMap<u64, f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.id, s.duration_ns() as f64 / 1e6))
        .collect()
}

/// The per-layer metrics of a traced run.
fn per_layer(
    ctx: &Ctx<'_>,
    plain: &[Pass],
    traced_passes: &[Pass],
    spans: &[spans::Span],
    layers: &Layers,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let workload = ctx.opts.workload;
    let mut v = LayerValues::default();
    let plain_wall = median(&plain.iter().map(Pass::scaled_wall_s).collect::<Vec<_>>());
    let traced_wall = median(
        &traced_passes
            .iter()
            .map(Pass::scaled_wall_s)
            .collect::<Vec<_>>(),
    );
    v.set(
        "trace.overhead_s",
        traced_wall - plain_wall,
        traced_passes.len(),
    );
    let coverage: Vec<f64> = traced_passes
        .iter()
        .map(|p| spans::coverage(spans, p.window_ns.0, p.window_ns.1))
        .collect();
    v.set(
        "trace.coverage",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        coverage.len(),
    );
    v.set(
        "host.reference_ms",
        median(&layers.host_refs) * 1e3,
        layers.host_refs.len(),
    );
    v.set(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    v.samples(
        "experiments.build_ms",
        &spans::durations_ms(spans, "experiments.build"),
    );

    // Simulated counters of the runs the layer pass drove.
    let reports = &layers.reports;
    let n = reports.len();
    let sum =
        |f: &dyn Fn(&FabricReport) -> u64| -> f64 { reports.iter().map(|r| f(r) as f64).sum() };
    let events = sum(&|r| r.metrics.events);
    let packets = sum(&|r| r.packets);
    v.set("fabric.events", events, n);
    v.set("fabric.packets", packets, n);
    v.set("fabric.events_per_packet", events / packets.max(1.0), n);
    v.set(
        "fabric.suppressed_pumps",
        sum(&|r| r.metrics.suppressed_pumps),
        n,
    );
    v.set("fabric.sim_cycles", sum(&|r| r.cycles), n);
    let peak = reports.iter().map(|r| r.metrics.peak_live_packets).max();
    v.set("fabric.peak_live_packets", peak.unwrap_or(0) as f64, n);
    v.set("eib.grants", sum(&|r| r.eib.grants), n);
    v.set(
        "eib.busy_cycles",
        sum(&|r| r.metrics.rings.iter().map(|g| g.busy_cycles).sum()),
        n,
    );
    v.set(
        "eib.stall_cycles",
        sum(&|r| r.metrics.per_spe.iter().map(|s| s.stall_eib_cycles).sum()),
        n,
    );
    v.set(
        "mem.accesses",
        sum(&|r| r.metrics.banks.iter().map(|b| b.stats.accesses).sum()),
        n,
    );
    v.set(
        "mem.busy_cycles",
        sum(&|r| r.metrics.banks.iter().map(|b| b.stats.busy_cycles).sum()),
        n,
    );
    v.set(
        "mem.stall_cycles",
        sum(&|r| r.metrics.per_spe.iter().map(|s| s.stall_mem_cycles).sum()),
        n,
    );
    v.set(
        "mfc.stall_slot_cycles",
        sum(&|r| {
            r.metrics
                .per_spe
                .iter()
                .map(|s| s.stall_mfc_full_cycles)
                .sum()
        }),
        n,
    );
    v.set(
        "mfc.stall_sync_cycles",
        sum(&|r| r.metrics.per_spe.iter().map(|s| s.stall_sync_cycles).sum()),
        n,
    );

    v.samples("fabric.run_ms", &layers.fabric_ms);
    let fabric_ns: f64 = layers.fabric_ms.iter().sum::<f64>() * 1e6;
    v.set(
        "fabric.ns_per_packet",
        fabric_ns / packets.max(1.0),
        layers.fabric_ms.len(),
    );
    let p = layers.probes;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    v.set(
        "kernel.queue_ns_per_event",
        per(p.queue_ns, p.queue_events),
        p.queue_events as usize,
    );
    v.set(
        "eib.arbitrate_ns_per_grant",
        per(p.eib_ns, p.eib_grants),
        p.eib_grants as usize,
    );
    v.set(
        "mem.submit_ns",
        per(p.mem_ns, p.mem_submits),
        p.mem_submits as usize,
    );
    v.set(
        "mfc.issue_ns_per_packet",
        per(p.mfc_ns, p.mfc_packets),
        p.mfc_packets as usize,
    );

    // The executor as the workload uses it: cold single runs on the
    // simulator workloads, warm disk-backed batches on serve-warm.
    let (exec_ms, hits, misses) = match workload {
        Workload::MemStream | Workload::SpeExchange => {
            let ms = spans::durations_ms(spans, "exec.try_run");
            let hits: u64 = traced_passes.iter().map(|p| p.exec_hits).sum();
            let misses = ms.len() as u64 - hits.min(ms.len() as u64);
            (ms, hits, misses)
        }
        Workload::AppRecord => {
            let ms = layers.exec_ms.clone();
            let misses = ms.len() as u64 - layers.exec_hits.min(ms.len() as u64);
            (ms, layers.exec_hits, misses)
        }
        Workload::ServeWarm => (
            layers.batch_exec_ms.clone(),
            layers.batch_hits,
            layers.batch_misses,
        ),
    };
    v.samples("exec.try_run_ms", &exec_ms);
    let calls = (hits + misses) as usize;
    v.set("exec.hits", hits as f64, calls);
    v.set("exec.misses", misses as f64, calls);
    v.set(
        "exec.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        calls,
    );

    v.samples("diskcache.load_us", &layers.disk_load_us);
    v.samples("diskcache.encode_us", &layers.disk_encode_us);
    v.samples("diskcache.decode_us", &layers.disk_decode_us);
    v.samples("diskcache.entry_bytes", &layers.entry_bytes);
    v.set("diskcache.loaded", layers.disk_loaded as f64, 1);
    v.set("diskcache.discarded", layers.disk_discarded as f64, 1);

    // The trace store: the timed passes on app-record, the layer pass
    // elsewhere.
    if workload == Workload::AppRecord {
        let pass = &traced_passes[0];
        let pass_packets: u64 = pass.reports.iter().flatten().map(|r| r.packets).sum();
        v.samples(
            "tracestore.record_ms",
            &spans::durations_ms(spans, "tracestore.record"),
        );
        v.samples(
            "tracestore.open_ms",
            &spans::durations_ms(spans, "tracestore.open"),
        );
        v.samples(
            "tracestore.recount_ms",
            &spans::durations_ms(spans, "tracestore.recount"),
        );
        v.set(
            "tracestore.bytes_per_packet",
            pass.trace_bytes as f64 / pass_packets.max(1) as f64,
            pass.reports.len(),
        );
        v.set("tracestore.written", pass.rundir.written as f64, 1);
        v.set("tracestore.errors", pass.rundir.errors as f64, 1);
    } else {
        v.samples("tracestore.record_ms", &layers.record_ms);
        v.samples("tracestore.open_ms", &layers.open_ms);
        v.samples("tracestore.recount_ms", &layers.recount_ms);
        v.set(
            "tracestore.bytes_per_packet",
            layers.trace_bytes as f64 / layers.trace_packets.max(1) as f64,
            layers.record_ms.len(),
        );
        v.set("tracestore.written", layers.rundir.written as f64, 1);
        v.set("tracestore.errors", layers.rundir.errors as f64, 1);
    }
    v.samples("tracestore.sink_self_ms", &layers.sink_self_ms);

    v.samples("protocol.encode_us", &layers.encode_us);
    v.samples("protocol.decode_us", &layers.decode_us);
    v.samples("protocol.result_line_us", &layers.result_line_us);
    v.samples(
        "client.batch_ms",
        &spans::durations_ms(spans, "client.batch"),
    );
    v.samples("serve.wire_wait_ms", &layers.wire_wait_ms);
    let serve = if workload == Workload::ServeWarm {
        traced_passes[0].serve
    } else {
        layers.serve
    };
    if let Some(s) = serve {
        v.set("serve.cache_hits", s.cache_hits as f64, 1);
        v.set("serve.cache_misses", s.cache_misses as f64, 1);
        v.set("serve.deduped", s.deduped as f64, 1);
        v.set("serve.rejected", s.rejected as f64, 1);
        v.set("serve.queue_peak", s.queue_peak as f64, 1);
        v.set("serve.timeouts", s.timeouts as f64, 1);
    }
    v.into_metrics()
}
