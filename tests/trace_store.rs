//! The trace store's determinism and conservation contract: a recorded
//! run directory is byte-identical whether the sweep ran serially, on
//! four workers, or against a warm run cache; every artifact's counts
//! reconcile exactly with its metrics digest; and corruption surfaces
//! as typed errors that the next recording pass heals. A store recorded
//! into memory answers the per-ring, per-bank and per-SPE byte questions
//! exactly as the always-on metrics do.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use cellsim::exec::{RunSpec, SweepExecutor};
use cellsim::experiments::{figure_points, figure_specs, ExperimentConfig};
use cellsim::tracestore::{
    Manifest, TraceFilter, TraceKind, TraceStore, TraceStoreError, TraceStoreWriter, TRACE_FILE,
};
use cellsim::{CellSystem, FabricReport, FaultPlan, Placement, SyncPolicy, TransferPlan};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cellsim-trace-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A reduced figure-12 sweep: several distinct run keys, fast runs.
fn tiny_specs(system: &CellSystem) -> Vec<RunSpec> {
    let cfg = ExperimentConfig {
        volume_per_spe: 32 << 10,
        dma_elem_sizes: vec![1024],
        placements: 2,
        seed: 0xCE11,
    };
    let points = figure_points(&cfg, "12")
        .expect("valid config")
        .expect("fabric figure");
    figure_specs(system, &cfg, &points)
}

/// Every file under `dir`, keyed by path relative to it.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, std::fs::read(&path).expect("readable file"));
            }
        }
    }
    files
}

/// Records `specs` into a fresh run directory on a `jobs`-wide executor.
fn record(jobs: usize, dir: &Path, specs: Vec<RunSpec>) -> SweepExecutor {
    let mut exec = SweepExecutor::new(jobs);
    exec.set_run_dir(dir).expect("run dir attaches");
    for result in exec.try_run(specs) {
        result.expect("healthy runs succeed");
    }
    exec
}

#[test]
fn run_dir_artifacts_identical_serial_parallel_and_cached() {
    let system = CellSystem::blade();
    let specs = tiny_specs(&system);

    let serial_dir = temp_dir("serial");
    let serial_exec = record(1, &serial_dir, specs.clone());
    let serial = snapshot(&serial_dir);
    assert!(!serial.is_empty(), "the sweep recorded artifacts");

    let parallel_dir = temp_dir("parallel");
    record(4, &parallel_dir, specs.clone());
    assert_eq!(
        serial,
        snapshot(&parallel_dir),
        "--jobs 4 must record byte-identical artifacts to --jobs 1"
    );

    // A warm run cache must not perturb recording: artifacts missing
    // from a fresh directory bypass the cache and re-simulate traced,
    // landing byte-identical to the cold recording.
    let warm_dir = temp_dir("warm");
    let mut warm_exec = SweepExecutor::new(2);
    for result in warm_exec.try_run(specs.clone()) {
        result.expect("warming run succeeds");
    }
    assert!(warm_exec.stats().misses > 0, "the warm pass simulated");
    warm_exec.set_run_dir(&warm_dir).expect("run dir attaches");
    for result in warm_exec.try_run(specs.clone()) {
        result.expect("recorded run succeeds");
    }
    assert_eq!(
        serial,
        snapshot(&warm_dir),
        "recording against a warm cache must stay byte-identical"
    );

    // A second pass over an already-complete directory reuses every
    // artifact — nothing is rewritten, the reuse counter says why.
    let before = serial_exec.run_dir().expect("attached").stats();
    for result in serial_exec.try_run(specs) {
        result.expect("reused run succeeds");
    }
    let after = serial_exec.run_dir().expect("attached").stats();
    assert_eq!(after.written, before.written, "no artifact rewritten");
    assert!(after.reused > before.reused, "complete artifacts reused");
    assert_eq!(serial, snapshot(&serial_dir), "bytes untouched by reuse");

    for dir in [serial_dir, parallel_dir, warm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn store_counts_reconcile_exactly_with_the_metrics_digest() {
    let system = CellSystem::blade();
    let specs = tiny_specs(&system);
    let dir = temp_dir("reconcile");
    record(1, &dir, specs);

    let mut entries = 0;
    for entry in std::fs::read_dir(&dir).expect("run dir") {
        let entry = entry.expect("dir entry").path();
        if !entry.is_dir() {
            continue;
        }
        entries += 1;
        let manifest = Manifest::load(&entry).expect("manifest parses");
        let store = TraceStore::open(&entry.join(TRACE_FILE)).expect("store opens");
        let totals = store.totals();
        // Conservation by construction: the event log's counts ARE the
        // metrics digest's counts, with zero drift.
        assert_eq!(totals.delivered, manifest.packets, "{}", entry.display());
        assert_eq!(totals.delivered_bytes, manifest.total_bytes);
        assert_eq!(totals.issued, manifest.packets + manifest.abandoned);
        assert_eq!(totals.sim_events, manifest.events);
        assert_eq!(totals.events, manifest.trace_events);
        let (recounted, rebytes) = store.recount().expect("decodable blocks");
        assert_eq!(recounted.iter().sum::<u64>(), totals.events);
        assert_eq!(rebytes, totals.delivered_bytes);
    }
    assert!(entries > 0, "the sweep recorded artifacts");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_artifacts_error_typed_and_are_re_recorded() {
    let system = CellSystem::blade();
    let specs = tiny_specs(&system);
    let dir = temp_dir("corrupt");
    record(1, &dir, specs.clone());
    let pristine = snapshot(&dir);

    // Truncate one store mid-payload: opening it is a typed corruption
    // error, never a panic.
    let victim = std::fs::read_dir(&dir)
        .expect("run dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.is_dir())
        .expect("at least one entry")
        .join(TRACE_FILE);
    let bytes = std::fs::read(&victim).expect("trace file");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");
    match TraceStore::open(&victim) {
        Err(TraceStoreError::Corrupt { .. }) => {}
        Err(other) => panic!("expected a corruption error, got {other}"),
        Ok(_) => panic!("a truncated store must not open"),
    }

    // The next recording pass notices the incomplete artifact (its size
    // no longer matches the manifest), re-simulates, and re-records the
    // directory back to its pristine bytes.
    record(1, &dir, specs);
    assert_eq!(pristine, snapshot(&dir), "self-healed to identical bytes");
    let _ = std::fs::remove_dir_all(dir);
}

/// Records one run into an in-memory store.
fn record_in_memory(
    system: &CellSystem,
    placement: &Placement,
    plan: &TransferPlan,
) -> (FabricReport, TraceStore) {
    let mut writer = TraceStoreWriter::new(Vec::new());
    let report = system
        .try_run_with_sink(placement, plan, &mut writer)
        .expect("run completes");
    let (bytes, _) = writer
        .finalize(report.metrics.events, report.packets)
        .expect("in-memory store finalizes");
    (
        report,
        TraceStore::from_bytes(bytes).expect("store verifies"),
    )
}

#[test]
fn store_phases_and_byte_totals_match_the_metrics() {
    let get_put = TransferPlan::builder()
        .get_from_memory(0, 256 << 10, 16 * 1024, SyncPolicy::AfterAll)
        .put_to_memory(1, 256 << 10, 16 * 1024, SyncPolicy::AfterAll)
        .build()
        .expect("valid plan");
    let mut cycle = TransferPlan::builder();
    for spe in 0..8 {
        cycle = cycle.exchange_with(
            spe,
            (spe + 1) % 8,
            64 << 10,
            16 * 1024,
            SyncPolicy::AfterAll,
        );
    }
    let cycle = cycle.build().expect("valid plan");
    let healthy = CellSystem::blade();
    let degraded = CellSystem::blade().with_faults(
        FaultPlan::parse(include_str!("../plans/degraded_smoke.json")).expect("smoke plan parses"),
    );
    // The last field is a healthy run's memory-packet count; the degraded
    // run NACKs and abandons packets, so only the metric equalities hold.
    let runs = [
        (
            "get+put",
            &healthy,
            Placement::identity(),
            &get_put,
            Some(4096),
        ),
        (
            "8-spe cycle",
            &healthy,
            Placement::lottery(7, 0),
            &cycle,
            Some(0),
        ),
        (
            "degraded get+put",
            &degraded,
            Placement::identity(),
            &get_put,
            None,
        ),
    ];

    for (name, system, placement, plan, mem_packets) in runs {
        let (report, store) = record_in_memory(system, &placement, plan);
        let m = &report.metrics;
        // Per-phase counts, and bytes keyed by ring (grants), bank
        // (memory accesses) and initiating SPE (deliveries).
        let mut counts = [0u64; 4];
        let mut ring_bytes = vec![0u64; m.rings.len()];
        let mut bank_bytes = vec![0u64; m.banks.len()];
        let mut spe_bytes = vec![0u64; report.per_spe_bytes.len()];
        store
            .for_each(&TraceFilter::default(), |e| {
                counts[e.kind as usize] += 1;
                let bytes = u64::from(e.bytes);
                match e.kind {
                    TraceKind::Issue => {}
                    TraceKind::Mem => bank_bytes[usize::from(e.aux)] += bytes,
                    TraceKind::Grant => ring_bytes[usize::from(e.aux)] += bytes,
                    TraceKind::Deliver => spe_bytes[usize::from(e.spe)] += bytes,
                }
                Ok(())
            })
            .expect("store decodes");

        let [issued, mem, granted, delivered] = counts;
        let abandoned = m.faults.abandoned_packets;
        assert_eq!(issued, report.packets + abandoned, "{name}: issues");
        assert_eq!(delivered, report.packets, "{name}: delivers");
        let ring_grants: u64 = m.rings.iter().map(|r| r.grants).sum();
        assert_eq!(granted, ring_grants, "{name}: grants");
        let accesses: u64 = m.banks.iter().map(|b| b.stats.accesses).sum();
        assert_eq!(mem, accesses, "{name}: memory accesses");
        if let Some(mem_packets) = mem_packets {
            // One issue, grant and delivery per 128-byte packet, and one
            // memory access per memory packet.
            let packets = plan.total_bytes() / 128;
            assert_eq!(report.packets, packets, "{name}: packets");
            assert_eq!(abandoned, 0, "{name}: healthy runs abandon nothing");
            assert_eq!(granted, packets, "{name}: one grant per packet");
            assert_eq!(mem, mem_packets, "{name}: one access per memory packet");
        } else {
            assert!(m.faults.nacks > 0, "{name}: the fault plan is active");
        }

        let rings: Vec<u64> = m.rings.iter().map(|r| r.bytes).collect();
        assert_eq!(ring_bytes, rings, "{name}: per-ring bytes");
        for (i, b) in m.banks.iter().enumerate() {
            assert_eq!(b.bank as usize, i, "banks are listed in id order");
            assert_eq!(bank_bytes[i], b.stats.bytes, "{name}: bank {i} bytes");
        }
        assert_eq!(spe_bytes, report.per_spe_bytes, "{name}: per-SPE bytes");
    }
}
