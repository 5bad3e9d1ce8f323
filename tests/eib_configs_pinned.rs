//! Pins the exact results of machine configurations that
//! `BENCH_baseline.json` does not cover, so a change to the arbiter (or
//! anything under it) that moves them is caught at `--tolerance 0`.
//!
//! Each case runs a reduced quick sweep of Figure 8 (SPE↔memory GET, PUT
//! and GET+PUT: MIC-priority traffic) and Figure 15 (SPE↔SPE cycle) and
//! hashes every report's canonical JSON. The pinned values were recorded
//! from the linear-scan arbiter; a deliberate modelling change re-records
//! them (run with `--nocapture` to print the new fingerprints).

use cellsim::core::diskcache::report_to_json;
use cellsim::core::experiments::{figure_points, figure_specs, ExperimentConfig};
use cellsim::eib::RingOccupancy;
use cellsim::exec::SweepExecutor;
use cellsim::kernel::hash::{fnv1a, fnv1a_extend};
use cellsim::{CellConfig, CellSystem, FaultPlan};

/// The quick sweep (element sizes, placements, seed) at a quarter of its
/// volume, to keep the four cases to a few seconds in all.
fn sweep() -> ExperimentConfig {
    ExperimentConfig {
        volume_per_spe: 64 << 10,
        ..ExperimentConfig::quick()
    }
}

/// FNV-1a over the canonical JSON of every report in figure order.
fn fingerprint(system: &CellSystem) -> u64 {
    let cfg = sweep();
    let mut specs = Vec::new();
    for figure in ["8", "15"] {
        let points = figure_points(&cfg, figure)
            .expect("valid sweep")
            .expect("fabric figure");
        specs.extend(figure_specs(system, &cfg, &points));
    }
    let reports = SweepExecutor::new(1).run(specs);
    let mut hash = fnv1a(b"");
    for report in &reports {
        hash = fnv1a_extend(hash, report_to_json(report).as_bytes());
    }
    hash
}

fn check(name: &str, system: &CellSystem, pinned: u64) {
    let got = fingerprint(system);
    println!("{name}: {got:#018x}");
    assert_eq!(got, pinned, "{name}: results moved ({got:#018x})");
}

fn with(tweak: impl FnOnce(&mut CellConfig)) -> CellSystem {
    let mut cfg = CellConfig::default();
    tweak(&mut cfg);
    CellSystem::new(cfg)
}

#[test]
fn pipelined_occupancy_is_pinned() {
    let system = with(|c| c.eib.occupancy = RingOccupancy::Pipelined);
    check("pipelined", &system, 0x99bd_7cdb_0054_f72b);
}

#[test]
fn one_ring_per_direction_is_pinned() {
    let system = with(|c| c.eib.rings_per_direction = 1);
    check("rings_per_direction=1", &system, 0xadc6_c630_1441_2064);
}

#[test]
fn source_switch_penalty_is_pinned() {
    let system = with(|c| c.eib.source_switch_penalty = 3);
    check("source_switch_penalty=3", &system, 0xaefa_1390_f425_bf98);
}

#[test]
fn degraded_smoke_plan_is_pinned() {
    let text = include_str!("../plans/degraded_smoke.json");
    let plan = FaultPlan::parse(text).expect("smoke plan parses");
    check(
        "degraded_smoke",
        &CellSystem::blade().with_faults(plan),
        0x0141_93db_86d2_7475,
    );
}
