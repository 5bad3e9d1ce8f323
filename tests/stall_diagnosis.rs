//! The typed failure pipeline: a pathological machine configuration
//! yields `Err(RunFailure::Stall(..))` with a usable diagnosis instead
//! of a process abort.

use cellsim::{CellConfig, CellSystem, Placement, RunFailure, StallKind, SyncPolicy, TransferPlan};

/// A blade whose local bank answers after 100 G bus cycles: the first
/// memory access schedules past the 50 G-cycle safety horizon, so the
/// run can never drain. Cheap to simulate — the watchdog trips on the
/// first out-of-horizon event.
fn glacial_blade() -> CellSystem {
    let mut config = CellConfig::default();
    config.local_bank.access_latency = 100_000_000_000;
    config.remote_bank.access_latency = 100_000_000_000;
    CellSystem::new(config)
}

fn plan() -> TransferPlan {
    TransferPlan::builder()
        .get_from_memory(0, 64 << 10, 16 * 1024, SyncPolicy::AfterAll)
        .build()
        .unwrap()
}

#[test]
fn stalling_run_returns_a_diagnosis_not_a_panic() {
    let failure = glacial_blade()
        .try_run(&Placement::identity(), &plan())
        .unwrap_err();
    let RunFailure::Stall(diagnosis) = &failure;
    assert_eq!(diagnosis.kind, StallKind::HorizonExceeded);
    assert!(
        !diagnosis.per_spe.is_empty(),
        "diagnosis must snapshot per-SPE state"
    );
    assert!(
        diagnosis.per_spe.iter().any(cellsim::SpeStall::is_busy),
        "at least one SPE must be caught mid-transfer: {diagnosis}"
    );
    assert!(
        diagnosis.packets_in_flight() > 0
            || diagnosis.per_spe.iter().any(|s| s.pending_commands > 0),
        "a stall leaves work somewhere in the machine"
    );
}

#[test]
fn diagnosis_serializes_and_displays() {
    let failure = glacial_blade()
        .try_run(&Placement::identity(), &plan())
        .unwrap_err();
    let dump = failure.to_string();
    assert!(dump.contains("horizon-exceeded"), "dump:\n{dump}");
    assert!(dump.contains("SPE"), "dump:\n{dump}");
    let json = failure.diagnosis().to_json();
    let value = cellsim::json::parse(&json).expect("diagnosis JSON parses");
    assert_eq!(
        value.get("kind").and_then(cellsim::json::JsonValue::as_str),
        Some("horizon-exceeded")
    );
    assert!(value.get("per_spe").is_some());
}

#[test]
fn data_and_traced_variants_report_the_same_stall() {
    let system = glacial_blade();
    let plan = plan();
    let mut state = cellsim::MachineState::new();
    let direct = system.try_run(&Placement::identity(), &plan).unwrap_err();
    let with_data = system
        .try_run_with_data(&Placement::identity(), &plan, &mut state)
        .unwrap_err();
    let mut sink = cellsim::tracestore::TraceStoreWriter::new(Vec::new());
    let traced = system
        .try_run_with_sink(&Placement::identity(), &plan, &mut sink)
        .unwrap_err();
    assert_eq!(direct.diagnosis().kind, with_data.diagnosis().kind);
    assert_eq!(direct.diagnosis().kind, traced.diagnosis().kind);
}
