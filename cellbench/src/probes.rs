//! Component probes: each simulator layer driven directly through its
//! public entry points with the traffic of the workload's own runs.
//!
//! For every run spec the probe unrolls the spec's real DMA commands
//! through an [`MfcEngine`] (`enqueue`/`try_issue`), routes the packets
//! that come out over a fresh [`Eib`] (`submit`/`arbitrate`) — SPE→MIC,
//! MIC→SPE or SPE→SPE as the packet's address says — and sends them to
//! an [`XdrBank`] (`submit`) as reads or writes. The
//! [`EventQueue`] probe replays the run's own event count, live-event
//! depth and mean inter-event gap. So the flows, the read/write mix,
//! the packet count and the element sizes are those of the workload.

use std::hint::black_box;
use std::time::Instant;

use cellsim_core::exec::RunSpec;
use cellsim_core::{FabricReport, Planned};
use cellsim_eib::{Eib, Element, FlowClass, Topology, TransferRequest};
use cellsim_kernel::{Cycle, EventQueue};
use cellsim_mem::{Op, XdrBank};
use cellsim_mfc::{DmaKind, EffectiveAddr, Issue, MfcEngine};

use crate::workload::SplitMix64;

/// Host time and work counts of the probes, summed over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTotals {
    /// Nanoseconds in `EventQueue::push`/`pop` loops.
    pub queue_ns: u64,
    /// Events pushed and popped.
    pub queue_events: u64,
    /// Nanoseconds in `MfcEngine::enqueue`/`try_issue` loops.
    pub mfc_ns: u64,
    /// Packets the MFC issued.
    pub mfc_packets: u64,
    /// Nanoseconds in `Eib::submit`/`arbitrate` loops.
    pub eib_ns: u64,
    /// Grants the arbiter made.
    pub eib_grants: u64,
    /// Nanoseconds in `XdrBank::submit` loops.
    pub mem_ns: u64,
    /// Bank accesses submitted.
    pub mem_submits: u64,
}

/// One bus packet as the MFC produced it, with the issuing SPE's
/// physical index.
#[derive(Debug, Clone, Copy)]
struct Packet {
    spe: u8,
    kind: DmaKind,
    bytes: u32,
    /// Physical SPE at the far end, or `None` for main memory.
    peer: Option<u8>,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs every probe on `spec`'s traffic and adds the results to
/// `totals`. `report` is the run's own report (for the event-queue
/// shape).
///
/// # Errors
///
/// A description of any command the MFC refuses.
pub fn probe_run(
    spec: &RunSpec,
    report: &FabricReport,
    totals: &mut ProbeTotals,
) -> Result<(), String> {
    let mapping = spec.placement.mapping();
    let config = spec.system.config();
    let mut per_spe: Vec<Vec<Packet>> = Vec::new();
    for (logical, script) in spec.plan.scripts().iter().enumerate() {
        if script.is_empty() {
            continue;
        }
        let mut packets = Vec::new();
        let start = Instant::now();
        unroll(
            config.mfc,
            mapping,
            mapping[logical],
            script.commands(),
            &mut packets,
        )?;
        totals.mfc_ns += elapsed_ns(start);
        totals.mfc_packets += packets.len() as u64;
        per_spe.push(packets);
    }
    let packets = interleave(per_spe);

    let mut eib = Eib::new(Topology::cbe(), config.eib);
    let window = 16 * spec.plan.active_spes().count().max(1);
    let start = Instant::now();
    totals.eib_grants += route(&mut eib, &packets, window);
    totals.eib_ns += elapsed_ns(start);

    let mut bank = XdrBank::new(config.local_bank);
    let start = Instant::now();
    totals.mem_submits += bank_traffic(&mut bank, &packets);
    totals.mem_ns += elapsed_ns(start);

    let start = Instant::now();
    totals.queue_events += replay_events(report, spec.key.placement[0].into());
    totals.queue_ns += elapsed_ns(start);
    Ok(())
}

/// Unrolls one SPE's commands into packets, delivering each at once so
/// the MFC's own unroll and issue path is all that is timed.
fn unroll(
    cfg: cellsim_mfc::MfcConfig,
    mapping: &[u8; 8],
    spe: u8,
    commands: &[Planned],
    out: &mut Vec<Packet>,
) -> Result<(), String> {
    let mut mfc = MfcEngine::new(cfg).map_err(|e| e.to_string())?;
    let mut queued = commands.iter().peekable();
    let mut now = Cycle::ZERO;
    loop {
        while mfc.has_space() {
            let Some(cmd) = queued.next() else { break };
            match cmd {
                Planned::Elem(c) => mfc.enqueue(now, *c),
                Planned::List(l) => mfc.enqueue_list(now, l.clone()),
            }
            .map_err(|e| format!("MFC refused a command: {e:?}"))?;
        }
        match mfc.try_issue(now) {
            Issue::Packet(p) => {
                let peer = match p.ea {
                    EffectiveAddr::Memory { .. } => None,
                    EffectiveAddr::LocalStore { spe, .. } => Some(mapping[usize::from(spe)]),
                };
                out.push(Packet {
                    spe,
                    kind: p.kind,
                    bytes: p.bytes,
                    peer,
                });
                if mfc.packet_delivered(now, p.token) {
                    if let Some(life) = mfc.take_completed() {
                        mfc.recycle(life);
                    }
                }
            }
            Issue::Stalled { retry_at } => now = retry_at.max(now + 1),
            Issue::Blocked => return Err("MFC blocked with nothing in flight".to_string()),
            Issue::Idle => {
                if queued.peek().is_none() {
                    return Ok(());
                }
            }
        }
    }
}

/// Round-robin merge of the per-SPE packet streams, so concurrent SPEs
/// contend in the probes as they do in the run.
fn interleave(per_spe: Vec<Vec<Packet>>) -> Vec<Packet> {
    let total = per_spe.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<_> = per_spe.into_iter().map(Vec::into_iter).collect();
    while out.len() < total {
        for it in &mut iters {
            if let Some(p) = it.next() {
                out.push(p);
            }
        }
    }
    out
}

/// The bus transfer that moves `p`'s payload.
fn request(p: &Packet) -> TransferRequest {
    let own = Element::spe(p.spe);
    let (src, dst, class) = match (p.kind, p.peer) {
        (DmaKind::Get, None) => (Element::Mic, own, FlowClass::MemRead),
        (DmaKind::Put, None) => (own, Element::Mic, FlowClass::MfcOut),
        (DmaKind::Get, Some(peer)) => (Element::spe(peer), own, FlowClass::LsRead),
        (DmaKind::Put, Some(peer)) => (own, Element::spe(peer), FlowClass::MfcOut),
    };
    TransferRequest {
        src,
        dst,
        bytes: p.bytes,
        class,
    }
}

/// Submits the packets to the arbiter with at most `window` pending and
/// arbitrates until all are granted. Returns the grants made.
fn route(eib: &mut Eib, packets: &[Packet], window: usize) -> u64 {
    let mut now = Cycle::ZERO;
    let mut next = 0;
    let mut pending = 0;
    let mut granted = 0u64;
    loop {
        while pending < window && next < packets.len() {
            eib.submit(now, next as u64, request(&packets[next]));
            next += 1;
            pending += 1;
        }
        if pending == 0 {
            return granted;
        }
        let grants = eib.arbitrate(now);
        pending -= grants.len();
        granted += grants.len() as u64;
        black_box(&grants);
        now = eib.next_release_after(now).unwrap_or(now + 1).max(now + 1);
    }
}

/// Sends every packet to the bank in order, GETs as reads and PUTs as
/// writes, waiting out the backlog horizon as the fabric does. All
/// packets go, not only those addressed to memory, so the bank's cost
/// is measured under every workload's size and read/write mix (the
/// simulated `mem.accesses` says which workloads really touch memory).
/// Returns the accesses submitted.
fn bank_traffic(bank: &mut XdrBank, packets: &[Packet]) -> u64 {
    let mut now = Cycle::ZERO;
    for p in packets {
        if !bank.can_accept(now) {
            now = bank.next_accept_time(now);
        }
        let op = match p.kind {
            DmaKind::Get => Op::Read,
            DmaKind::Put => Op::Write,
        };
        black_box(bank.submit(now, op, p.bytes));
    }
    packets.len() as u64
}

/// Replays the run's event stream shape through an [`EventQueue`]: as
/// many pops (each scheduling a successor) as the run processed events,
/// with the run's live-event depth and mean inter-event gap. Returns
/// the push+pop pairs made.
fn replay_events(report: &FabricReport, seed: u64) -> u64 {
    let events = report.metrics.events;
    let depth = (report.metrics.peak_live_packets + report.per_spe_bytes.len() as u64).max(1);
    let gap = (report.cycles.saturating_mul(depth) / events.max(1)).max(1);
    let mut rng = SplitMix64::new(seed ^ events);
    let mut queue = EventQueue::new();
    for e in 0..depth {
        queue.push(Cycle::new(rng.next_u64() % (2 * gap)), e);
    }
    for _ in 0..events {
        let (at, e) = queue.pop().expect("the queue keeps its depth");
        queue.push(at + 1 + rng.next_u64() % (2 * gap), e);
    }
    black_box(queue.len());
    events + depth
}
