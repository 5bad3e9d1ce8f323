//! The fabric's trace seam: what the machine did, packet phase by packet
//! phase.
//!
//! [`crate::CellSystem::try_run_with_sink`] streams one [`FabricEvent`]
//! per packet phase (command issue, memory access, ring grant, delivery)
//! into a [`TraceSink`]. The one sink is the streaming
//! [`TraceStoreWriter`](crate::tracestore::TraceStoreWriter); its
//! [`TraceStore`](crate::tracestore::TraceStore) answers the post-hoc
//! questions (ring shares, hop counts, throughput over time) by scanning
//! the recorded events, and the always-on
//! [`FabricMetrics`](crate::FabricMetrics) carry the per-ring, per-bank
//! and per-SPE byte totals without any trace at all.

use cellsim_eib::RingId;
use cellsim_kernel::Cycle;
use cellsim_mem::BankId;

use crate::latency::DmaPathClass;

/// Context the fabric knows at every trace point but [`FabricEvent`]
/// does not carry: the initiating logical SPE and the DMA path class of
/// the packet. The trace store indexes on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMeta {
    /// Initiating logical SPE.
    pub spe: u8,
    /// The packet's DMA path (mem-get/mem-put/ls-get/ls-put).
    pub path: DmaPathClass,
}

/// Where the fabric sends trace events. One simulation drives at most
/// one sink. Sinks must be infallible: a sink that can fail (I/O)
/// latches its error internally and reports it when finalized, never
/// mid-run.
pub trait TraceSink {
    /// Records one event at simulated time `at`.
    fn record(&mut self, at: Cycle, meta: TraceMeta, event: FabricEvent);
}

/// One traced fabric occurrence. The initiating SPE travels in the
/// accompanying [`TraceMeta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// An MFC put a packet on the command bus.
    CommandIssued,
    /// A DRAM access was queued.
    MemoryAccess {
        /// Which bank served it.
        bank: BankId,
        /// Payload size.
        bytes: u32,
    },
    /// The data arbiter granted a ring.
    Granted {
        /// Ring carrying the packet.
        ring: RingId,
        /// Path length.
        hops: usize,
        /// Payload size.
        bytes: u32,
    },
    /// A packet retired: its payload reached its final destination (for
    /// memory PUTs that is the DRAM write completing, not wire arrival)
    /// and its MFC slot freed. Recorded at retirement so the event count
    /// equals [`FabricReport::packets`](crate::FabricReport::packets)
    /// exactly, even when a fault plan abandons packets mid-flight.
    Delivered {
        /// Payload size.
        bytes: u32,
    },
}

#[cfg(test)]
mod tests {
    use crate::tracestore::{StoreEvent, TraceFilter, TraceKind, TraceStore, TraceStoreWriter};
    use crate::{CellSystem, Placement, SyncPolicy, TransferPlan};

    /// Every event of a two-SPE memory GET run, recorded through the
    /// trace seam into an in-memory store.
    fn traced_run() -> Vec<StoreEvent> {
        let sys = CellSystem::blade();
        let plan = TransferPlan::builder()
            .get_from_memory(0, 256 << 10, 16 * 1024, SyncPolicy::AfterAll)
            .get_from_memory(1, 256 << 10, 16 * 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let mut writer = TraceStoreWriter::new(Vec::new());
        let report = sys
            .try_run_with_sink(&Placement::identity(), &plan, &mut writer)
            .unwrap();
        let (bytes, _) = writer
            .finalize(report.metrics.events, report.packets)
            .unwrap();
        let store = TraceStore::from_bytes(bytes).unwrap();
        let mut events = Vec::new();
        store
            .for_each(&TraceFilter::default(), |e| {
                events.push(*e);
                Ok(())
            })
            .unwrap();
        events
    }

    /// Sums event bytes of `kind`, keyed by `key`, in key order.
    fn bytes_by(
        events: &[StoreEvent],
        kind: TraceKind,
        key: fn(&StoreEvent) -> u8,
    ) -> Vec<(u8, u64)> {
        let mut totals = std::collections::BTreeMap::new();
        for e in events.iter().filter(|e| e.kind == kind) {
            *totals.entry(key(e)).or_insert(0) += u64::from(e.bytes);
        }
        totals.into_iter().collect()
    }

    #[test]
    fn trace_captures_every_packet_phase() {
        let events = traced_run();
        let count = |kind: TraceKind| events.iter().filter(|e| e.kind == kind).count();
        // 512 KiB / 128 B = 4096 packets, each with one of each phase.
        assert_eq!(count(TraceKind::Issue), 4096);
        assert_eq!(count(TraceKind::Mem), 4096);
        assert_eq!(count(TraceKind::Grant), 4096);
        assert_eq!(count(TraceKind::Deliver), 4096);
    }

    #[test]
    fn banks_split_the_two_spe_load() {
        let banks = bytes_by(&traced_run(), TraceKind::Mem, |e| e.aux);
        assert_eq!(banks.len(), 2, "round-robin regions use both banks");
        for (_, bytes) in banks {
            assert_eq!(bytes, 256 << 10);
        }
    }

    #[test]
    fn per_spe_accounting_matches_the_plan() {
        assert_eq!(
            bytes_by(&traced_run(), TraceKind::Deliver, |e| e.spe),
            vec![(0, 256 << 10), (1, 256 << 10)]
        );
    }
}
