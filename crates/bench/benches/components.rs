//! Component micro-benchmarks: the hot paths of the simulator itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cellsim_eib::{Eib, EibConfig, Element, FlowClass, Topology, TransferRequest};
use cellsim_kernel::{Cycle, EventQueue};
use cellsim_mem::{BankConfig, Op, XdrBank};
use cellsim_mfc::{DmaCommand, DmaKind, EffectiveAddr, Issue, LsAddr, MfcConfig, MfcEngine, TagId};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.push(Cycle::new(i * 7 % 997), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            black_box(sum)
        })
    });
}

fn bench_eib(c: &mut Criterion) {
    c.bench_function("eib/submit_arbitrate_64", |b| {
        b.iter(|| {
            let mut eib = Eib::new(Topology::cbe(), EibConfig::default());
            for i in 0..64u64 {
                let src = Element::spe((i % 8) as u8);
                let dst = Element::spe(((i + 1) % 8) as u8);
                eib.submit(
                    Cycle::ZERO,
                    i,
                    TransferRequest {
                        src,
                        dst,
                        bytes: 128,
                        class: FlowClass::MfcOut,
                    },
                );
            }
            let mut now = Cycle::ZERO;
            let mut granted = 0;
            while eib.has_pending() {
                granted += eib.arbitrate(now).len();
                if let Some(t) = eib.next_release_after(now) {
                    now = t;
                } else {
                    break;
                }
            }
            black_box(granted)
        })
    });
    // Figure 8's 8-SPE GET+PUT at queue depth: every SPE keeps 16
    // packets pending, alternating memory reads (MIC→SPE) and writes
    // (SPE→MIC), all in the MIC-priority class. The token names the
    // flow; each granted flow resubmits at once, until 4096 packets have
    // been granted.
    c.bench_function("eib/mixed_getput_8spe_depth16", |b| {
        let request = |flow: u64| {
            let spe = Element::spe((flow % 8) as u8);
            if (flow / 8).is_multiple_of(2) {
                TransferRequest {
                    src: Element::Mic,
                    dst: spe,
                    bytes: 128,
                    class: FlowClass::MemRead,
                }
            } else {
                TransferRequest {
                    src: spe,
                    dst: Element::Mic,
                    bytes: 128,
                    class: FlowClass::MfcOut,
                }
            }
        };
        b.iter(|| {
            let mut eib = Eib::new(Topology::cbe(), EibConfig::default());
            for flow in 0..8 * 16 {
                eib.submit(Cycle::ZERO, flow, request(flow));
            }
            let mut grants = Vec::new();
            let mut now = Cycle::ZERO;
            let mut granted = 0u64;
            while granted < 4096 {
                eib.arbitrate_into(now, &mut grants);
                for &(flow, _) in &grants {
                    eib.submit(now, flow, request(flow));
                }
                granted += grants.len() as u64;
                now = eib.next_release_after(now).expect("queue never drains");
            }
            black_box(granted)
        })
    });
}

fn bench_mfc(c: &mut Criterion) {
    c.bench_function("mfc/unroll_16k_command", |b| {
        b.iter(|| {
            let mut mfc =
                MfcEngine::new(MfcConfig::default()).expect("default MFC config is valid");
            let cmd = DmaCommand::new(
                DmaKind::Get,
                LsAddr(0),
                EffectiveAddr::Memory {
                    region: cellsim_mem::RegionId(0),
                    offset: 0,
                },
                16 * 1024,
                TagId::new(0).unwrap(),
            )
            .unwrap();
            mfc.enqueue(Cycle::ZERO, cmd).unwrap();
            let mut now = Cycle::ZERO;
            let mut packets = 0;
            loop {
                match mfc.try_issue(now) {
                    Issue::Packet(p) => {
                        packets += 1;
                        mfc.packet_delivered(now, p.token);
                        now += 1;
                    }
                    Issue::Stalled { retry_at } => now = retry_at,
                    _ => break,
                }
            }
            black_box(packets)
        })
    });
}

fn bench_bank(c: &mut Criterion) {
    c.bench_function("mem/bank_submit_1k", |b| {
        b.iter(|| {
            let mut bank = XdrBank::new(BankConfig::local_xdr());
            let mut last = Cycle::ZERO;
            for i in 0..1024 {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                last = bank.submit(Cycle::ZERO, op, 128).data_ready;
            }
            black_box(last)
        })
    });
}

criterion_group!(benches, bench_event_queue, bench_eib, bench_mfc, bench_bank);
criterion_main!(benches);
