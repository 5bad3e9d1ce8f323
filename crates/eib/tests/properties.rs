//! Property tests for the EIB: routing invariants, arbitration
//! liveness/conservation, and equivalence of the incremental arbiter with
//! a linear-scan reference model.

use cellsim_eib::{Eib, EibConfig, Element, FlowClass, RingOccupancy, Topology, TransferRequest};
use cellsim_faults::{DerateWindow, EibFaults, RingOutage, Window};
use cellsim_kernel::Cycle;
use proptest::prelude::*;

fn element() -> impl Strategy<Value = Element> {
    prop_oneof![
        Just(Element::Ppe),
        (0u8..8).prop_map(Element::Spe),
        Just(Element::Mic),
        Just(Element::Ioif0),
        Just(Element::Ioif1),
    ]
}

fn distinct_pair() -> impl Strategy<Value = (Element, Element)> {
    (element(), element()).prop_filter("distinct", |(a, b)| a != b)
}

proptest! {
    /// Routing invariants on the production topology: at most halfway,
    /// segment count equals hop count, and CW/CCW hops sum to the ring.
    #[test]
    fn routes_are_shortest_and_consistent((a, b) in distinct_pair()) {
        let t = Topology::cbe();
        let routes = t.routes(a, b);
        prop_assert!(!routes.is_empty());
        prop_assert!(routes[0].hops == t.distance(a, b));
        for r in &routes {
            prop_assert!(r.hops >= 1 && r.hops <= 6);
            prop_assert_eq!(r.segments.count_ones() as usize, r.hops);
        }
        // Reverse direction has the same shortest distance.
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
    }

    /// Opposite routes (a→b clockwise vs b→a counter-clockwise) cover the
    /// same wire segments.
    #[test]
    fn reverse_route_uses_the_same_segments((a, b) in distinct_pair()) {
        let t = Topology::cbe();
        let fwd = &t.routes(a, b)[0];
        let back = t
            .routes(b, a)
            .into_iter()
            .find(|r| r.hops == fwd.hops && r.direction != fwd.direction);
        if let Some(back) = back {
            prop_assert_eq!(back.segments, fwd.segments);
        }
    }

    /// Pipelined staggered segment order visits exactly the mask, in hop
    /// order.
    #[test]
    fn segments_in_order_covers_the_mask((a, b) in distinct_pair()) {
        let t = Topology::cbe();
        for route in t.routes(a, b) {
            let mut mask = 0u32;
            let mut last_k = None;
            for (k, seg) in route.segments_in_order() {
                if let Some(prev) = last_k {
                    prop_assert_eq!(k, prev + 1);
                }
                last_k = Some(k);
                mask |= 1 << seg;
            }
            prop_assert_eq!(mask, route.segments);
        }
    }

    /// Liveness + conservation: every submitted transfer is eventually
    /// granted exactly once, under either occupancy model, and the total
    /// granted bytes match.
    #[test]
    fn arbitration_grants_everything_once(
        pairs in proptest::collection::vec(distinct_pair(), 1..40),
        pipelined in any::<bool>(),
    ) {
        let cfg = EibConfig {
            occupancy: if pipelined {
                RingOccupancy::Pipelined
            } else {
                RingOccupancy::CircuitHold
            },
            ..EibConfig::default()
        };
        let mut eib = Eib::new(Topology::cbe(), cfg);
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            eib.submit(
                Cycle::ZERO,
                i as u64,
                TransferRequest { src, dst, bytes: 128, class: FlowClass::MfcOut },
            );
        }
        let mut now = Cycle::ZERO;
        let mut tokens = Vec::new();
        let mut rounds = 0;
        loop {
            for (tok, grant) in eib.arbitrate(now) {
                prop_assert!(grant.start >= now);
                prop_assert!(grant.delivered_at >= grant.wire_done);
                tokens.push(tok);
            }
            if !eib.has_pending() {
                break;
            }
            now = eib.next_release_after(now).expect("pending implies release");
            rounds += 1;
            prop_assert!(rounds < 10_000, "arbitration did not converge");
        }
        tokens.sort_unstable();
        let expected: Vec<u64> = (0..pairs.len() as u64).collect();
        prop_assert_eq!(tokens, expected);
        prop_assert_eq!(eib.stats().grants, pairs.len() as u64);
        prop_assert_eq!(eib.stats().bytes, 128 * pairs.len() as u64);
    }
}

/// Reference model: the arbiter as a plain linear scan over one age-ordered
/// queue (MIC pass, then the rest; per-direction head-of-line blocking)
/// plus a full scan of every ring segment and port for the next release.
/// The incremental [`Eib`] must make exactly the same decisions.
mod reference {
    use std::collections::VecDeque;

    use cellsim_eib::{
        Direction, EibConfig, EibStats, FlowClass, Grant, Ring, RingId, RingOccupancy, RingStats,
        Topology, TransferRequest,
    };
    use cellsim_faults::EibFaults;
    use cellsim_kernel::Cycle;

    struct Pending {
        token: u64,
        req: TransferRequest,
        enqueued: Cycle,
        dir: Direction,
        mic: bool,
    }

    pub struct ScanEib {
        topology: Topology,
        cfg: EibConfig,
        rings: Vec<Ring>,
        send_free: Vec<Cycle>,
        recv_free: Vec<Cycle>,
        last_send_class: Vec<Option<FlowClass>>,
        pending: VecDeque<Pending>,
        pub stats: EibStats,
        pub ring_stats: Vec<RingStats>,
        faults: EibFaults,
    }

    impl ScanEib {
        pub fn new(topology: Topology, cfg: EibConfig, faults: EibFaults) -> ScanEib {
            let n = topology.ramp_count();
            let rings: Vec<Ring> = [Direction::Clockwise, Direction::CounterClockwise]
                .into_iter()
                .flat_map(|d| (0..cfg.rings_per_direction).map(move |_| Ring::new(d, n)))
                .collect();
            ScanEib {
                topology,
                cfg,
                ring_stats: vec![RingStats::default(); rings.len()],
                rings,
                send_free: vec![Cycle::ZERO; n],
                recv_free: vec![Cycle::ZERO; n],
                last_send_class: vec![None; n],
                pending: VecDeque::new(),
                stats: EibStats::default(),
                faults,
            }
        }

        pub fn has_pending(&self) -> bool {
            !self.pending.is_empty()
        }

        pub fn submit(&mut self, now: Cycle, token: u64, req: TransferRequest) {
            self.pending.push_back(Pending {
                token,
                req,
                enqueued: now,
                dir: self.topology.routes(req.src, req.dst)[0].direction,
                mic: req.src.is_mic() || req.dst.is_mic(),
            });
        }

        pub fn arbitrate(&mut self, now: Cycle) -> Vec<(u64, Grant)> {
            let mut granted = Vec::new();
            for memory_pass in [true, false] {
                let mut blocked = [false, false];
                let mut i = 0;
                while i < self.pending.len() {
                    let p = &self.pending[i];
                    let d = usize::from(p.dir == Direction::CounterClockwise);
                    if p.mic != memory_pass || blocked[d] {
                        i += 1;
                        continue;
                    }
                    let req = p.req;
                    if let Some(mut grant) = self.try_grant(now, &req) {
                        let p = self.pending.remove(i).expect("index in range");
                        grant.waited = now.saturating_since(p.enqueued);
                        self.stats.wait_cycles += grant.waited;
                        granted.push((p.token, grant));
                    } else {
                        blocked[d] = true;
                        i += 1;
                    }
                }
            }
            granted
        }

        fn try_grant(&mut self, now: Cycle, req: &TransferRequest) -> Option<Grant> {
            let src = self.topology.ramp_of(req.src).expect("on bus").0;
            let dst = self.topology.ramp_of(req.dst).expect("on bus").0;
            if self.send_free[src] > now {
                return None;
            }
            let switch = match self.last_send_class[src] {
                Some(prev) if prev != req.class => self.cfg.source_switch_penalty,
                _ => 0,
            };
            let wire = u64::from(req.bytes.div_ceil(self.cfg.bytes_per_cycle));
            let capacity = self.faults.capacity_percent(now.as_u64());
            let wire = if capacity < 100 {
                (wire * 100).div_ceil(u64::from(capacity))
            } else {
                wire
            };
            let duration = wire + switch;
            for route in self.topology.routes(req.src, req.dst) {
                let arrival = now + route.hops as u64 * self.cfg.hop_latency;
                if self.recv_free[dst] > arrival {
                    continue;
                }
                for (idx, ring) in self.rings.iter_mut().enumerate() {
                    if ring.direction() != route.direction
                        || self.faults.ring_out(idx, now.as_u64())
                    {
                        continue;
                    }
                    let wire_done = now + duration;
                    let delivered_at = arrival + duration;
                    match self.cfg.occupancy {
                        RingOccupancy::CircuitHold => {
                            if !ring.path_free(route.segments, now) {
                                continue;
                            }
                            ring.reserve(route.segments, now, delivered_at);
                        }
                        RingOccupancy::Pipelined => {
                            if !ring.route_free(&route, now, self.cfg.hop_latency) {
                                continue;
                            }
                            ring.reserve_route(&route, now, duration, self.cfg.hop_latency);
                        }
                    }
                    self.send_free[src] = wire_done;
                    self.recv_free[dst] = delivered_at;
                    self.last_send_class[src] = Some(req.class);
                    self.stats.grants += 1;
                    self.stats.bytes += u64::from(req.bytes);
                    self.stats.segment_cycles += route.hops as u64 * duration;
                    let rs = &mut self.ring_stats[idx];
                    rs.grants += 1;
                    rs.bytes += u64::from(req.bytes);
                    rs.busy_cycles += duration;
                    return Some(Grant {
                        ring: RingId(idx),
                        direction: route.direction,
                        hops: route.hops,
                        start: now,
                        wire_done,
                        delivered_at,
                        waited: 0,
                    });
                }
            }
            None
        }

        pub fn next_release_after(&self, now: Cycle) -> Option<Cycle> {
            let ring_next = self
                .rings
                .iter()
                .filter_map(|r| r.next_release_after(now))
                .min();
            let port_next = self
                .send_free
                .iter()
                .chain(self.recv_free.iter())
                .copied()
                .filter(|&t| t > now)
                .min();
            let fault_next = self
                .faults
                .next_boundary_after(now.as_u64())
                .map(Cycle::new);
            [ring_next, port_next, fault_next]
                .into_iter()
                .flatten()
                .min()
        }
    }
}

/// One step of a random arbiter session.
#[derive(Debug, Clone)]
enum Op {
    Submit(Element, Element, u32, FlowClass),
    Arbitrate,
    /// Move to the next release (or one cycle on if none).
    AdvanceToRelease,
    /// Move ahead without arbitrating first.
    Step(u64),
    /// Ask for the next release as of an earlier cycle.
    QueryBehind(u64),
}

fn flow_class() -> impl Strategy<Value = FlowClass> {
    prop_oneof![
        Just(FlowClass::MfcOut),
        Just(FlowClass::LsRead),
        Just(FlowClass::MemRead),
    ]
}

/// Mixed traffic: SPE↔MIC (GET/PUT), SPE↔SPE, and any other pair.
fn transfer() -> impl Strategy<Value = (Element, Element)> {
    let spe = || (0u8..8).prop_map(Element::Spe);
    prop_oneof![
        spe().prop_map(|s| (Element::Mic, s)),
        spe().prop_map(|s| (s, Element::Mic)),
        (spe(), spe()).prop_filter("distinct", |(a, b)| a != b),
        distinct_pair(),
    ]
}

fn submit() -> impl Strategy<Value = Op> {
    (transfer(), 1u32..=128, flow_class())
        .prop_map(|((src, dst), bytes, class)| Op::Submit(src, dst, bytes, class))
}

/// Submits are listed twice so queues build up between arbitrations.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        submit(),
        submit(),
        Just(Op::Arbitrate),
        Just(Op::AdvanceToRelease),
        (1u64..24).prop_map(Op::Step),
        (1u64..24).prop_map(Op::QueryBehind),
    ]
}

fn window() -> impl Strategy<Value = Window> {
    (0u64..400, 1u64..300).prop_map(|(start, cycles)| Window { start, cycles })
}

fn eib_faults() -> impl Strategy<Value = EibFaults> {
    (
        proptest::collection::vec(
            (0usize..4, window()).prop_map(|(ring, window)| RingOutage { ring, window }),
            0..3,
        ),
        proptest::collection::vec(
            (window(), 1u32..=100).prop_map(|(window, capacity_percent)| DerateWindow {
                window,
                capacity_percent,
            }),
            0..3,
        ),
    )
        .prop_map(|(ring_outages, derate)| EibFaults {
            ring_outages,
            derate,
        })
}

fn eib_config() -> impl Strategy<Value = EibConfig> {
    (any::<bool>(), 1usize..=2, 0u64..=2, 0u64..=6).prop_map(
        |(pipelined, rings_per_direction, hop_latency, source_switch_penalty)| EibConfig {
            rings_per_direction,
            hop_latency,
            source_switch_penalty,
            occupancy: if pipelined {
                RingOccupancy::Pipelined
            } else {
                RingOccupancy::CircuitHold
            },
            ..EibConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The incremental arbiter (grant lanes + release heap) makes the same
    /// grants, in the same order, with the same timings and counters, and
    /// reports the same next release, as the linear-scan reference under
    /// any interleaving of submits, arbitrations and clock moves.
    #[test]
    fn incremental_arbiter_matches_the_scan_reference(
        cfg in eib_config(),
        faults in eib_faults(),
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let mut eib = Eib::new(Topology::cbe(), cfg);
        eib.set_faults(faults.clone());
        let mut reference = reference::ScanEib::new(Topology::cbe(), cfg, faults);
        let mut now = Cycle::ZERO;
        let mut token = 0u64;
        for op in ops {
            match op {
                Op::Submit(src, dst, bytes, class) => {
                    let req = TransferRequest { src, dst, bytes, class };
                    eib.submit(now, token, req);
                    reference.submit(now, token, req);
                    token += 1;
                }
                Op::Arbitrate => {
                    prop_assert_eq!(eib.arbitrate(now), reference.arbitrate(now));
                }
                Op::AdvanceToRelease => {
                    let next = eib.next_release_after(now);
                    prop_assert_eq!(next, reference.next_release_after(now));
                    now = next.unwrap_or(now + 1);
                }
                Op::Step(d) => now += d,
                Op::QueryBehind(d) => {
                    let then = Cycle::new(now.as_u64().saturating_sub(d));
                    prop_assert_eq!(
                        eib.next_release_after(then),
                        reference.next_release_after(then)
                    );
                }
            }
            prop_assert_eq!(eib.has_pending(), reference.has_pending());
            prop_assert_eq!(eib.next_release_after(now), reference.next_release_after(now));
        }
        // Drain: every queued request is eventually granted identically.
        let mut rounds = 0;
        while reference.has_pending() {
            prop_assert_eq!(eib.arbitrate(now), reference.arbitrate(now));
            let next = eib.next_release_after(now);
            prop_assert_eq!(next, reference.next_release_after(now));
            now = next.unwrap_or(now + 1);
            rounds += 1;
            prop_assert!(rounds < 100_000, "arbitration did not converge");
        }
        prop_assert!(!eib.has_pending());
        prop_assert_eq!(eib.stats(), &reference.stats);
        prop_assert_eq!(eib.ring_stats(), &reference.ring_stats[..]);
    }
}
