//! The central data arbiter: ring selection, port reservation, fairness.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cellsim_faults::EibFaults;
use cellsim_kernel::Cycle;

use crate::ring::{Ring, RingId};
use crate::topology::{Direction, Element, Route, Topology};

/// How a granted transfer occupies its path segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingOccupancy {
    /// The arbiter holds every segment of the path from grant until
    /// delivery. This matches the behaviour of the central data arbiter
    /// (a segment granted to a transfer is not re-granted mid-flight) and
    /// calibrates the eight-SPE contention the paper measures.
    #[default]
    CircuitHold,
    /// Idealized wormhole pipelining: each segment is busy only while the
    /// packet streams across it, staggered by hop position. An ablation
    /// mode: it under-estimates conflicts at high load.
    Pipelined,
}

/// The on-chip data source feeding a ramp's outbound port.
///
/// A ramp's 16-byte send bus is multiplexed between internal sources: an
/// SPE ramp sends both its own MFC's put data and Local-Store read
/// responses for remote gets; the MIC sends memory read data. Switching
/// sources costs dead cycles ([`EibConfig::source_switch_penalty`]) —
/// the structural reason the paper's all-active "cycle" experiment falls
/// well below the half-passive "couples" experiment at the same port
/// demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Outbound MFC data (the data phase of a put).
    MfcOut,
    /// A Local-Store read serving some other element's get.
    LsRead,
    /// A memory read leaving the MIC or IOIF.
    MemRead,
}

/// Structural parameters of the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EibConfig {
    /// Data rings per direction (2 on the CBE, 4 rings total).
    pub rings_per_direction: usize,
    /// Bytes each ring moves per bus cycle (16 on the CBE).
    pub bytes_per_cycle: u32,
    /// Extra delivery latency per hop, in bus cycles.
    pub hop_latency: u64,
    /// Segment reservation policy.
    pub occupancy: RingOccupancy,
    /// Dead cycles when a ramp's outbound port switches between
    /// different [`FlowClass`] sources.
    pub source_switch_penalty: u64,
}

impl Default for EibConfig {
    fn default() -> Self {
        EibConfig {
            rings_per_direction: 2,
            bytes_per_cycle: 16,
            hop_latency: 1,
            occupancy: RingOccupancy::CircuitHold,
            source_switch_penalty: 0,
        }
    }
}

/// A request to move one packet of payload between two bus elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRequest {
    /// Sending ramp.
    pub src: Element,
    /// Receiving ramp.
    pub dst: Element,
    /// Payload size in bytes (≤128 on the CBE; validated by the MFC, not
    /// here — the bus moves whatever it is granted).
    pub bytes: u32,
    /// Which internal source feeds the send port.
    pub class: FlowClass,
}

/// A granted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Which ring carries the packet.
    pub ring: RingId,
    /// Travel direction.
    pub direction: Direction,
    /// Hops crossed.
    pub hops: usize,
    /// Cycle the wire time began.
    pub start: Cycle,
    /// Cycle the ring segments and ports become free again.
    pub wire_done: Cycle,
    /// Cycle the payload is available at the destination
    /// (`wire_done` + hop latency).
    pub delivered_at: Cycle,
    /// Cycles the request sat in the arbiter's queue before this grant
    /// (submit → grant), for per-command latency attribution.
    pub waited: u64,
}

/// Counters the experiments use to explain their results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EibStats {
    /// Transfers granted.
    pub grants: u64,
    /// Total bytes granted.
    pub bytes: u64,
    /// Cycles requests spent queued waiting for a ring.
    pub wait_cycles: u64,
    /// Σ (segments × cycles) reserved — a ring-occupancy measure.
    pub segment_cycles: u64,
}

/// Per-ring counters (rings are indexed as in [`RingId`]: clockwise rings
/// first, then counter-clockwise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Transfers this ring carried.
    pub grants: u64,
    /// Payload bytes this ring carried.
    pub bytes: u64,
    /// Cycles this ring spent moving data (wire time, including any
    /// source-switch dead cycles ahead of the payload).
    pub busy_cycles: u64,
}

/// A queued request. Its priority class and primary ring direction are
/// implied by the grant lane holding it.
#[derive(Debug)]
struct Pending {
    /// Submit order across all lanes: a pass merges its two direction
    /// lanes by this number, which is exactly the age order.
    seq: u64,
    token: u64,
    req: TransferRequest,
    enqueued: Cycle,
    /// Ramp indices, resolved once at submit so the arbitration loop
    /// never repeats the lookups.
    src_ramp: usize,
    dst_ramp: usize,
}

/// Grant lanes: `[MIC clockwise, MIC counter-clockwise, other clockwise,
/// other counter-clockwise]`. A pass covers the pair starting at
/// [`MIC_LANES`] or [`OTHER_LANES`].
const MIC_LANES: usize = 0;
const OTHER_LANES: usize = 2;

fn lane_of(mic: bool, dir: Direction) -> usize {
    let pass = if mic { MIC_LANES } else { OTHER_LANES };
    match dir {
        Direction::Clockwise => pass,
        Direction::CounterClockwise => pass + 1,
    }
}

/// Dense slot of an element kind (PPE, SPE0–7, MIC, IOIF0, IOIF1), for
/// the element→ramp table. `None` for an SPE number the CBE lacks.
fn element_slot(e: Element) -> Option<usize> {
    match e {
        Element::Ppe => Some(0),
        Element::Spe(n) if n < 8 => Some(1 + usize::from(n)),
        Element::Spe(_) => None,
        Element::Mic => Some(9),
        Element::Ioif0 => Some(10),
        Element::Ioif1 => Some(11),
    }
}

const ELEMENT_SLOTS: usize = 12;

/// Precomputed admissible routes for one (src, dst) ramp pair: at most
/// two exist (the second only on an exact halfway tie), stored inline so
/// the hot arbitration path never allocates.
#[derive(Debug, Clone, Copy)]
struct RouteSet {
    routes: [Route; 2],
    len: u8,
}

impl RouteSet {
    fn as_slice(&self) -> &[Route] {
        &self.routes[..usize::from(self.len)]
    }
}

/// The Element Interconnect Bus: four rings plus the central data arbiter.
///
/// Usage follows a submit/arbitrate/kick protocol designed for an outer
/// discrete-event loop:
///
/// 1. [`Eib::submit`] queues a transfer request.
/// 2. [`Eib::arbitrate`] (or [`Eib::arbitrate_into`], which reuses the
///    caller's buffer) grants every currently satisfiable request, in
///    priority order (memory traffic first, then oldest first, FIFO per
///    ring direction), and returns the grants tagged with the caller's
///    tokens.
/// 3. If requests remain queued, [`Eib::next_release_after`] says when a
///    reservation next expires so the caller can schedule a re-arbitration
///    event (a *kick*).
///
/// Both steps cost work proportional to what changes, not to what is
/// queued:
///
/// - **Grant lanes.** Requests wait in four FIFO lanes, one per (touches
///   the MIC or not) × (primary ring direction), each entry stamped with
///   its submit sequence number. A pass merges its two direction lanes by
///   sequence number, grants from the heads, and closes a lane at its
///   first failure (head-of-line blocking), so a pass does one grant
///   attempt per grant plus at most two failures.
/// - **Release heap.** Under [`RingOccupancy::CircuitHold`] every grant
///   pushes the reservation expiries it creates (`wire_done` and
///   `delivered_at`) onto a min-heap; arbitration pops those already
///   past, so the next release is a peek. A circuit-hold reservation is
///   never overwritten before it expires, so the heap holds exactly the
///   future expiries. Pipelined reservations can be overwritten early
///   (a staggered window may start before the previous one ends), so
///   that mode keeps scanning rings and ports.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Eib {
    topology: Topology,
    /// Element kind → ramp index (see [`element_slot`]); replaces a
    /// linear search of the ring order per submit.
    ramp_by_slot: [Option<usize>; ELEMENT_SLOTS],
    /// Dense `(src_ramp, dst_ramp)` route cache; `routes()` allocates,
    /// and arbitration consults the same handful of pairs millions of
    /// times per run.
    route_table: Vec<RouteSet>,
    cfg: EibConfig,
    rings: Vec<Ring>,
    send_free: Vec<Cycle>,
    recv_free: Vec<Cycle>,
    last_send_class: Vec<Option<FlowClass>>,
    /// Pending requests, indexed by [`lane_of`].
    lanes: [VecDeque<Pending>; 4],
    next_seq: u64,
    /// Circuit-hold reservation expiries not yet passed by an arbitration.
    releases: BinaryHeap<Reverse<Cycle>>,
    /// The latest `now` whose expiries were popped from `releases`.
    released_through: Cycle,
    stats: EibStats,
    ring_stats: Vec<RingStats>,
    faults: EibFaults,
}

impl Eib {
    /// Creates an idle bus over `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero rings or zero bytes per cycle.
    pub fn new(topology: Topology, cfg: EibConfig) -> Eib {
        assert!(
            cfg.rings_per_direction > 0,
            "need at least one ring per direction"
        );
        assert!(cfg.bytes_per_cycle > 0, "ring width must be non-zero");
        let n = topology.ramp_count();
        let mut rings = Vec::with_capacity(cfg.rings_per_direction * 2);
        for _ in 0..cfg.rings_per_direction {
            rings.push(Ring::new(Direction::Clockwise, n));
        }
        for _ in 0..cfg.rings_per_direction {
            rings.push(Ring::new(Direction::CounterClockwise, n));
        }
        let ring_count = rings.len();
        let dummy = Route {
            direction: Direction::Clockwise,
            hops: 0,
            segments: 0,
            src_ramp: 0,
            ring_len: n,
        };
        let mut route_table = vec![
            RouteSet {
                routes: [dummy; 2],
                len: 0,
            };
            n * n
        ];
        for (a, &src) in topology.elements().iter().enumerate() {
            for (b, &dst) in topology.elements().iter().enumerate() {
                if a == b {
                    continue;
                }
                let routes = topology.routes(src, dst);
                let set = &mut route_table[a * n + b];
                set.len = routes.len() as u8;
                set.routes[..routes.len()].copy_from_slice(&routes);
            }
        }
        let mut ramp_by_slot = [None; ELEMENT_SLOTS];
        for (ramp, &e) in topology.elements().iter().enumerate() {
            if let Some(slot) = element_slot(e) {
                ramp_by_slot[slot] = Some(ramp);
            }
        }
        Eib {
            topology,
            ramp_by_slot,
            route_table,
            cfg,
            rings,
            send_free: vec![Cycle::ZERO; n],
            recv_free: vec![Cycle::ZERO; n],
            last_send_class: vec![None; n],
            lanes: Default::default(),
            next_seq: 0,
            releases: BinaryHeap::new(),
            released_through: Cycle::ZERO,
            stats: EibStats::default(),
            ring_stats: vec![RingStats::default(); ring_count],
            faults: EibFaults::default(),
        }
    }

    /// Installs fault windows (ring outages, bus derating). Faults gate
    /// only *new* grants: transfers already on a ring when a window
    /// opens drain at the rate they were granted with. Outages naming
    /// rings this bus does not have are inert.
    pub fn set_faults(&mut self, faults: EibFaults) {
        self.faults = faults;
    }

    /// The bus topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The structural configuration.
    pub fn config(&self) -> &EibConfig {
        &self.cfg
    }

    /// Occupancy and fairness counters.
    pub fn stats(&self) -> &EibStats {
        &self.stats
    }

    /// Per-ring counters, indexed by [`RingId`] (clockwise rings first).
    pub fn ring_stats(&self) -> &[RingStats] {
        &self.ring_stats
    }

    /// Queues a transfer request. `token` is an opaque caller identifier
    /// returned with the eventual grant.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either endpoint is not on the bus.
    pub fn submit(&mut self, now: Cycle, token: u64, req: TransferRequest) {
        // Resolve endpoints eagerly so errors point at the submitter —
        // and so arbitration never repeats the lookups.
        let src = self.ramp(req.src).expect("src not on bus");
        let dst = self.ramp(req.dst).expect("dst not on bus");
        assert!(src != dst, "route requested from {} to itself", req.src);
        let n = self.topology.ramp_count();
        let dir = self.route_table[src * n + dst].routes[0].direction;
        let lane = lane_of(req.src.is_mic() || req.dst.is_mic(), dir);
        self.lanes[lane].push_back(Pending {
            seq: self.next_seq,
            token,
            req,
            enqueued: now,
            src_ramp: src,
            dst_ramp: dst,
        });
        self.next_seq += 1;
    }

    fn ramp(&self, e: Element) -> Option<usize> {
        match element_slot(e) {
            Some(slot) => self.ramp_by_slot[slot],
            None => self.topology.ramp_of(e).map(|r| r.0),
        }
    }

    /// Whether any requests are waiting for a ring.
    pub fn has_pending(&self) -> bool {
        self.lanes.iter().any(|lane| !lane.is_empty())
    }

    /// Grants every satisfiable pending request at `now`.
    ///
    /// Requests touching the MIC are considered first (the hardware gives
    /// memory traffic the highest priority). Within a class the arbiter's
    /// grant queue is FIFO **per ring direction**: once a request bound
    /// for clockwise rings blocks, younger clockwise requests wait behind
    /// it (head-of-line blocking). This is what makes sixteen concurrent
    /// streams (the paper's 8-SPE cycle) markedly less efficient than
    /// eight streams (the couples experiment) at the same aggregate
    /// demand.
    pub fn arbitrate(&mut self, now: Cycle) -> Vec<(u64, Grant)> {
        let mut granted = Vec::new();
        self.arbitrate_into(now, &mut granted);
        granted
    }

    /// [`Eib::arbitrate`] into a caller-owned buffer: clears `out`, then
    /// fills it with the grants in the same order, so a caller that
    /// arbitrates on every event allocates once.
    pub fn arbitrate_into(&mut self, now: Cycle, out: &mut Vec<(u64, Grant)>) {
        out.clear();
        while self.releases.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.releases.pop();
        }
        self.released_through = self.released_through.max(now);
        // Two passes: memory-priority first, then the rest.
        for pass in [MIC_LANES, OTHER_LANES] {
            let mut open = [true, true];
            loop {
                let head = |k: usize| {
                    self.lanes[pass + k]
                        .front()
                        .filter(|_| open[k])
                        .map(|p| p.seq)
                };
                let k = match (head(0), head(1)) {
                    (Some(cw), Some(ccw)) => usize::from(ccw < cw),
                    (Some(_), None) => 0,
                    (None, Some(_)) => 1,
                    (None, None) => break,
                };
                let p = self.lanes[pass + k].front().expect("open lane has a head");
                let (req, src, dst) = (p.req, p.src_ramp, p.dst_ramp);
                if let Some(mut grant) = self.try_grant(now, &req, src, dst) {
                    let p = self.lanes[pass + k].pop_front().expect("head exists");
                    grant.waited = now.saturating_since(p.enqueued);
                    self.stats.wait_cycles += grant.waited;
                    out.push((p.token, grant));
                } else {
                    open[k] = false;
                }
            }
        }
    }

    /// Attempts to grant one request immediately; reserves resources on
    /// success.
    fn try_grant(
        &mut self,
        now: Cycle,
        req: &TransferRequest,
        src: usize,
        dst: usize,
    ) -> Option<Grant> {
        if self.send_free[src] > now {
            return None;
        }
        // Switching the outbound multiplexer between internal sources
        // costs dead cycles on the send port ahead of the data.
        let switch = match self.last_send_class[src] {
            Some(prev) if prev != req.class => self.cfg.source_switch_penalty,
            _ => 0,
        };
        let wire = u64::from(req.bytes.div_ceil(self.cfg.bytes_per_cycle));
        // Inside a derating window every ring moves data at reduced
        // capacity, so the same payload holds the wire longer.
        let capacity = self.faults.capacity_percent(now.as_u64());
        let wire = if capacity < 100 {
            (wire * 100).div_ceil(u64::from(capacity))
        } else {
            wire
        };
        let duration = wire + switch;
        let set = self.route_table[src * self.send_free.len() + dst];
        for route in set.as_slice() {
            // The head arrives at the destination after the hop latency;
            // the receive port must be free from then on.
            let arrival = now + route.hops as u64 * self.cfg.hop_latency;
            if self.recv_free[dst] > arrival {
                continue;
            }
            for (idx, ring) in self.rings.iter_mut().enumerate() {
                if ring.direction() != route.direction {
                    continue;
                }
                if self.faults.ring_out(idx, now.as_u64()) {
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
                        self.releases.push(Reverse(wire_done));
                        if delivered_at != wire_done {
                            self.releases.push(Reverse(delivered_at));
                        }
                    }
                    RingOccupancy::Pipelined => {
                        if !ring.route_free(route, now, self.cfg.hop_latency) {
                            continue;
                        }
                        ring.reserve_route(route, now, duration, self.cfg.hop_latency);
                    }
                }
                self.send_free[src] = wire_done;
                self.recv_free[dst] = delivered_at;
                self.last_send_class[src] = Some(req.class);
                self.stats.grants += 1;
                self.stats.bytes += u64::from(req.bytes);
                self.stats.segment_cycles += route.hops as u64 * duration;
                let ring_stats = &mut self.ring_stats[idx];
                ring_stats.grants += 1;
                ring_stats.bytes += u64::from(req.bytes);
                ring_stats.busy_cycles += duration;
                return Some(Grant {
                    ring: RingId(idx),
                    direction: route.direction,
                    hops: route.hops,
                    start: now,
                    wire_done,
                    delivered_at,
                    waited: 0, // stamped by `arbitrate` from the queue entry
                });
            }
        }
        None
    }

    /// The earliest reservation expiry strictly after `now`, across all
    /// rings and ports — the time at which a blocked request could next be
    /// granted. `None` when the bus is idle after `now`.
    pub fn next_release_after(&self, now: Cycle) -> Option<Cycle> {
        // The heap holds every circuit-hold expiry after the last
        // arbitration, so it answers any query from then on whose expiries
        // at or before `now` are already popped. Pipelined occupancy, a
        // query behind the last arbitration, or one ahead of it with stale
        // entries on top, scans instead.
        let heap_exact =
            self.cfg.occupancy == RingOccupancy::CircuitHold && now >= self.released_through;
        let reservation_next = match self.releases.peek() {
            Some(&Reverse(t)) if heap_exact && t > now => Some(t),
            None if heap_exact => None,
            _ => self.scan_release_after(now),
        };
        // Fault windows open and close independently of reservations: a
        // request blocked only by a ring outage must still get a wake-up
        // at the window boundary.
        let fault_next = self
            .faults
            .next_boundary_after(now.as_u64())
            .map(Cycle::new);
        reservation_next.into_iter().chain(fault_next).min()
    }

    /// The earliest ring or port reservation expiry strictly after `now`,
    /// by scanning every segment and port.
    fn scan_release_after(&self, now: Cycle) -> Option<Cycle> {
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
        ring_next.into_iter().chain(port_next).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> Eib {
        Eib::new(Topology::cbe(), EibConfig::default())
    }

    fn req(src: Element, dst: Element) -> TransferRequest {
        TransferRequest {
            src,
            dst,
            bytes: 128,
            class: FlowClass::MfcOut,
        }
    }

    #[test]
    fn single_transfer_gets_the_wire_immediately() {
        let mut eib = bus();
        eib.submit(Cycle::ZERO, 7, req(Element::spe(0), Element::Mic));
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        let (token, g) = grants[0];
        assert_eq!(token, 7);
        assert_eq!(g.hops, 1); // SPE0 is adjacent to the MIC.
        assert_eq!(g.wire_done, Cycle::new(8)); // 128 B / 16 B-per-cycle.
        assert_eq!(g.delivered_at, Cycle::new(9)); // + 1 hop latency.
    }

    #[test]
    fn four_rings_carry_four_overlapping_paths_per_direction_pairwise() {
        let mut eib = bus();
        // Two transfers over the same clockwise segments need two rings.
        eib.submit(Cycle::ZERO, 0, req(Element::Ppe, Element::spe(5)));
        eib.submit(Cycle::ZERO, 1, req(Element::Ppe, Element::spe(5)));
        // Both cannot share the PPE send port -> only one grant.
        let g = eib.arbitrate(Cycle::ZERO);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn overlapping_same_direction_transfers_use_both_rings_then_block() {
        let mut eib = bus();
        // Three transfers with distinct endpoints but overlapping CW paths:
        // PPE(0)->SPE7(4), SPE1(1)->SPE5(3), SPE3(2)->IOIF1(5): all cross
        // segment 2..3 region.
        eib.submit(Cycle::ZERO, 0, req(Element::Ppe, Element::spe(7)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(1), Element::spe(5)));
        eib.submit(Cycle::ZERO, 2, req(Element::spe(3), Element::Ioif1));
        let grants = eib.arbitrate(Cycle::ZERO);
        // All three overlap on segment 2 (ramp2->ramp3); only 2 CW rings.
        assert_eq!(grants.len(), 2);
        assert!(eib.has_pending());
        // Retry at each release until a ring's segments free up. Under
        // circuit-hold the SPE1->SPE5 transfer (2 hops) releases at
        // delivery, cycle 10.
        let mut now = Cycle::ZERO;
        loop {
            now = eib.next_release_after(now).expect("progress");
            let grants = eib.arbitrate(now);
            if !grants.is_empty() {
                assert_eq!(grants[0].0, 2);
                break;
            }
        }
        assert_eq!(now, Cycle::new(10));
        assert!(!eib.has_pending());
    }

    #[test]
    fn disjoint_paths_share_one_ring() {
        let mut eib = Eib::new(
            Topology::cbe(),
            EibConfig {
                rings_per_direction: 1,
                ..EibConfig::default()
            },
        );
        // SPE1(ramp1)->SPE3(ramp2) and SPE5(ramp3)->SPE7(ramp4): disjoint
        // single-hop CW paths fit on the single CW ring together.
        eib.submit(Cycle::ZERO, 0, req(Element::spe(1), Element::spe(3)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(5), Element::spe(7)));
        assert_eq!(eib.arbitrate(Cycle::ZERO).len(), 2);
    }

    #[test]
    fn mic_traffic_wins_arbitration() {
        let mut eib = bus();
        // Both want the same CW path region; submit the non-MIC one first.
        eib.submit(Cycle::ZERO, 0, req(Element::spe(2), Element::spe(0)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(2), Element::Mic));
        // SPE2 send port is shared: only one can win, and it must be the
        // MIC-bound request despite being younger.
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, 1);
    }

    #[test]
    fn wait_cycles_are_accounted() {
        let mut eib = bus();
        eib.submit(Cycle::ZERO, 0, req(Element::Ppe, Element::spe(1)));
        eib.submit(Cycle::ZERO, 1, req(Element::Ppe, Element::spe(1)));
        eib.arbitrate(Cycle::ZERO);
        assert_eq!(eib.stats().wait_cycles, 0);
        eib.arbitrate(Cycle::new(8));
        assert_eq!(eib.stats().wait_cycles, 8);
        assert_eq!(eib.stats().grants, 2);
    }

    #[test]
    fn idle_bus_has_no_release() {
        let eib = bus();
        assert_eq!(eib.next_release_after(Cycle::ZERO), None);
    }

    #[test]
    fn ring_outage_blocks_then_recovers_at_the_boundary() {
        use cellsim_faults::{RingOutage, Window};
        let mut eib = Eib::new(
            Topology::cbe(),
            EibConfig {
                rings_per_direction: 1,
                ..EibConfig::default()
            },
        );
        // Both rings (one CW, one CCW) out until cycle 40: nothing can
        // be granted, but next_release_after points at the boundary.
        eib.set_faults(EibFaults {
            ring_outages: (0..2)
                .map(|ring| RingOutage {
                    ring,
                    window: Window {
                        start: 0,
                        cycles: 40,
                    },
                })
                .collect(),
            derate: Vec::new(),
        });
        eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::spe(2)));
        assert!(eib.arbitrate(Cycle::ZERO).is_empty());
        assert!(eib.has_pending());
        let wake = eib.next_release_after(Cycle::ZERO).expect("boundary");
        assert_eq!(wake, Cycle::new(40));
        let grants = eib.arbitrate(wake);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].1.waited, 40);
    }

    #[test]
    fn derate_window_stretches_wire_time() {
        use cellsim_faults::{DerateWindow, Window};
        let mut eib = bus();
        eib.set_faults(EibFaults {
            ring_outages: Vec::new(),
            derate: vec![DerateWindow {
                window: Window {
                    start: 0,
                    cycles: 1000,
                },
                capacity_percent: 25,
            }],
        });
        eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::Mic));
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        // 128 B at a quarter of 16 B/cycle: 32 wire cycles, not 8.
        assert_eq!(grants[0].1.wire_done, Cycle::new(32));
    }

    #[test]
    fn empty_faults_change_nothing() {
        let mut healthy = bus();
        let mut faulted = bus();
        faulted.set_faults(EibFaults::default());
        for eib in [&mut healthy, &mut faulted] {
            eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::Mic));
        }
        assert_eq!(
            healthy.arbitrate(Cycle::ZERO),
            faulted.arbitrate(Cycle::ZERO)
        );
        assert_eq!(healthy.stats(), faulted.stats());
    }

    #[test]
    fn bidirectional_pair_runs_concurrently() {
        let mut eib = bus();
        // get + put between neighbours travel opposite directions and use
        // opposite ports: both granted at once (the 33.6 GB/s pair peak).
        eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::spe(2)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(2), Element::spe(0)));
        assert_eq!(eib.arbitrate(Cycle::ZERO).len(), 2);
    }
}
