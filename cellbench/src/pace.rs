//! Host pace: a fixed reference kernel, timed between the runs of a
//! pass, that tells how fast the host is running at that moment.
//!
//! The benchmark runs on a shared host whose speed drifts with the load
//! of its other tenants: the same simulator pass has taken anywhere from
//! 0.73 s to 1.94 s, in spells that last from seconds to many minutes, and
//! CPU time tracks wall time through all of it. A median over one run
//! cannot absorb a spell longer than the run. So CPU-bound host times
//! (the simulator passes, their runs, the set-ups) are reported scaled
//! to a nominal host speed: divided by the *pace*, the reference
//! kernel's time measured next to them over its nominal time. The
//! kernel is the benchmark's own code, so no change to the program
//! changes its cost, and it leans on the same parts of the machine the
//! simulator does: a small discrete-event loop (a binary-heap event
//! queue, per-unit FIFOs of boxed packets, a busy-until table) and
//! scattered updates to a table larger than the caches. Either half
//! alone tracked the simulator's slowdowns less closely than both.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// The reference kernel's time on the nominal host: scaled times read
/// as seconds on a host that runs the kernel in exactly this long.
pub const NOMINAL_S: f64 = 1e-3;

/// Units (queues) the reference loop serves.
const UNITS: usize = 16;

/// Simulated time the reference loop runs to.
const HORIZON: u64 = 5_000;

/// Words in the scattered-update table (4 MiB).
const TABLE_WORDS: usize = 1 << 19;

/// Scattered updates per reference run.
const UPDATES: usize = 10_000;

thread_local! {
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![0; TABLE_WORDS]);
}

/// Times one run of the reference kernel, in seconds. The kernel does
/// the same work on every call.
#[must_use]
pub fn reference_s() -> f64 {
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let start = Instant::now();
        event_loop();
        scatter(&mut table);
        start.elapsed().as_secs_f64()
    })
}

/// The discrete-event half of the kernel.
fn event_loop() {
    let mut events: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut queues: Vec<VecDeque<Box<[u64; 4]>>> = (0..UNITS).map(|_| VecDeque::new()).collect();
    let mut busy_until = [0u64; UNITS];
    let mut x: u64 = 0x9E37;
    let mut delivered = 0u64;
    for id in 0..64u32 {
        events.push(Reverse((u64::from(id), id)));
    }
    while let Some(Reverse((t, id))) = events.pop() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let unit = id as usize % UNITS;
        if x >> 62 == 0 {
            queues[unit].push_back(Box::new([t, x, u64::from(id), 0]));
        } else if let Some(packet) = queues[unit].pop_front() {
            busy_until[unit] = busy_until[unit].max(t) + (packet[1] & 31);
            delivered += packet[0] & 1;
        }
        if t < HORIZON {
            events.push(Reverse((t + 1 + (x >> 58), id)));
        }
    }
    std::hint::black_box((delivered, busy_until));
}

/// The scattered-update half of the kernel: SplitMix64-drawn updates
/// to `table`, with a bounded heap of their keys and a short-lived
/// allocation every 64th update.
fn scatter(table: &mut [u64]) {
    let mut heap = BinaryHeap::new();
    let mut x: u64 = 0x1234_5678;
    let mask = table.len() - 1;
    for _ in 0..UPDATES {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let i = (z as usize) & mask;
        table[i] = table[i].wrapping_add(z);
        heap.push(z >> 40);
        if heap.len() > 512 {
            heap.pop();
        }
        if z & 63 == 0 {
            std::hint::black_box(vec![z; 64]);
        }
    }
    std::hint::black_box(heap);
}

/// The pace over reference timings `samples`: their mean over
/// [`NOMINAL_S`] (above 1 on a host slower than nominal); 1 when there
/// are none, so unpaced work is reported as measured.
#[must_use]
pub fn pace(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_the_mean_over_nominal() {
        assert_eq!(pace(&[]), 1.0);
        assert!((pace(&[1e-3, 3e-3]) - 2.0).abs() < 1e-12);
        assert!(reference_s() > 0.0);
    }
}
