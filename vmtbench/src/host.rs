//! Host calibration, and the scale that takes host drift out of the
//! end-to-end times.
//!
//! The development host is a VM on a shared machine. Its speed drifts by
//! a quarter or more from one minute to the next, and the drift largely
//! follows memory latency: other tenants' memory traffic slows the
//! simulator and a pointer chase through DRAM alike. So an untraced run
//! interleaves short chases with its episodes and scales every time it
//! reports by [`REF_HOP_NS`] ÷ a low quantile of the hops it measured. A
//! change to the simulator moves the scaled times as it moves the raw
//! ones, because the chase runs none of the simulator's code.

use std::hint::black_box;
use std::time::Instant;

/// Slots of the chase's random cycle: 64 MiB of `u32`, far past the
/// last-level cache a 2-vCPU share of the host gets in practice.
const SLOTS: usize = 1 << 24;

/// Hops of one chase sample (about 30 ms on the development host).
const HOPS: usize = 200_000;

/// [`HostClock::low_ns`] on the development host (2-vCPU Xeon VM) when
/// it is quiet. Scaled times are host times at this memory latency.
const REF_HOP_NS: f64 = 158.0;

/// The quantile of a run's hop times that [`HostClock::scale`] uses.
const LOW_QUANTILE: f64 = 0.2;

/// A pointer chase over a single random cycle through [`SLOTS`] slots.
pub struct HostClock {
    next: Vec<u32>,
    at: u32,
    hop_ns: Vec<f64>,
}

impl HostClock {
    /// Builds the cycle (Sattolo's algorithm), touching every page, so
    /// the chase's memory stays resident for the rest of the run.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut rng = SplitMix(0xC0FF_EE00);
        for i in (1..SLOTS).rev() {
            let j = (rng.next() % i as u64) as usize;
            next.swap(i, j);
        }
        Self {
            next,
            at: 0,
            hop_ns: Vec::new(),
        }
    }

    /// Resident bytes the cycle adds to the process.
    pub fn bytes(&self) -> usize {
        self.next.len() * std::mem::size_of::<u32>()
    }

    /// Times one chase and keeps its nanoseconds per hop.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..HOPS {
            at = self.next[at as usize];
        }
        let ns = started.elapsed().as_nanos() as f64 / HOPS as f64;
        self.at = black_box(at);
        self.hop_ns.push(ns);
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.hop_ns.len()
    }

    /// The hop time that one chase in five beats, in nanoseconds. Like
    /// the per-tick minima of a run it skips bursts, but unlike the
    /// fastest hop it does not fall as a run takes more samples.
    pub fn low_ns(&self) -> f64 {
        let mut hops = self.hop_ns.clone();
        hops.sort_by(f64::total_cmp);
        hops.get((LOW_QUANTILE * hops.len() as f64) as usize)
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// The median hop measured, in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        crate::spans::median(&mut self.hop_ns.clone()).unwrap_or(f64::NAN)
    }

    /// Factor that turns a time measured in this run into a time at
    /// [`REF_HOP_NS`].
    pub fn scale(&self) -> f64 {
        REF_HOP_NS / self.low_ns()
    }
}

/// Host calibration for the traced run: nanoseconds per iteration of a
/// fixed dependent ALU loop, and the median nanoseconds per hop of
/// [`HostClock`]'s chase. Neither touches the simulator; they show how
/// fast the host was while the layers were timed.
pub fn calibrate() -> (f64, f64) {
    const ALU_ITERS: u64 = 4_000_000;
    let mut alu = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..ALU_ITERS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        black_box(x);
        alu.push(started.elapsed().as_nanos() as f64 / ALU_ITERS as f64);
    }
    let mut clock = HostClock::new();
    for _ in 0..5 {
        clock.sample();
    }
    (
        crate::spans::median(&mut alu).expect("five samples"),
        clock.median_ns(),
    )
}

/// SplitMix64: the shuffle stream of the chase cycle and of the replayed
/// arrival batch.
pub(crate) struct SplitMix(pub(crate) u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
