//! The host-speed calibration every reported duration is divided by.
//!
//! The sandbox is a few cores of a shared host. Its neighbours' traffic
//! through the shared cache slows memory-bound code there by 1.2 to 1.6×
//! for a minute or two at a time, several times an hour. The process's own
//! CPU clock reads the same as the wall clock meanwhile (nothing is stolen,
//! everything is just slower), and a run is too short to outlast such a
//! phase, so no statistic of a run's own samples survives it: on unchanged
//! code the quietest sample of a run spread, over fourteen runs, by 7 to
//! 38 % of its median in one hour and by 5 to 21 % in a quieter one.
//!
//! So a run times a fixed kernel of this file between its operations, all
//! over the run, and reports each duration as `quietest sample × NOMINAL_S
//! / median kernel time`: what the operation takes when the kernel runs at
//! its nominal speed. The quieter hour's runs then spread by 2 to 15 %.
//!
//! The kernel reads and rewrites cache lines scattered one to a page over a
//! 64 MB arena of its own, in a fixed pseudo-random order: every access
//! misses the private caches and most miss the TLB, so its time is the
//! latency of the shared cache and memory as the neighbours leave them. The
//! arena is allocated before the engine allocates anything and never
//! reallocated, so what the engine does with its heap cannot move the
//! kernel (a kernel of heap strings tracked the slow phases a little better
//! and ran twice as fast in an empty heap as beside the engine's data).
//!
//! The kernel and [`NOMINAL_S`] are part of the benchmark's definition:
//! changing either changes every reported duration.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the sandbox in its ordinary state (the
/// median of some 4 000 runs of it, in seconds). Reported durations are
/// scaled to it.
pub const NOMINAL_S: f64 = 0.0063;

const ARENA_BYTES: usize = 64 << 20;
const LINE: usize = 64;
const SLOTS: usize = 20_000;
const ACCESSES: usize = 80_000;
const SWEEP_BYTES: usize = 8 << 20;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

pub struct Calibrator {
    arena: Vec<u8>,
    /// Line index of each slot.
    slots: Vec<u32>,
}

impl Calibrator {
    /// Call before the engine allocates: the arena then sits where no
    /// later allocation can move it.
    pub fn new() -> Calibrator {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        Calibrator {
            arena: vec![1u8; ARENA_BYTES],
            slots: (0..SLOTS)
                .map(|_| (xorshift(&mut state) % (ARENA_BYTES / LINE) as u64) as u32)
                .collect(),
        }
    }

    /// One run of the kernel: wall seconds.
    pub fn sample(&mut self) -> f64 {
        // Untimed: push the slots' lines out of the core's own caches (a run
        // touches 1.3 MB of them, which the 2 MB second-level cache would
        // keep), so that a run reads the same whatever ran before it, the
        // engine or another run of the kernel.
        let swept: u64 = self.arena[..SWEEP_BYTES]
            .chunks_exact(LINE)
            .map(|line| u64::from(line[0]))
            .sum();
        black_box(swept);
        let started = Instant::now();
        // The same slots in the same order on every run.
        let mut state = 0x1234_5678u64;
        let mut carried = 0u64;
        for _ in 0..ACCESSES {
            let slot = self.slots[(xorshift(&mut state) % SLOTS as u64) as usize] as usize * LINE;
            let line = &mut self.arena[slot..slot + LINE];
            let mut hash = carried ^ u64::from_le_bytes(line[..8].try_into().expect("8 bytes"));
            for byte in &line[8..40] {
                hash = (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3);
            }
            line[..8].copy_from_slice(&hash.to_le_bytes());
            carried = hash;
        }
        black_box(carried);
        started.elapsed().as_secs_f64()
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

/// The factor a set of kernel times divides durations by: their median over
/// the nominal time (1 when there is no sample).
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        crate::stats::median(samples) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowdown_is_the_median_kernel_time_over_the_nominal() {
        assert_eq!(slowdown(&[]), 1.0);
        let samples = [NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S];
        assert!((slowdown(&samples) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_visits_the_same_slots_on_every_run() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        assert!(a.sample() > 0.0);
        b.sample();
        assert!(a.arena == b.arena);
        assert!(a.slots.iter().all(|&s| (s as usize) < ARENA_BYTES / LINE));
    }
}
