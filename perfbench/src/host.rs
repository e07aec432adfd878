//! Host-noise diagnostics: two fixed probes printed beside every run.
//!
//! They are not benchmark metrics. A register-only loop repeats within a
//! few percent on a quiet host, while an 8 MB pointer chase swings with
//! whatever the other tenants do to the shared cache and memory bus; when
//! a run's figures move together with `host.mem_ms`, the host moved, not
//! the program.

use std::hint::black_box;
use std::time::Instant;

/// Dependent multiply-xorshift steps of the register-only probe.
const ALU_STEPS: u64 = 40_000_000;

/// Slots of the pointer-chase ring: 1 Mi `usize`s, 8 MB.
const CHASE_SLOTS: usize = 1 << 20;

/// Hops of the pointer chase (two laps of the ring).
const CHASE_HOPS: usize = 2 * CHASE_SLOTS;

/// Wall time of a fixed register-only loop, in ms.
pub fn alu_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for _ in 0..ALU_STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        x ^= x >> 29;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Wall time of a fixed pointer chase through one 8 MB random cycle, in
/// ms. Building the cycle is not timed.
pub fn mem_ms() -> f64 {
    // Sattolo's shuffle gives a single cycle through every slot, so the
    // chase visits the whole 8 MB in an order no prefetcher can follow.
    let mut next: Vec<usize> = (0..CHASE_SLOTS).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for i in (1..CHASE_SLOTS).rev() {
        state = cnt_stats::splitmix64(state);
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut at = 0usize;
    for _ in 0..CHASE_HOPS {
        at = next[at];
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}
