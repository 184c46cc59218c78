//! Machine-speed calibration.
//!
//! The CPU this benchmark shares drifts in speed by tens of percent from
//! one ten-second window to the next, while a thread's scheduler wait
//! stays near 1 % of wall time; the drift is the core's speed, so neither
//! longer runs nor CPU-time clocks remove it. The runner therefore
//! interleaves short slices of a fixed kernel with the statements and
//! reports every time multiplied by `REF_NS / median kernel time` of the
//! slice next to it: the time the statement would have taken on a
//! machine that runs the kernel in `REF_NS`.
//!
//! The kernel belongs to the benchmark, never to the program under test,
//! and allocates nothing: it works on stack arrays that stay in the L1
//! cache, so neither the program's code nor the state of its heap can
//! move it. An allocating kernel was tried and rejected because it ran
//! 60 % slower inside the page-file workload's process than in the
//! others.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference kernel time in nanoseconds: roughly the kernel's median on
/// the machine the README's figures come from, so reported times stay
/// close to wall time there.
pub const REF_NS: f64 = 16_000.0;

/// Every kernel timing of one run, for the report.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Run the kernel repeatedly for about `budget` (at least five times)
    /// and return the factor that converts times measured next to this
    /// slice to reference-machine times: `REF_NS / median kernel time`.
    pub fn slice(&mut self, budget: Duration) -> f64 {
        let start = Instant::now();
        let mut local = Vec::new();
        while local.len() < 5 || start.elapsed() < budget {
            let t = Instant::now();
            black_box(kernel(black_box(local.len() as u64)));
            local.push(t.elapsed().as_nanos() as f64);
        }
        self.samples.extend_from_slice(&local);
        match crate::stats::median(&local) {
            Some(m) if m > 0.0 => REF_NS / m,
            _ => 1.0,
        }
    }

    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(0.0)
    }
}

/// Fixed work of the kinds a statement does, without allocating:
/// generating keys, a comparison sort, byte decoding and hashing into a
/// table.
fn kernel(salt: u64) -> u64 {
    let mut keys = [0u64; 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (salt & 1);
    for k in keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    keys.sort_unstable();
    let mut table = [0u32; 512];
    for k in &keys {
        let b = k.to_le_bytes();
        let h = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize % table.len();
        if let Some(slot) = table.get_mut(h) {
            *slot = slot.wrapping_add(u32::from(b[7]));
        }
    }
    table.iter().map(|&t| u64::from(t)).sum::<u64>() ^ keys.first().copied().unwrap_or(0)
}
