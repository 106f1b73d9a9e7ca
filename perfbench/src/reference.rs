//! The host-speed reference: a fixed kernel timed between stretches of
//! items, so that item times can be stated at one reference speed.
//!
//! The 2-vCPU host shares its cores with other tenants. When they are
//! busy, the same item takes up to 2× as long, in states that change
//! every few seconds and last from seconds to minutes; the steal counter
//! does not show it, so neither wall nor CPU time can remove it. The
//! kernel here slows down with the host in the same way the benchmark's
//! items do: it mixes the two kinds of inner loop the program spends its
//! time in, a pair-swap move priced from a small cost table (like the
//! annealers and branch and bound) and a dense small-matrix update (like
//! the circuit transient and the model's linear algebra).
//!
//! The kernel belongs to the benchmark, not to the program: a change to
//! the program leaves it as it is, so a faster program shows in full in
//! the normalised figures, while a slower host cancels out of them.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed, seconds: about its time on
/// the host the benchmark was tuned on (Intel Xeon, 2 vCPUs) when no
/// other tenant slowed it.
pub const NOMINAL_S: f64 = 2.4e-3;

/// How strongly the items' times follow the kernel's as the host's
/// speed changes: a host state that makes the kernel 2× slower makes
/// the items about 2^0.85× slower. Fitted over 40 runs of the four
/// workloads on the host above, with the host at 0.53 to 0.98 of the
/// reference speed; per workload the fit ranged from 0.8 (`long_trace`)
/// to 1.0 (`design_sweep`).
pub const SENSITIVITY: f64 = 0.85;

/// Lines of the kernel's permutation and side of its cost table.
const LINES: usize = 36;
/// Pair-swap moves per kernel run.
const MOVES: usize = 12_000;
/// Nodes of the kernel's small network.
const NODES: usize = 9;
/// Network update steps per kernel run.
const STEPS: usize = 12_000;

/// The kernel's fixed inputs.
#[derive(Debug, Clone)]
pub struct Reference {
    costs: Vec<f64>,
    matrix: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the inputs and runs the kernel a few times to warm it up.
    pub fn new() -> Self {
        let costs = (0..LINES * LINES)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let matrix = (0..NODES * NODES)
            .map(|i| ((i * 31) % 17) as f64 / 17.0 - 0.4)
            .collect();
        let reference = Self { costs, matrix };
        for _ in 0..3 {
            reference.time();
        }
        reference
    }

    /// Runs the kernel once and returns its wall time, seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        black_box(self.moves());
        black_box(self.network());
        t0.elapsed().as_secs_f64()
    }

    /// Random pair swaps on a permutation, each priced against every
    /// other line and kept when it lowers the cost (or one time in
    /// eight).
    fn moves(&self) -> f64 {
        let n = LINES;
        let c = black_box(&self.costs);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut cost = 0.0;
        for _ in 0..MOVES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b) = (x as usize % n, (x >> 20) as usize % n);
            if a == b {
                continue;
            }
            let mut delta = 0.0;
            for k in 0..n {
                if k != a && k != b {
                    delta += (c[perm[b] * n + perm[k]] - c[perm[a] * n + perm[k]])
                        * (c[a * n + k] - c[b * n + k]);
                }
            }
            if delta < 0.0 || (x >> 40) & 7 == 0 {
                perm.swap(a, b);
                cost += delta;
            }
        }
        cost
    }

    /// Relaxation steps of a small dense network: `v ← tanh(A v / 2)`.
    fn network(&self) -> f64 {
        let a = black_box(&self.matrix);
        let mut v = [0.1; NODES];
        for _ in 0..STEPS {
            let mut next = [0.0; NODES];
            for (i, out) in next.iter_mut().enumerate() {
                let s: f64 = a[i * NODES..(i + 1) * NODES]
                    .iter()
                    .zip(&v)
                    .map(|(x, y)| x * y)
                    .sum();
                *out = (s * 0.5).tanh() + 0.01;
            }
            v = next;
        }
        v.iter().sum()
    }
}

/// The factor that brings a wall time measured between two kernel runs
/// of `before` and `after` seconds to the reference speed:
/// `(NOMINAL_S / k)^SENSITIVITY`, with `k` their mean.
pub fn scale(before: f64, after: f64) -> f64 {
    (NOMINAL_S / ((before + after) / 2.0)).powf(SENSITIVITY)
}
