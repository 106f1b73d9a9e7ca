//! Switching statistics of a bit stream — the `T`-matrix ingredients of
//! the power model (paper Eqs. 1–3).

use crate::BitStream;
use tsv3d_matrix::Matrix;

/// Bit-level switching statistics of a data stream.
///
/// For each bit `i` of the word the paper's model needs:
///
/// * `E{Δb_i²}` — the **self-switching** probability (diagonal of `Ts`);
/// * `E{Δb_i Δb_j}` — the **coupling switching** expectation (`Tc`),
///   positive when bits tend to toggle in the same direction, negative
///   when they toggle oppositely;
/// * `E{b_i}` — the **1-bit probability**, which steers the MOS-effect
///   capacitance model through `ε_i = E{b_i} − 1/2`.
///
/// # Examples
///
/// Two perfectly correlated bits:
///
/// ```
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), tsv3d_stats::StatsError> {
/// let s = BitStream::from_words(2, vec![0b00, 0b11, 0b00, 0b11])?;
/// let st = SwitchingStats::from_stream(&s);
/// assert_eq!(st.coupling_switching(0, 1), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingStats {
    /// `E{Δb_i²}` per bit.
    ts: Vec<f64>,
    /// `E{Δb_i Δb_j}`; diagonal entries equal `ts`.
    tc: Matrix,
    /// `E{b_i}` per bit.
    probs: Vec<f64>,
    /// `E{|Δb_i Δb_j|}` — the probability that both bits toggle in the
    /// same cycle. `None` for analytically constructed statistics,
    /// where the independence approximation `Ts_i · Ts_j` is used.
    joint: Option<Matrix>,
}

impl SwitchingStats {
    /// Estimates the statistics from a stream.
    ///
    /// Streams with fewer than two words have no transitions; all
    /// switching quantities are zero then.
    ///
    /// # Bit-sliced counting
    ///
    /// The stream is read in blocks of 64 cycles. Each block is
    /// transposed (a 64×64 bit-matrix transpose) into one `u64` *plane*
    /// per bit, `P_i`, whose bit `t` is bit `i` of the block's word `t`.
    /// Shifting a plane up by one cycle and filling in the previous
    /// block's last word gives the previous-cycle plane `Q_i`, and
    /// `d_i = P_i ^ Q_i` marks the cycles in which bit `i` toggles. For
    /// every pair `i ≤ j` the block then adds
    ///
    /// * `popcount(d_i & d_j)` to the joint-toggle count, and
    /// * `popcount(d_i & d_j & (P_i ^ P_j))` to the opposite-toggle
    ///   count (both toggled and now differ, so one rose and one fell),
    ///
    /// and `popcount(P_i)` to the ones count of bit `i`. So 64 cycles
    /// cost one popcount pair per bit pair, in place of 64 rounds of
    /// per-bit ±1 updates. The scratch is one block of planes plus
    /// `n × n` counters, whatever the stream length.
    ///
    /// The result is exact and identical to bit-by-bit counting: every
    /// quantity is an integer count (`Tc = joint − 2·opp`,
    /// `Ts_i = joint_ii`), an f64 holds such integers and their ±1 sums
    /// exactly below 2^53, and the final expressions are unchanged —
    /// `count / transitions` for `Ts` and `E{b}` (`transitions` being
    /// the word count for `E{b}`), and one scaling by
    /// `1 / transitions` for `Tc` and the joint matrix.
    pub fn from_stream(stream: &BitStream) -> Self {
        Self::from_words(stream.width(), stream.words())
    }

    /// The statistics of `words`, a stream of `n`-bit words; see
    /// [`from_stream`](SwitchingStats::from_stream).
    fn from_words(n: usize, words: &[u64]) -> Self {
        let len = words.len();
        let counts = Counts::of(n, words);
        let probs = if len > 0 {
            counts.ones.iter().map(|&c| c as f64 / len as f64).collect()
        } else {
            vec![0.0; n]
        };
        if len < 2 {
            return Self {
                ts: vec![0.0; n],
                tc: Matrix::zeros(n),
                probs,
                joint: Some(Matrix::zeros(n)),
            };
        }
        let transitions = (len - 1) as f64;
        let ts = (0..n)
            .map(|i| counts.joint(i, i) as f64 / transitions)
            .collect();
        let tc = Matrix::from_fn(n, |i, j| {
            counts.joint(i, j) as f64 - 2.0 * counts.opposite(i, j) as f64
        });
        let joint = Matrix::from_fn(n, |i, j| counts.joint(i, j) as f64);
        Self {
            ts,
            tc: tc.scale(1.0 / transitions),
            probs,
            joint: Some(joint.scale(1.0 / transitions)),
        }
    }

    /// Estimates per-window statistics: the stream is cut into
    /// consecutive windows of `window` cycles (the tail shorter than
    /// two cycles is dropped) and each window is analysed separately.
    ///
    /// Each window gives exactly what [`from_stream`] gives on a stream
    /// of the window's words alone; the windows are counted in place,
    /// without copying them.
    ///
    /// Useful for *phased* workloads — e.g. the paper's "Sensor Seq."
    /// stream transmits one sensor axis after another, and each phase
    /// has its own exploitable structure.
    ///
    /// [`from_stream`]: SwitchingStats::from_stream
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_stream_windowed(stream: &BitStream, window: usize) -> Vec<Self> {
        assert!(window > 0, "window must be at least one cycle");
        let words = stream.words();
        let mut out = Vec::new();
        let mut start = 0;
        while start + 1 < words.len() {
            let end = (start + window).min(words.len());
            out.push(Self::from_words(stream.width(), &words[start..end]));
            start = end;
        }
        out
    }

    /// Builds statistics from explicit quantities (e.g. closed-form DSP
    /// models or unit tests).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn from_parts(ts: Vec<f64>, tc: Matrix, probs: Vec<f64>) -> Self {
        assert_eq!(ts.len(), tc.n(), "ts and tc dimension mismatch");
        assert_eq!(probs.len(), tc.n(), "probs and tc dimension mismatch");
        Self {
            ts,
            tc,
            probs,
            joint: None,
        }
    }

    /// Number of bits.
    pub fn n(&self) -> usize {
        self.ts.len()
    }

    /// Self-switching probability `E{Δb_i²}` of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn self_switching(&self, i: usize) -> f64 {
        self.ts[i]
    }

    /// All self-switching probabilities.
    pub fn self_switchings(&self) -> &[f64] {
        &self.ts
    }

    /// Coupling switching `E{Δb_i Δb_j}`.
    ///
    /// For `i == j` this equals the self-switching probability.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn coupling_switching(&self, i: usize, j: usize) -> f64 {
        self.tc[(i, j)]
    }

    /// The full coupling matrix (diagonal = self switching).
    pub fn coupling_matrix(&self) -> &Matrix {
        &self.tc
    }

    /// 1-bit probability `E{b_i}` of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn bit_probability(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// All 1-bit probabilities.
    pub fn bit_probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Probability that bits `i` and `j` toggle in the *same* cycle,
    /// `E{|Δb_i Δb_j|}`.
    ///
    /// Measured exactly for stream-derived statistics; analytically
    /// constructed statistics (e.g. [`from_parts`]) fall back to the
    /// independence approximation `Ts_i · Ts_j` (with `i == j` giving
    /// `Ts_i`).
    ///
    /// [`from_parts`]: SwitchingStats::from_parts
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn joint_switching(&self, i: usize, j: usize) -> f64 {
        match &self.joint {
            Some(m) => m[(i, j)],
            None if i == j => self.ts[i],
            None => self.ts[i] * self.ts[j],
        }
    }

    /// Probability that bits `i ≠ j` toggle in *opposite* directions in
    /// the same cycle, `P(Δb_i Δb_j = −1) = (E{|ΔΔ|} − E{ΔΔ}) / 2` —
    /// the transition class with the highest coupling energy and the
    /// worst crosstalk.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn opposite_switching(&self, i: usize, j: usize) -> f64 {
        ((self.joint_switching(i, j) - self.tc[(i, j)]) / 2.0).max(0.0)
    }

    /// Centred probabilities `ε_i = E{b_i} − 1/2` (paper Eq. 8).
    pub fn epsilons(&self) -> Vec<f64> {
        self.probs.iter().map(|p| p - 0.5).collect()
    }

    /// The paper's switching matrix `T = Ts·1_{N×N} − Tc` (Eq. 3), in
    /// *bit* indexing, with the convention that `Tc`'s diagonal is zero
    /// inside `T` (the diagonal of `T` carries only the self switching).
    ///
    /// `⟨T, C⟩` is then the normalised power consumption (Eq. 2).
    pub fn t_matrix(&self) -> Matrix {
        let n = self.n();
        Matrix::from_fn(n, |i, j| {
            if i == j {
                self.ts[i]
            } else {
                self.ts[i] - self.tc[(i, j)]
            }
        })
    }

    /// The diagonal self-switching matrix `Ts` (Eq. 3).
    pub fn ts_matrix(&self) -> Matrix {
        Matrix::from_diag(&self.ts)
    }

    /// The off-diagonal coupling matrix `Tc` with a zero diagonal
    /// (Eq. 3).
    pub fn tc_matrix(&self) -> Matrix {
        let n = self.n();
        Matrix::from_fn(n, |i, j| if i == j { 0.0 } else { self.tc[(i, j)] })
    }
}

/// Integer switching counts of a word stream, gathered 64 cycles at a
/// time from bit planes (see [`SwitchingStats::from_stream`]).
struct Counts {
    n: usize,
    /// Cycles in which bit `i` is 1.
    ones: Vec<u64>,
    /// Row-major `n × n`, upper triangle (`i ≤ j`) only: transitions in
    /// which bits `i` and `j` both toggle.
    joint: Vec<u64>,
    /// Same layout: transitions in which bits `i` and `j` toggle in
    /// opposite directions.
    opposite: Vec<u64>,
}

impl Counts {
    fn of(n: usize, words: &[u64]) -> Self {
        let mut counts = Self {
            n,
            ones: vec![0; n],
            joint: vec![0; n * n],
            opposite: vec![0; n * n],
        };
        let mut planes = [0u64; 64];
        let mut toggles = [0u64; 64];
        // The word before the current block; the stream's first word has
        // no predecessor, so its cycle is masked out of `toggles` below.
        let mut prev = 0u64;
        for (b, block) in words.chunks(64).enumerate() {
            planes[..block.len()].copy_from_slice(block);
            planes[block.len()..].fill(0);
            transpose64(&mut planes);
            let mut valid = u64::MAX >> (64 - block.len());
            if b == 0 {
                valid &= !1;
            }
            for i in 0..n {
                let p = planes[i];
                counts.ones[i] += u64::from(p.count_ones());
                toggles[i] = (p ^ ((p << 1) | ((prev >> i) & 1))) & valid;
            }
            counts.add_pairs(&planes[..n], &toggles[..n]);
            prev = block[block.len() - 1];
        }
        counts
    }

    /// Adds one block's joint and opposite toggles of every pair `i ≤ j`.
    fn add_pairs(&mut self, planes: &[u64], toggles: &[u64]) {
        let n = self.n;
        for (i, (&pi, &di)) in planes.iter().zip(toggles).enumerate() {
            if di == 0 {
                continue;
            }
            let row = i * n;
            let joint = &mut self.joint[row + i..row + n];
            let opposite = &mut self.opposite[row + i..row + n];
            for (k, (&pj, &dj)) in planes[i..].iter().zip(&toggles[i..]).enumerate() {
                let both = di & dj;
                joint[k] += u64::from(both.count_ones());
                opposite[k] += u64::from((both & (pi ^ pj)).count_ones());
            }
        }
    }

    /// Joint toggles of bits `i` and `j`, in either order.
    fn joint(&self, i: usize, j: usize) -> u64 {
        self.joint[i.min(j) * self.n + i.max(j)]
    }

    /// Opposite toggles of bits `i` and `j`, in either order.
    fn opposite(&self, i: usize, j: usize) -> u64 {
        self.opposite[i.min(j) * self.n + i.max(j)]
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `t` of
/// `rows[i]` is what bit `i` of `rows[t]` was. Six rounds of block
/// swaps, halving the block size each round (Hacker's Delight §7-3).
fn transpose64(rows: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((rows[k] >> width) ^ rows[k + width]) & mask;
            rows[k] ^= t << width;
            rows[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(width: usize, words: &[u64]) -> BitStream {
        BitStream::from_words(width, words.to_vec()).expect("valid stream")
    }

    #[test]
    fn toggling_bit_switches_every_cycle() {
        let st = SwitchingStats::from_stream(&stream(1, &[0, 1, 0, 1, 0]));
        assert_eq!(st.self_switching(0), 1.0);
        assert_eq!(st.bit_probability(0), 0.4);
    }

    #[test]
    fn constant_bit_never_switches() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b10, 0b10, 0b10]));
        assert_eq!(st.self_switching(0), 0.0);
        assert_eq!(st.self_switching(1), 0.0);
        assert_eq!(st.bit_probability(1), 1.0);
    }

    #[test]
    fn anticorrelated_bits_have_negative_coupling() {
        // Bits always toggle in opposite directions.
        let st = SwitchingStats::from_stream(&stream(2, &[0b01, 0b10, 0b01, 0b10]));
        assert_eq!(st.coupling_switching(0, 1), -1.0);
        assert_eq!(st.coupling_switching(1, 0), -1.0);
    }

    #[test]
    fn correlated_bits_have_positive_coupling() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b11, 0b00, 0b11]));
        assert_eq!(st.coupling_switching(0, 1), 1.0);
    }

    #[test]
    fn independent_bits_have_small_coupling() {
        // Bit 0 toggles every cycle, bit 1 every other cycle: the products
        // cancel over a full period.
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b01, 0b10, 0b11, 0b00]));
        assert!(st.coupling_switching(0, 1).abs() < 0.6);
    }

    #[test]
    fn diagonal_of_coupling_equals_self_switching() {
        let st = SwitchingStats::from_stream(&stream(3, &[1, 4, 2, 7, 0, 5]));
        for i in 0..3 {
            assert!((st.coupling_switching(i, i) - st.self_switching(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn t_matrix_combines_ts_and_tc() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b11, 0b00]));
        let t = st.t_matrix();
        // Fully correlated: Ts = 1, Tc(0,1) = 1 ⇒ off-diagonal of T is 0.
        assert_eq!(t[(0, 0)], 1.0);
        assert_eq!(t[(0, 1)], 0.0);
    }

    #[test]
    fn t_matrix_equals_explicit_eq3() {
        // T = Ts·1 − Tc with zero-diagonal Tc.
        let st = SwitchingStats::from_stream(&stream(3, &[1, 4, 2, 7, 0, 5, 3]));
        let explicit = &(&st.ts_matrix() * &Matrix::ones(3)) - &st.tc_matrix();
        let t = st.t_matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert!((t[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn short_streams_have_zero_switching() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b11]));
        assert_eq!(st.self_switching(0), 0.0);
        assert_eq!(st.bit_probability(0), 1.0);
        let st = SwitchingStats::from_stream(&BitStream::new(2).unwrap());
        assert_eq!(st.bit_probability(0), 0.0);
    }

    #[test]
    fn epsilons_centre_probabilities() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b01, 0b01, 0b01, 0b00]));
        let eps = st.epsilons();
        assert!((eps[0] - 0.25).abs() < 1e-12);
        assert!((eps[1] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_parts_round_trips() {
        let st = SwitchingStats::from_parts(
            vec![0.5, 0.25],
            Matrix::from_rows(&[&[0.5, 0.1], &[0.1, 0.25]]),
            vec![0.5, 0.5],
        );
        assert_eq!(st.self_switching(1), 0.25);
        assert_eq!(st.coupling_switching(0, 1), 0.1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn from_parts_validates_dims() {
        let _ = SwitchingStats::from_parts(vec![0.5], Matrix::zeros(2), vec![0.5, 0.5]);
    }
}

#[cfg(test)]
mod joint_tests {
    use super::*;

    fn stream(width: usize, words: &[u64]) -> BitStream {
        BitStream::from_words(width, words.to_vec()).expect("valid stream")
    }

    #[test]
    fn joint_switching_counts_simultaneous_toggles() {
        // Bits toggle together every cycle.
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b11, 0b00, 0b11]));
        assert_eq!(st.joint_switching(0, 1), 1.0);
        // Aligned ⇒ never opposite.
        assert_eq!(st.opposite_switching(0, 1), 0.0);
    }

    #[test]
    fn opposite_switching_detects_anticorrelation() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b01, 0b10, 0b01, 0b10]));
        assert_eq!(st.joint_switching(0, 1), 1.0);
        assert_eq!(st.opposite_switching(0, 1), 1.0);
    }

    #[test]
    fn joint_diagonal_equals_self_switching() {
        let st = SwitchingStats::from_stream(&stream(3, &[1, 4, 2, 7, 0, 5]));
        for i in 0..3 {
            assert!((st.joint_switching(i, i) - st.self_switching(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn from_parts_falls_back_to_independence() {
        let st = SwitchingStats::from_parts(
            vec![0.5, 0.4],
            Matrix::from_rows(&[&[0.5, 0.1], &[0.1, 0.4]]),
            vec![0.5, 0.5],
        );
        assert!((st.joint_switching(0, 1) - 0.2).abs() < 1e-12);
        assert!((st.opposite_switching(0, 1) - 0.05).abs() < 1e-12);
        assert_eq!(st.joint_switching(1, 1), 0.4);
    }

    #[test]
    fn identities_hold_on_random_streams() {
        // P(same) + P(opposite) = P(both toggle); Tc = P(same) − P(opp).
        let words: Vec<u64> = (0..500u64).map(|t| (t * 193 + t * t * 7) & 0xF).collect();
        let st = SwitchingStats::from_stream(&stream(4, &words));
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let joint = st.joint_switching(i, j);
                let opp = st.opposite_switching(i, j);
                let same = joint - opp;
                assert!(
                    (st.coupling_switching(i, j) - (same - opp)).abs() < 1e-9,
                    "({i},{j})"
                );
                assert!(joint <= st.self_switching(i).min(st.self_switching(j)) + 1e-12);
            }
        }
    }
}

#[cfg(test)]
mod windowed_tests {
    use super::*;

    #[test]
    fn windows_cover_the_stream() {
        let words: Vec<u64> = (0..100u64).map(|t| t & 0xF).collect();
        let s = BitStream::from_words(4, words).unwrap();
        let windows = SwitchingStats::from_stream_windowed(&s, 30);
        assert_eq!(windows.len(), 4); // 30+30+30+10
        for w in &windows {
            assert_eq!(w.n(), 4);
        }
    }

    #[test]
    fn phased_stream_has_distinct_window_statistics() {
        // First half toggles bit 0, second half toggles bit 3.
        let mut words = Vec::new();
        for t in 0..100u64 {
            words.push(t & 1);
        }
        for t in 0..100u64 {
            words.push((t & 1) << 3);
        }
        let s = BitStream::from_words(4, words).unwrap();
        let w = SwitchingStats::from_stream_windowed(&s, 100);
        assert_eq!(w.len(), 2);
        assert!(w[0].self_switching(0) > 0.9 && w[0].self_switching(3) < 0.1);
        assert!(w[1].self_switching(3) > 0.9 && w[1].self_switching(0) < 0.1);
    }

    #[test]
    fn single_window_matches_whole_stream() {
        let words: Vec<u64> = (0..50u64).map(|t| (t * 13) & 0xFF).collect();
        let s = BitStream::from_words(8, words).unwrap();
        let whole = SwitchingStats::from_stream(&s);
        let windows = SwitchingStats::from_stream_windowed(&s, 1000);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0], whole);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        let s = BitStream::from_words(4, vec![0, 1]).unwrap();
        let _ = SwitchingStats::from_stream_windowed(&s, 0);
    }
}

#[cfg(test)]
mod bit_sliced_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const WIDTHS: [usize; 8] = [1, 2, 7, 9, 16, 36, 63, 64];
    const LENGTHS: [usize; 10] = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129];
    const WINDOWS: [usize; 6] = [1, 2, 63, 64, 65, 97];

    /// The bit-by-bit estimator the bit-sliced kernel replaced, kept
    /// verbatim as the reference it must match bit for bit.
    fn reference_from_stream(stream: &BitStream) -> SwitchingStats {
        let n = stream.width();
        let mut ts = vec![0.0; n];
        let mut tc = Matrix::zeros(n);
        let mut probs = vec![0.0; n];

        let len = stream.len();
        if len > 0 {
            for (i, p) in probs.iter_mut().enumerate() {
                *p = stream.bit_probability(i);
            }
        }
        let mut joint = Matrix::zeros(n);
        if len >= 2 {
            let transitions = (len - 1) as f64;
            // Δb_t per bit: +1, 0 or −1.
            let mut delta = vec![0i32; n];
            for t in 1..len {
                let prev = stream.word(t - 1);
                let cur = stream.word(t);
                for (i, d) in delta.iter_mut().enumerate() {
                    let pb = (prev >> i) & 1;
                    let cb = (cur >> i) & 1;
                    *d = cb as i32 - pb as i32;
                }
                for i in 0..n {
                    if delta[i] != 0 {
                        ts[i] += 1.0;
                        for j in 0..n {
                            if delta[j] != 0 {
                                tc[(i, j)] += (delta[i] * delta[j]) as f64;
                                joint[(i, j)] += 1.0;
                            }
                        }
                    }
                }
            }
            for v in ts.iter_mut() {
                *v /= transitions;
            }
            tc = tc.scale(1.0 / transitions);
            joint = joint.scale(1.0 / transitions);
        }
        SwitchingStats {
            ts,
            tc,
            probs,
            joint: Some(joint),
        }
    }

    /// The windowed estimator's definition before it counted windows in
    /// place: every window copied into a stream of its own.
    fn reference_windowed(stream: &BitStream, window: usize) -> Vec<SwitchingStats> {
        let mut out = Vec::new();
        let mut start = 0;
        while start + 1 < stream.len() {
            let end = (start + window).min(stream.len());
            let words: Vec<u64> = (start..end).map(|t| stream.word(t)).collect();
            let slice = BitStream::from_words(stream.width(), words)
                .expect("slice of a valid stream is valid");
            out.push(SwitchingStats::from_stream(&slice));
            start = end;
        }
        out
    }

    /// Every estimated number as its bit pattern: `ts`, `tc`, `probs`,
    /// `joint`.
    fn bits(st: &SwitchingStats) -> Vec<u64> {
        let joint = st.joint.as_ref().expect("stream-derived statistics");
        st.ts
            .iter()
            .copied()
            .chain(st.tc.entries().map(|(_, _, v)| v))
            .chain(st.probs.iter().copied())
            .chain(joint.entries().map(|(_, _, v)| v))
            .map(f64::to_bits)
            .collect()
    }

    fn mask(width: usize) -> u64 {
        u64::MAX >> (64 - width)
    }

    /// A stream of `len` words: uniform words when `sparse` is false,
    /// otherwise a walk that flips about one bit in four per cycle, so
    /// that pairs often toggle alone.
    fn random_stream(width: usize, len: usize, sparse: bool, rng: &mut StdRng) -> BitStream {
        let mut word = 0u64;
        let words = (0..len)
            .map(|_| {
                word = if sparse {
                    word ^ (rng.gen::<u64>() & rng.gen::<u64>())
                } else {
                    rng.gen::<u64>()
                };
                word & mask(width)
            })
            .collect();
        BitStream::from_words(width, words).expect("masked words fit")
    }

    fn assert_matches_reference(s: &BitStream) {
        assert_eq!(
            bits(&SwitchingStats::from_stream(s)),
            bits(&reference_from_stream(s)),
            "width {} len {}",
            s.width(),
            s.len()
        );
    }

    #[test]
    fn transpose_moves_bit_i_of_row_t_to_bit_t_of_row_i() {
        let mut rng = StdRng::seed_from_u64(7);
        let rows: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut planes = rows;
        transpose64(&mut planes);
        for (t, row) in rows.iter().enumerate() {
            for (i, plane) in planes.iter().enumerate() {
                assert_eq!((plane >> t) & 1, (row >> i) & 1, "row {t} bit {i}");
            }
        }
    }

    #[test]
    fn matches_reference_on_block_boundary_lengths() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for width in WIDTHS {
            for len in LENGTHS {
                for sparse in [false, true] {
                    assert_matches_reference(&random_stream(width, len, sparse, &mut rng));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn matches_reference_on_random_streams(
            w in 0..WIDTHS.len(),
            len in 0..=300usize,
            sparse in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let s = random_stream(WIDTHS[w], len, sparse, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(
                bits(&SwitchingStats::from_stream(&s)),
                bits(&reference_from_stream(&s))
            );
        }

        #[test]
        fn windows_match_copied_slices(
            w in 0..WIDTHS.len(),
            len in 0..=300usize,
            sparse in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let s = random_stream(WIDTHS[w], len, sparse, &mut StdRng::seed_from_u64(seed));
            for window in WINDOWS {
                let windows = SwitchingStats::from_stream_windowed(&s, window);
                let reference = reference_windowed(&s, window);
                prop_assert_eq!(windows.len(), reference.len());
                for (got, want) in windows.iter().zip(&reference) {
                    prop_assert_eq!(bits(got), bits(want));
                }
            }
        }
    }

    fn assert_finite(st: &SwitchingStats) {
        assert!(
            bits(st).into_iter().map(f64::from_bits).all(f64::is_finite),
            "{st:?}"
        );
    }

    #[test]
    fn constant_streams_never_switch() {
        for width in WIDTHS {
            for value in [0, mask(width), 0x5555_5555_5555_5555 & mask(width)] {
                for len in LENGTHS {
                    let s = BitStream::from_words(width, vec![value; len]).unwrap();
                    let st = SwitchingStats::from_stream(&s);
                    assert_finite(&st);
                    assert!(st.ts.iter().all(|&v| v == 0.0));
                    assert_eq!(st.tc, Matrix::zeros(width));
                    assert_eq!(st.joint, Some(Matrix::zeros(width)));
                    assert_matches_reference(&s);
                }
            }
        }
    }

    #[test]
    fn one_bit_streams_count_every_toggle() {
        for len in LENGTHS {
            let s = BitStream::from_words(1, (0..len as u64).map(|t| t & 1).collect()).unwrap();
            let st = SwitchingStats::from_stream(&s);
            assert_finite(&st);
            assert_eq!(st.self_switching(0), if len >= 2 { 1.0 } else { 0.0 });
            assert_matches_reference(&s);
        }
    }

    #[test]
    fn top_bit_of_a_64_bit_word_is_counted() {
        for len in LENGTHS {
            let top: Vec<u64> = (0..len as u64).map(|t| (t & 1) << 63).collect();
            let s = BitStream::from_words(64, top).unwrap();
            let st = SwitchingStats::from_stream(&s);
            assert_finite(&st);
            if len >= 2 {
                assert_eq!(st.self_switching(63), 1.0);
                assert_eq!(st.joint_switching(63, 63), 1.0);
            }
            assert_eq!(st.self_switching(62), 0.0);
            assert_matches_reference(&s);

            // All-ones words alternating with zero: every pair toggles
            // together, none oppositely.
            let ones: Vec<u64> = (0..len)
                .map(|t| if t % 2 == 0 { u64::MAX } else { 0 })
                .collect();
            let s = BitStream::from_words(64, ones).unwrap();
            let st = SwitchingStats::from_stream(&s);
            assert_finite(&st);
            if len >= 2 {
                assert_eq!(st.coupling_switching(0, 63), 1.0);
                assert_eq!(st.opposite_switching(0, 63), 0.0);
            }
            assert_matches_reference(&s);
        }
    }

    #[test]
    fn long_streams_match_reference() {
        // Every bit toggles every cycle across many blocks, so each
        // pair's counts reach the stream length.
        let len = 64 * 90 + 5;
        let alternating = |a: u64, b: u64| -> Vec<u64> {
            (0..len).map(|t| if t % 2 == 0 { a } else { b }).collect()
        };
        let all = BitStream::from_words(64, alternating(0, u64::MAX)).unwrap();
        let st = SwitchingStats::from_stream(&all);
        assert_eq!(st.joint_switching(0, 63), 1.0);
        assert_eq!(st.coupling_switching(0, 63), 1.0);
        assert_matches_reference(&all);
        // Neighbours toggle oppositely every cycle.
        let checker = 0x5555_5555_5555_5555;
        let opposed = BitStream::from_words(64, alternating(checker, !checker)).unwrap();
        let st = SwitchingStats::from_stream(&opposed);
        assert_eq!(st.opposite_switching(0, 1), 1.0);
        assert_eq!(st.coupling_switching(0, 1), -1.0);
        assert_matches_reference(&opposed);
        let mut rng = StdRng::seed_from_u64(11);
        assert_matches_reference(&random_stream(36, len, false, &mut rng));
    }

    #[test]
    fn streams_of_zero_and_one_words_have_no_switching() {
        for width in WIDTHS {
            for len in [0, 1] {
                let s = BitStream::from_words(width, vec![mask(width); len]).unwrap();
                let st = SwitchingStats::from_stream(&s);
                assert_finite(&st);
                assert!(st.ts.iter().all(|&v| v == 0.0));
                assert_eq!(st.bit_probability(width - 1), len as f64);
                assert!(SwitchingStats::from_stream_windowed(&s, 1).is_empty());
                assert_matches_reference(&s);
            }
        }
    }
}
