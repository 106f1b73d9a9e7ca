//! Exact branch-and-bound optimiser for the signed assignment problem.
//!
//! Eq. 10 is a signed quadratic assignment problem (QAP). Lines are
//! fixed in order of descending total capacitance (most constrained
//! first) and each tree level chooses the (bit, sign) pair for one
//! line.
//!
//! # Incremental cost table
//!
//! The search keeps one table per depth, `lin[d][line][(bit, sign)]`:
//! the exact cost of placing `(bit, sign)` on a free line against the
//! `d` lines already placed. Depth 0 holds the diagonal cost; a child
//! adds one pair term per free entry for the line just placed, so the
//! terms are summed in placement order and a leaf's accumulated cost is
//! the same float sum as pricing each placement from scratch. Pricing a
//! move is a lookup; extending the table costs `O(free lines × free
//! candidates)`. Every buffer is allocated once per search.
//!
//! # The bound
//!
//! For the free lines `F` and free bits `B`, a completion `π` costs
//!
//! ```text
//! Σ_{l∈F} lin[l][π(l)]  +  Σ_{l<l'∈F} w(π(l), π(l')) · c(l, l')
//! ```
//!
//! where `w = Ts_a + Ts_b − 2·s_a·s_b·Tc_ab` is the pair's switching
//! weight and `c` its capacitance `C_R + ΔC·(ε'_l + ε'_l')`. The weight
//! is non-negative (`|Tc_ab| ≤ √(Ts_a·Ts_b)`) and lies in
//! `[w_min(a,b), w_max]` over the allowed signs; `c` is at least
//! `c_min(l,l')`, its value at the extreme ε sum of the free bits. So
//!
//! ```text
//! w · c  ≥  w_min(a,b) · c⁺(l,l')  +  w_max · c⁻(l,l')
//! ```
//!
//! with `c⁺ = max(c_min, 0)` and `c⁻ = min(c_min, 0)`: the second term
//! is zero on every physical model and keeps the bound admissible on
//! signed (e.g. Maxwell-convention) imports. The first term is bounded
//! the Gilmore–Lawler way (Gilmore 1962; Lawler 1963): half of every
//! pair is charged to each end, and for a fixed `(l, b)` the half-sum
//! over the other lines is at least ½ × the min-product of `b`'s
//! `w_min` row (sorted ascending over the other free bits) and `l`'s
//! `c⁺` row (sorted descending over the other free lines), by the
//! rearrangement inequality. Adding the cheapest sign's `lin` entry
//! gives an `|F|×|F|` cost matrix whose linear assignment (Hungarian
//! method, `O(|F|³)`) bounds every completion from below. The bound is
//! admissible, hence the search is exact; a node budget turns it into
//! an anytime algorithm that reports whether optimality was proven and
//! a certified lower bound either way.
//!
//! Branches are also cut on prefix cost alone when every cost term is
//! non-negative, which the search checks up front
//! (`C_R − 2·max|ε|·|ΔC| ≥ 0` for every line pair).

use crate::optimize::OptimizeResult;
use crate::problem::FlatTables;
use crate::{AssignmentProblem, CoreError};
use tsv3d_matrix::SignedPerm;
use tsv3d_telemetry::{TelemetryHandle, Value};

/// Options for [`branch_and_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbOptions {
    /// Maximum number of search-tree nodes to expand before giving up
    /// on the optimality proof (the best incumbent is still returned).
    pub node_limit: u64,
}

impl Default for BnbOptions {
    fn default() -> Self {
        Self {
            node_limit: 20_000_000,
        }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// The best assignment found.
    pub result: OptimizeResult,
    /// `true` if the search completed, i.e. the result is proven
    /// optimal; `false` if the node budget was exhausted first.
    pub proven_optimal: bool,
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// A certified lower bound on the optimal power. Equal to
    /// `result.power` when proven; otherwise the smallest bound over
    /// the subtrees left open by the node budget (never above
    /// `result.power`), so `(power − lower_bound) / lower_bound` bounds
    /// the incumbent's gap.
    pub lower_bound: f64,
}

/// The two signs a bit may take, indexed as in the cost table.
const SIGNS: [f64; 2] = [1.0, -1.0];

/// The signs a bit may take: both if it is invertible, else `+1` only.
fn signs(invertible: bool) -> &'static [f64] {
    if invertible {
        &SIGNS
    } else {
        &SIGNS[..1]
    }
}

/// A candidate move at a node: its exact placement cost and the
/// `(bit, sign)` it places.
#[derive(Debug, Clone, Copy, Default)]
struct Move {
    cost: f64,
    bit: usize,
    sign: f64,
}

/// Stable insertion sort by cost. Move lists hold at most `2n` entries;
/// `slice::sort_by` would allocate a scratch buffer for the longer ones.
fn sort_by_cost(moves: &mut [Move]) {
    for i in 1..moves.len() {
        let m = moves[i];
        let mut j = i;
        while j > 0 && moves[j - 1].cost.total_cmp(&m.cost).is_gt() {
            moves[j] = moves[j - 1];
            j -= 1;
        }
        moves[j] = m;
    }
}

/// Dense linear assignment by the Hungarian method (shortest augmenting
/// paths with potentials, `O(k³)`), with buffers sized once for the
/// largest `k`.
struct Lap {
    /// Row-major `k×k` cost matrix; `INFINITY` marks a forbidden pair.
    cost: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    minv: Vec<f64>,
    /// `p[j]`: the row matched to column `j` (1-based, 0 = none).
    p: Vec<usize>,
    way: Vec<usize>,
    used: Vec<bool>,
}

impl Lap {
    fn new(n: usize) -> Self {
        Self {
            cost: vec![0.0; n * n],
            u: vec![0.0; n + 1],
            v: vec![0.0; n + 1],
            minv: vec![0.0; n + 1],
            p: vec![0; n + 1],
            way: vec![0; n + 1],
            used: vec![false; n + 1],
        }
    }

    /// Minimum total cost of a perfect matching of the `k×k` matrix in
    /// `cost[..k*k]`, or `-∞` (the trivial bound) if none is found,
    /// which only NaN costs cause.
    fn solve(&mut self, k: usize) -> f64 {
        let Self {
            cost,
            u,
            v,
            minv,
            p,
            way,
            used,
        } = self;
        u[..=k].fill(0.0);
        v[..=k].fill(0.0);
        p[..=k].fill(0);
        for i in 1..=k {
            p[0] = i;
            let mut j0 = 0;
            minv[..=k].fill(f64::INFINITY);
            used[..=k].fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let row = &cost[(i0 - 1) * k..i0 * k];
                let mut delta = f64::INFINITY;
                let mut j1 = 0;
                for j in 1..=k {
                    if !used[j] {
                        let cur = row[j - 1] - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                if j1 == 0 {
                    return f64::NEG_INFINITY;
                }
                for j in 0..=k {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        (1..=k).map(|j| cost[(p[j] - 1) * k + j - 1]).sum()
    }
}

struct Searcher<'a> {
    problem: &'a AssignmentProblem,
    flat: &'a FlatTables,
    eps: &'a [f64],
    n: usize,
    /// Lines in branching order: depth `d` places `line_order[d]`, so
    /// the free lines at depth `d` are `line_order[d..]`.
    line_order: Vec<usize>,
    /// `pin_of_line[line]`: the bit pinned to that line, if any.
    pin_of_line: Vec<Option<usize>>,
    /// Bit-indexed `n×n` minimum of the switching weight over the
    /// allowed signs.
    w_min: Vec<f64>,
    /// Bit-indexed `n×n` maximum of the switching weight over the
    /// allowed signs.
    w_max: Vec<f64>,
    /// Every diagonal and pair cost is `≥ 0`, so a prefix whose cost
    /// reaches the incumbent can be cut without a bound.
    costs_nonneg: bool,
    /// `lin[((d·n) + pos)·2n + 2·bit + sign_index]`: the exact cost of
    /// `(bit, sign)` on line `line_order[pos]` against the `d` placed
    /// lines, for `pos ≥ d`.
    lin: Vec<f64>,
    /// Candidate moves, `2n` slots per depth.
    moves: Vec<Move>,
    /// Unplaced bits (a set; `swap_remove`/`push` reorder it).
    free_bits: Vec<usize>,
    /// The placed prefix as `(line, bit, sign)`.
    placed: Vec<(usize, usize, f64)>,
    /// Gilmore–Lawler rows: `c⁺` per free line, `w_min` per free bit.
    c_rows: Vec<f64>,
    w_rows: Vec<f64>,
    lap: Lap,
    /// Incumbent.
    best_power: f64,
    best_line_of_bit: Vec<usize>,
    best_inverted: Vec<bool>,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
    /// Smallest lower bound over the subtrees the node budget left
    /// unexplored.
    open_bound: f64,
    /// Instrumentation (cheap local tallies, flushed to the handle by
    /// the caller; the search itself is telemetry-free when disabled).
    tel: &'a TelemetryHandle,
    observe: bool,
    pruned_by_cost: u64,
    pruned_by_bound: u64,
    leaves: u64,
    incumbents: u64,
}

impl<'a> Searcher<'a> {
    fn new(problem: &'a AssignmentProblem, node_limit: u64, tel: &'a TelemetryHandle) -> Self {
        let n = problem.n();
        let flat = problem.flat();
        let eps = problem.eps();
        let invertible = problem.invertible();
        let mut w_min = vec![0.0; n * n];
        let mut w_max = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                // With either bit invertible the sign product is free,
                // so the coupling term ranges over ±|tc|; otherwise it
                // is fixed at +tc.
                let tc = flat.tc[a * n + b];
                let (lo_tc, hi_tc) = if invertible[a] || invertible[b] {
                    (-tc.abs(), tc.abs())
                } else {
                    (tc, tc)
                };
                let ts = flat.ts[a] + flat.ts[b];
                w_min[a * n + b] = (ts - 2.0 * hi_tc).max(0.0);
                w_max[a * n + b] = ts - 2.0 * lo_tc;
            }
        }
        let reach = 2.0 * eps.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        let costs_nonneg = flat.ts.iter().all(|&t| t >= 0.0)
            && flat
                .c_r
                .iter()
                .zip(&flat.delta_c)
                .all(|(&c, &dc)| c - reach * dc.abs() >= 0.0);
        // Branch on high-capacitance lines first; pinned lines may only
        // receive their pinned bit, which `collect_moves` enforces.
        let totals = problem.cap_model().c_r().row_sums();
        let mut line_order: Vec<usize> = (0..n).collect();
        line_order.sort_by(|&a, &b| totals[b].total_cmp(&totals[a]));
        let mut pin_of_line = vec![None; n];
        for (bit, pin) in problem.pinned().iter().enumerate() {
            if let Some(line) = *pin {
                pin_of_line[line] = Some(bit);
            }
        }
        // Depth 0 of the cost table: the diagonal entries. (A leaf needs
        // no table, so depths run to n − 1.)
        let mut lin = vec![f64::INFINITY; n * n * 2 * n];
        for (pos, &line) in line_order.iter().enumerate() {
            let diag = line * n + line;
            for bit in 0..n {
                for (si, &sign) in signs(invertible[bit]).iter().enumerate() {
                    let eps_here = sign * eps[bit];
                    lin[pos * 2 * n + 2 * bit + si] =
                        flat.ts[bit] * (flat.c_r[diag] + 2.0 * flat.delta_c[diag] * eps_here);
                }
            }
        }
        // Seed the incumbent with the (pin-respecting) base assignment
        // so pruning can start immediately.
        let base = problem.base_assignment();
        Self {
            problem,
            flat,
            eps,
            n,
            line_order,
            pin_of_line,
            w_min,
            w_max,
            costs_nonneg,
            lin,
            moves: vec![Move::default(); n * 2 * n],
            free_bits: (0..n).collect(),
            placed: Vec::with_capacity(n),
            c_rows: vec![0.0; n * n],
            w_rows: vec![0.0; n * n],
            lap: Lap::new(n),
            best_power: problem.power(&base),
            best_line_of_bit: (0..n).map(|bit| base.line_of_bit(bit)).collect(),
            best_inverted: vec![false; n],
            nodes: 0,
            node_limit,
            exhausted: false,
            open_bound: f64::INFINITY,
            tel,
            observe: tel.is_enabled(),
            pruned_by_cost: 0,
            pruned_by_bound: 0,
            leaves: 0,
            incumbents: 0,
        }
    }

    /// Offset of `lin[depth][pos]`.
    fn lin_row(&self, depth: usize, pos: usize) -> usize {
        (depth * self.n + pos) * 2 * self.n
    }

    /// Fills the move slots of `depth` with the feasible `(bit, sign)`
    /// candidates for `line_order[depth]`, cheapest first (a strong
    /// incumbent early prunes more), and returns their count. A pinned
    /// line accepts only its pinned bit; a pinned bit is skipped on
    /// other lines.
    fn collect_moves(&mut self, depth: usize) -> usize {
        let n = self.n;
        let row = self.lin_row(depth, depth);
        let pin = self.pin_of_line[self.line_order[depth]];
        let slots = &mut self.moves[depth * 2 * n..(depth + 1) * 2 * n];
        let mut count = 0;
        for &bit in &self.free_bits {
            match pin {
                Some(p) if p != bit => continue,
                None if self.problem.pin_of(bit).is_some() => continue,
                _ => {}
            }
            for (si, &sign) in signs(self.problem.is_invertible(bit)).iter().enumerate() {
                slots[count] = Move {
                    cost: self.lin[row + 2 * bit + si],
                    bit,
                    sign,
                };
                count += 1;
            }
        }
        sort_by_cost(&mut slots[..count]);
        count
    }

    /// Places `m` on `line_order[depth]` and extends the cost table to
    /// `depth + 1`: each free entry adds its pair term `w · c` with the
    /// placed line, the expression and order the test module's
    /// reference `placement_cost` uses.
    fn place(&mut self, depth: usize, m: Move) {
        let n = self.n;
        let pos = self
            .free_bits
            .iter()
            .position(|&b| b == m.bit)
            .expect("candidate bit is free");
        self.free_bits.swap_remove(pos);
        let line = self.line_order[depth];
        self.placed.push((line, m.bit, m.sign));
        let flat = self.flat;
        let e_placed = m.sign * self.eps[m.bit];
        let ts_placed = flat.ts[m.bit];
        let (src, dst) = self.lin.split_at_mut((depth + 1) * n * 2 * n);
        for pos in depth + 1..n {
            let other = self.line_order[pos];
            let cr = flat.c_r[other * n + line];
            let dc = flat.delta_c[other * n + line];
            let src_row = &src[(depth * n + pos) * 2 * n..(depth * n + pos + 1) * 2 * n];
            let dst_row = &mut dst[pos * 2 * n..(pos + 1) * 2 * n];
            for &bit in &self.free_bits {
                let tc = flat.tc[bit * n + m.bit];
                for (si, &sign) in signs(self.problem.is_invertible(bit)).iter().enumerate() {
                    let eps_here = sign * self.eps[bit];
                    let c = cr + dc * (eps_here + e_placed);
                    let w = flat.ts[bit] + ts_placed - 2.0 * sign * m.sign * tc;
                    dst_row[2 * bit + si] = src_row[2 * bit + si] + w * c;
                }
            }
        }
    }

    /// Undoes [`place`](Self::place) (the stale table row is simply
    /// overwritten by the next placement).
    fn unplace(&mut self, m: Move) {
        self.placed.pop();
        self.free_bits.push(m.bit);
    }

    /// Admissible lower bound on the cost of the lines not yet placed
    /// at `depth` (see the module docs).
    fn remainder_bound(&mut self, depth: usize) -> f64 {
        let n = self.n;
        let f = n - depth;
        if f == 0 {
            return 0.0;
        }
        let flat = self.flat;
        let lines = &self.line_order[depth..];
        let free_bits = &self.free_bits;
        // Extremes of the achievable ε among free bits.
        let mut eps_lo = f64::INFINITY;
        let mut eps_hi = f64::NEG_INFINITY;
        for &b in free_bits {
            let (lo, hi) = if self.problem.is_invertible(b) {
                (-self.eps[b].abs(), self.eps[b].abs())
            } else {
                (self.eps[b], self.eps[b])
            };
            eps_lo = eps_lo.min(lo);
            eps_hi = eps_hi.max(hi);
        }
        // Per free line, the `c⁺` row over the other free lines, sorted
        // descending; the negative parts `c⁻` summed once per pair.
        let m = f - 1;
        let mut c_neg = 0.0;
        for (i, &la) in lines.iter().enumerate() {
            let row = &mut self.c_rows[i * m..(i + 1) * m];
            let mut k = 0;
            for (j, &lb) in lines.iter().enumerate() {
                if j == i {
                    continue;
                }
                let dc = flat.delta_c[la * n + lb];
                let c_min = flat.c_r[la * n + lb] + (dc * 2.0 * eps_hi).min(dc * 2.0 * eps_lo);
                if c_min < 0.0 && j > i {
                    c_neg += c_min;
                }
                row[k] = c_min.max(0.0);
                k += 1;
            }
            row.sort_unstable_by(|a, b| b.total_cmp(a));
        }
        // Per free bit, the `w_min` row over the other free bits, sorted
        // ascending.
        for (i, &a) in free_bits.iter().enumerate() {
            let row = &mut self.w_rows[i * m..(i + 1) * m];
            let mut k = 0;
            for &b in free_bits {
                if b != a {
                    row[k] = self.w_min[a * n + b];
                    k += 1;
                }
            }
            row.sort_unstable_by(f64::total_cmp);
        }
        let mut correction = 0.0;
        if c_neg < 0.0 {
            let mut w_max = 0.0f64;
            for (i, &a) in free_bits.iter().enumerate() {
                for &b in &free_bits[i + 1..] {
                    w_max = w_max.max(self.w_max[a * n + b]);
                }
            }
            correction = w_max * c_neg;
        }
        // Linear assignment over free lines × free bits.
        for (i, &line) in lines.iter().enumerate() {
            let lin_row = self.lin_row(depth, depth + i);
            let c_row = &self.c_rows[i * m..(i + 1) * m];
            let pin = self.pin_of_line[line];
            for (j, &bit) in free_bits.iter().enumerate() {
                let allowed = match pin {
                    Some(p) => p == bit,
                    None => self.problem.pin_of(bit).is_none(),
                };
                self.lap.cost[i * f + j] = if allowed {
                    let mut exact = self.lin[lin_row + 2 * bit];
                    if self.problem.is_invertible(bit) {
                        exact = exact.min(self.lin[lin_row + 2 * bit + 1]);
                    }
                    let w_row = &self.w_rows[j * m..(j + 1) * m];
                    let pairs: f64 = w_row.iter().zip(c_row).map(|(w, c)| w * c).sum();
                    exact + 0.5 * pairs
                } else {
                    f64::INFINITY
                };
            }
        }
        self.lap.solve(f) + correction
    }

    /// Places `m` at `depth`, bounds the child's remainder and returns
    /// the bound; the caller undoes the placement.
    fn child_bound(&mut self, depth: usize, m: Move) -> f64 {
        self.place(depth, m);
        self.remainder_bound(depth + 1)
    }

    /// Expands the node at `depth` whose placed prefix costs `prefix`;
    /// `lower` is a lower bound on every leaf below it.
    fn search(&mut self, depth: usize, prefix: f64, lower: f64) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.exhausted = true;
            self.open_bound = self.open_bound.min(lower);
            return;
        }
        if depth == self.n {
            self.leaves += 1;
            if prefix < self.best_power {
                self.incumbents += 1;
                if self.observe {
                    self.tel.event(
                        "bnb.incumbent",
                        &[
                            ("power", Value::from(prefix)),
                            ("nodes", Value::from(self.nodes)),
                        ],
                    );
                }
                self.best_power = prefix;
                for &(line, bit, sign) in &self.placed {
                    self.best_line_of_bit[bit] = line;
                    self.best_inverted[bit] = sign < 0.0;
                }
            }
            return;
        }

        let count = self.collect_moves(depth);
        let slots = depth * 2 * self.n;
        for i in 0..count {
            let m = self.moves[slots + i];
            let new_cost = prefix + m.cost;
            if self.costs_nonneg && new_cost >= self.best_power {
                self.pruned_by_cost += 1;
                continue;
            }
            let bound = self.child_bound(depth, m);
            if self.observe && self.best_power.is_finite() && self.best_power != 0.0 {
                // Bound quality: (prefix + bound) / incumbent — values
                // ≥ 1 prune, values near 1 are tight.
                self.tel
                    .record("bnb.bound_ratio", (new_cost + bound) / self.best_power);
            }
            if new_cost + bound < self.best_power {
                self.search(depth + 1, new_cost, new_cost + bound);
            } else {
                self.pruned_by_bound += 1;
            }
            self.unplace(m);
            if self.exhausted {
                // The budget ran out below this move: bound the siblings
                // it never reached, so the anytime lower bound covers
                // them too.
                for j in i + 1..count {
                    let m = self.moves[slots + j];
                    let new_cost = prefix + m.cost;
                    if self.costs_nonneg && new_cost >= self.best_power {
                        continue;
                    }
                    let bound = self.child_bound(depth, m);
                    self.unplace(m);
                    self.open_bound = self.open_bound.min(new_cost + bound);
                }
                return;
            }
        }
    }
}

/// Exact branch-and-bound solution of the assignment problem
/// (Eq. 10), with an anytime node budget.
///
/// Unlike [`exhaustive`](crate::optimize::exhaustive) this prunes with
/// an admissible Gilmore–Lawler bound (see the module docs), which
/// proves full 3×3 bundles with inversions in a few thousand nodes.
/// When the budget runs out first, [`BnbOutcome::lower_bound`] still
/// certifies the incumbent's gap.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if the node limit is zero.
///
/// # Examples
///
/// ```
/// use tsv3d_core::{optimize, AssignmentProblem};
/// use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = LinearCapModel::fit(&Extractor::new(
///     TsvArray::new(2, 2, TsvGeometry::wide_2018())?,
/// ))?;
/// let s = BitStream::from_words(4, vec![0b0001, 0b1110, 0b0011, 0b1100])?;
/// let problem = AssignmentProblem::new(SwitchingStats::from_stream(&s), cap)?;
/// let outcome = optimize::branch_and_bound(&problem, &Default::default())?;
/// assert!(outcome.proven_optimal);
/// assert_eq!(outcome.lower_bound, outcome.result.power);
/// # Ok(())
/// # }
/// ```
pub fn branch_and_bound(
    problem: &AssignmentProblem,
    options: &BnbOptions,
) -> Result<BnbOutcome, CoreError> {
    branch_and_bound_with_telemetry(problem, options, &TelemetryHandle::disabled())
}

/// [`branch_and_bound`] with search instrumentation.
///
/// Accumulates `bnb.*` counters (nodes, cost/bound prunes, leaves,
/// incumbents), records the `bnb.bound_ratio` quality histogram, and
/// emits `bnb.incumbent` events plus a final `bnb.done` event.
/// Telemetry never influences the search order or pruning, so the
/// returned [`BnbOutcome`] is identical to [`branch_and_bound`]'s.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if the node limit is zero.
pub fn branch_and_bound_with_telemetry(
    problem: &AssignmentProblem,
    options: &BnbOptions,
    tel: &TelemetryHandle,
) -> Result<BnbOutcome, CoreError> {
    if options.node_limit == 0 {
        return Err(CoreError::EmptyBudget);
    }
    let _span = tel.span("core.bnb");
    let mut searcher = Searcher::new(problem, options.node_limit, tel);
    let root_bound = searcher.remainder_bound(0);
    searcher.search(0, 0.0, root_bound);

    let assignment = SignedPerm::from_parts(searcher.best_line_of_bit, searcher.best_inverted)
        .expect("search constructs valid permutations");
    let power = problem.power(&assignment);
    let proven_optimal = !searcher.exhausted;
    let outcome = BnbOutcome {
        result: OptimizeResult { assignment, power },
        proven_optimal,
        nodes: searcher.nodes,
        lower_bound: if proven_optimal {
            power
        } else {
            searcher.open_bound.min(power)
        },
    };
    if searcher.observe {
        tel.add("bnb.nodes", searcher.nodes);
        tel.add("bnb.pruned_by_cost", searcher.pruned_by_cost);
        tel.add("bnb.pruned_by_bound", searcher.pruned_by_bound);
        tel.add("bnb.leaves", searcher.leaves);
        tel.add("bnb.incumbents", searcher.incumbents);
        tel.event(
            "bnb.done",
            &[
                ("nodes", Value::from(searcher.nodes)),
                ("pruned_by_cost", Value::from(searcher.pruned_by_cost)),
                ("pruned_by_bound", Value::from(searcher.pruned_by_bound)),
                ("leaves", Value::from(searcher.leaves)),
                ("incumbents", Value::from(searcher.incumbents)),
                ("proven_optimal", Value::from(outcome.proven_optimal)),
                ("best_power", Value::from(power)),
                ("lower_bound", Value::from(outcome.lower_bound)),
            ],
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tsv3d_matrix::Matrix;
    use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
    use tsv3d_stats::gen::GaussianSource;
    use tsv3d_stats::{BitStream, SwitchingStats};

    /// The search before the incremental cost table, kept as the
    /// reference the table-driven search is pinned against: each move
    /// priced by `placement_cost` from scratch, bounded by per-line and
    /// per-pair minima (its clamps and prefix-cost cut assume a
    /// non-negative model).
    mod reference {
        use crate::AssignmentProblem;
        use tsv3d_matrix::SignedPerm;

        pub(super) struct Outcome {
            pub(super) assignment: SignedPerm,
            pub(super) power: f64,
            pub(super) proven_optimal: bool,
        }

        struct Searcher<'a> {
            problem: &'a AssignmentProblem,
            line_order: Vec<usize>,
            ts: Vec<f64>,
            eps: Vec<f64>,
            w_min: Vec<Vec<f64>>,
            best_power: f64,
            best: Option<SignedPerm>,
            nodes: u64,
            node_limit: u64,
            exhausted: bool,
        }

        impl<'a> Searcher<'a> {
            fn placement_cost(
                &self,
                line: usize,
                bit: usize,
                sign: f64,
                placed: &[(usize, usize, f64)],
            ) -> f64 {
                let c_r = self.problem.cap_model().c_r();
                let delta_c = self.problem.cap_model().delta_c();
                let stats = self.problem.stats();
                let eps_here = sign * self.eps[bit];
                let mut cost =
                    self.ts[bit] * (c_r[(line, line)] + 2.0 * delta_c[(line, line)] * eps_here);
                for &(other_line, other_bit, other_sign) in placed {
                    let c = c_r[(line, other_line)]
                        + delta_c[(line, other_line)]
                            * (eps_here + other_sign * self.eps[other_bit]);
                    let w = self.ts[bit] + self.ts[other_bit]
                        - 2.0 * sign * other_sign * stats.coupling_switching(bit, other_bit);
                    cost += w * c;
                }
                cost
            }

            fn signs(&self, bit: usize) -> &'static [f64] {
                if self.problem.is_invertible(bit) {
                    &[1.0, -1.0]
                } else {
                    &[1.0]
                }
            }

            fn remainder_bound(&self, placed: &[(usize, usize, f64)], free_bits: &[usize]) -> f64 {
                if free_bits.is_empty() {
                    return 0.0;
                }
                let c_r = self.problem.cap_model().c_r();
                let delta_c = self.problem.cap_model().delta_c();
                let stats = self.problem.stats();
                let free_lines = &self.line_order[placed.len()..];
                let mut eps_max = f64::NEG_INFINITY;
                let mut eps_min = f64::INFINITY;
                for &b in free_bits {
                    let (lo, hi) = if self.problem.is_invertible(b) {
                        (-self.eps[b].abs(), self.eps[b].abs())
                    } else {
                        (self.eps[b], self.eps[b])
                    };
                    eps_min = eps_min.min(lo);
                    eps_max = eps_max.max(hi);
                }
                let mut w_pair_min = f64::INFINITY;
                for (idx, &a) in free_bits.iter().enumerate() {
                    for &b in &free_bits[idx + 1..] {
                        w_pair_min = w_pair_min.min(self.w_min[a][b]);
                    }
                }
                let mut bound = 0.0;
                for &line in free_lines {
                    let mut line_min = f64::INFINITY;
                    for &b in free_bits {
                        for &sg in self.signs(b) {
                            let c =
                                c_r[(line, line)] + 2.0 * delta_c[(line, line)] * sg * self.eps[b];
                            line_min = line_min.min(self.ts[b] * c.max(0.0));
                        }
                    }
                    bound += line_min;
                }
                for &(p_line, p_bit, p_sign) in placed {
                    for &line in free_lines {
                        let mut pair_min = f64::INFINITY;
                        for &b in free_bits {
                            for &s in self.signs(b) {
                                let c = c_r[(line, p_line)]
                                    + delta_c[(line, p_line)]
                                        * (s * self.eps[b] + p_sign * self.eps[p_bit]);
                                let w = self.ts[b] + self.ts[p_bit]
                                    - 2.0 * s * p_sign * stats.coupling_switching(b, p_bit);
                                pair_min = pair_min.min((w * c).max(0.0));
                            }
                        }
                        bound += pair_min;
                    }
                }
                if free_bits.len() >= 2 {
                    for (idx, &la) in free_lines.iter().enumerate() {
                        for &lb in &free_lines[idx + 1..] {
                            let dc = delta_c[(la, lb)];
                            let c_min = (c_r[(la, lb)]
                                + (dc * 2.0 * eps_max).min(dc * 2.0 * eps_min))
                            .max(0.0);
                            bound += w_pair_min * c_min;
                        }
                    }
                }
                bound
            }

            fn search(
                &mut self,
                placed: &mut Vec<(usize, usize, f64)>,
                free_bits: &mut Vec<usize>,
                prefix_cost: f64,
            ) {
                self.nodes += 1;
                if self.nodes > self.node_limit {
                    self.exhausted = true;
                    return;
                }
                if free_bits.is_empty() {
                    if prefix_cost < self.best_power {
                        self.best_power = prefix_cost;
                        let n = self.problem.n();
                        let mut line_of_bit = vec![0usize; n];
                        let mut inverted = vec![false; n];
                        for &(line, bit, sign) in placed.iter() {
                            line_of_bit[bit] = line;
                            inverted[bit] = sign < 0.0;
                        }
                        self.best = Some(SignedPerm::from_parts(line_of_bit, inverted).unwrap());
                    }
                    return;
                }
                let line = self.line_order[placed.len()];
                let pinned_bit_for_line =
                    (0..self.problem.n()).find(|&b| self.problem.pin_of(b) == Some(line));
                let mut moves: Vec<(f64, usize, f64)> = Vec::new();
                for &bit in free_bits.iter() {
                    match pinned_bit_for_line {
                        Some(p) if p != bit => continue,
                        None if self.problem.pin_of(bit).is_some() => continue,
                        _ => {}
                    }
                    for &sign in self.signs(bit) {
                        moves.push((self.placement_cost(line, bit, sign, placed), bit, sign));
                    }
                }
                moves.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (cost, bit, sign) in moves {
                    if self.exhausted {
                        return;
                    }
                    let new_cost = prefix_cost + cost;
                    if new_cost >= self.best_power {
                        continue;
                    }
                    let pos = free_bits.iter().position(|&b| b == bit).unwrap();
                    free_bits.swap_remove(pos);
                    placed.push((line, bit, sign));
                    let bound = self.remainder_bound(placed, free_bits);
                    if new_cost + bound < self.best_power {
                        self.search(placed, free_bits, new_cost);
                    }
                    placed.pop();
                    free_bits.push(bit);
                }
            }
        }

        pub(super) fn branch_and_bound(problem: &AssignmentProblem, node_limit: u64) -> Outcome {
            let n = problem.n();
            let stats = problem.stats();
            let ts: Vec<f64> = (0..n).map(|i| stats.self_switching(i)).collect();
            let mut w_min = vec![vec![0.0; n]; n];
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        let tc = stats.coupling_switching(a, b);
                        let best_tc = if problem.is_invertible(a) || problem.is_invertible(b) {
                            tc.abs()
                        } else {
                            tc
                        };
                        w_min[a][b] = (ts[a] + ts[b] - 2.0 * best_tc).max(0.0);
                    }
                }
            }
            let totals = problem.cap_model().c_r().row_sums();
            let mut line_order: Vec<usize> = (0..n).collect();
            line_order.sort_by(|&a, &b| totals[b].total_cmp(&totals[a]));
            let base = problem.base_assignment();
            let mut searcher = Searcher {
                problem,
                line_order,
                ts,
                eps: stats.epsilons(),
                w_min,
                best_power: problem.power(&base),
                best: Some(base),
                nodes: 0,
                node_limit,
                exhausted: false,
            };
            searcher.search(&mut Vec::new(), &mut (0..n).collect(), 0.0);
            let assignment = searcher.best.unwrap();
            Outcome {
                power: problem.power(&assignment),
                assignment,
                proven_optimal: !searcher.exhausted,
            }
        }
    }

    fn problem(rows: usize, cols: usize, seed: u64) -> AssignmentProblem {
        let n = rows * cols;
        let cap = LinearCapModel::fit(&Extractor::new(
            TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
        ))
        .expect("fit");
        let stream = GaussianSource::new(n, (1u64 << (n - 2)) as f64)
            .with_correlation(0.3)
            .generate(seed, 5_000)
            .expect("stream");
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("problem")
    }

    /// A 4-line model whose `C'` entries can go negative (as a
    /// Maxwell-convention import or a hand-built `from_parts` model
    /// can), with stream-derived statistics.
    fn signed_problem(rng: &mut StdRng) -> AssignmentProblem {
        let n = 4;
        let mut c_r = Matrix::zeros(n);
        let mut delta_c = Matrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                c_r[(i, j)] = rng.gen_range(-1.0..4.0);
                c_r[(j, i)] = c_r[(i, j)];
                delta_c[(i, j)] = rng.gen_range(-3.0..3.0);
                delta_c[(j, i)] = delta_c[(i, j)];
            }
        }
        let bias: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
        let words: Vec<u64> = (0..64)
            .map(|_| (0..n).fold(0, |w, b| w | (u64::from(rng.gen_bool(bias[b])) << b)))
            .collect();
        let stream = BitStream::from_words(n, words).expect("stream");
        AssignmentProblem::new(
            SwitchingStats::from_stream(&stream),
            LinearCapModel::from_parts(c_r, delta_c),
        )
        .expect("problem")
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        for seed in [1, 2, 3] {
            let p = problem(2, 2, seed);
            let exact = optimize::exhaustive(&p).unwrap();
            let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
            assert!(bnb.proven_optimal);
            assert!(
                (bnb.result.power - exact.power).abs() < 1e-12 * exact.power.abs(),
                "seed {seed}: bnb {:.6e} vs exhaustive {:.6e}",
                bnb.result.power,
                exact.power
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_2x3_with_constraints() {
        let p = problem(2, 3, 7)
            .with_invertible(vec![true, false, true, false, true, false])
            .unwrap();
        let exact = optimize::exhaustive(&p).unwrap();
        let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
        assert!(bnb.proven_optimal);
        assert!((bnb.result.power - exact.power).abs() < 1e-12 * exact.power.abs());
        assert!(p.is_feasible(&bnb.result.assignment));
    }

    #[test]
    fn matches_the_reference_search_bit_for_bit() {
        // Equal-cost candidates may be visited in another order, so the
        // assignment can differ among exact ties; the proven power may
        // not.
        // Variants: 0 all bits free, 1 two bits non-invertible, 2 one pin.
        let mut cases: Vec<(usize, usize, u64, std::ops::Range<usize>)> = Vec::new();
        for (rows, cols) in [(2, 2), (2, 3), (1, 5)] {
            cases.extend((1..=12).map(|seed| (rows, cols, seed, 0..3)));
        }
        // The reference search takes ≈0.6 s per 2×4 proof: two suffice.
        cases.extend([(2, 4, 1, 0..1), (2, 4, 2, 2..3)]);
        for (rows, cols, seed, picked) in cases {
            let n = rows * cols;
            let base = problem(rows, cols, seed);
            let mut restricted = vec![true; n];
            restricted[0] = false;
            restricted[n - 1] = false;
            let mut pins = vec![None; n];
            pins[n / 2] = Some(0);
            let variants = [
                ("free", base.clone()),
                (
                    "two non-invertible",
                    base.clone().with_invertible(restricted).unwrap(),
                ),
                ("one pin", base.with_pinned(pins).unwrap()),
            ];
            for (name, p) in &variants[picked] {
                let new = branch_and_bound(p, &BnbOptions::default()).unwrap();
                let old = reference::branch_and_bound(p, BnbOptions::default().node_limit);
                let case = format!("{rows}x{cols} seed {seed} {name}");
                assert!(new.proven_optimal && old.proven_optimal, "{case}");
                assert_eq!(new.result.power.to_bits(), old.power.to_bits(), "{case}");
                assert_eq!(new.lower_bound, new.result.power, "{case}");
                assert!(p.is_feasible(&new.result.assignment), "{case}");
                assert!(p.is_feasible(&old.assignment), "{case}");
            }
        }
    }

    #[test]
    fn signed_models_match_exhaustive() {
        // The search cuts on prefix cost only when every cost term is
        // non-negative, and its bound keeps a separate term for pairs
        // whose capacitance can go negative; without both, signed
        // models were "proven" at a worse power than exhaustive search.
        let mut rng = StdRng::seed_from_u64(0x51_6E_ED);
        for case in 0..200 {
            let p = signed_problem(&mut rng);
            let exact = optimize::exhaustive(&p).unwrap();
            let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
            assert!(bnb.proven_optimal, "case {case}");
            assert!(
                (bnb.result.power - exact.power).abs() <= 1e-9 * exact.power.abs().max(1.0),
                "case {case}: bnb {:.9e} vs exhaustive {:.9e}",
                bnb.result.power,
                exact.power
            );
        }
    }

    #[test]
    fn proves_optimality_on_3x3_within_budget() {
        // 9-bit signed search space is 9!·2⁹ ≈ 1.9e8; the Gilmore–Lawler
        // bound must prune it to a few thousand nodes.
        let p = problem(3, 3, 11);
        let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
        assert!(bnb.proven_optimal, "expanded {} nodes", bnb.nodes);
        assert!(bnb.nodes <= 50_000, "expanded {} nodes", bnb.nodes);
        // The annealer should agree (it usually finds the optimum here).
        let annealed = optimize::anneal(
            &p,
            &optimize::AnnealOptions {
                iterations: 40_000,
                restarts: 4,
                seed: 5,
                threads: 1,
            },
        )
        .unwrap();
        assert!(bnb.result.power <= annealed.power * (1.0 + 1e-9));
    }

    #[test]
    fn anytime_mode_returns_an_incumbent() {
        let p = problem(3, 3, 13);
        let bnb = branch_and_bound(&p, &BnbOptions { node_limit: 50 }).unwrap();
        assert!(!bnb.proven_optimal);
        // Still no worse than the identity seed.
        assert!(bnb.result.power <= p.identity_power());
    }

    #[test]
    fn anytime_lower_bound_brackets_the_optimum() {
        let p = problem(3, 3, 13);
        let capped = branch_and_bound(&p, &BnbOptions { node_limit: 50 }).unwrap();
        let proven = branch_and_bound(&p, &BnbOptions::default()).unwrap();
        assert!(!capped.proven_optimal && proven.proven_optimal);
        assert!(capped.lower_bound > 0.0);
        assert!(
            capped.lower_bound <= proven.result.power && proven.result.power <= capped.result.power,
            "bound {:.6e}, optimum {:.6e}, incumbent {:.6e}",
            capped.lower_bound,
            proven.result.power,
            capped.result.power
        );
    }

    #[test]
    fn linear_assignment_matches_enumeration() {
        let mut rng = StdRng::seed_from_u64(7);
        for k in 1..=5 {
            for _ in 0..20 {
                let mut lap = Lap::new(k);
                for c in &mut lap.cost[..k * k] {
                    *c = if rng.gen_bool(0.15) {
                        f64::INFINITY
                    } else {
                        rng.gen_range(-5.0..5.0)
                    };
                }
                // Keep the diagonal feasible so a perfect matching exists.
                for i in 0..k {
                    lap.cost[i * k + i] = rng.gen_range(-5.0..5.0);
                }
                let mut best = f64::INFINITY;
                let mut perm: Vec<usize> = (0..k).collect();
                permute(&mut perm, 0, &mut |p| {
                    best = best.min((0..k).map(|i| lap.cost[i * k + p[i]]).sum());
                });
                let got = lap.solve(k);
                assert!((got - best).abs() < 1e-9, "k {k}: {got} vs {best}");
            }
        }
    }

    fn permute(v: &mut Vec<usize>, at: usize, visit: &mut dyn FnMut(&[usize])) {
        if at == v.len() {
            visit(v);
            return;
        }
        for i in at..v.len() {
            v.swap(at, i);
            permute(v, at + 1, visit);
            v.swap(at, i);
        }
    }

    #[test]
    fn zero_budget_rejected() {
        let p = problem(2, 2, 1);
        assert!(matches!(
            branch_and_bound(&p, &BnbOptions { node_limit: 0 }),
            Err(CoreError::EmptyBudget)
        ));
    }
}
