//! A minimal modified-nodal-analysis transient engine.
//!
//! Supports resistors, capacitors, series-RL branches and
//! Norton-equivalent drives (a conductance to a rail voltage),
//! integrated with the backward-Euler companion model. Node 0 is ground
//! and is eliminated from the system; the remaining nodes are solved
//! with a dense LU factorisation.
//!
//! Backward Euler replaces a capacitor `C` between nodes `a`,`b` at each
//! step `h` by a conductance `C/h` in parallel with a current source
//! `C/h · (v_a − v_b)|_prev` — unconditionally stable and charge-exact
//! in steady state, which is what the supply-energy bookkeeping needs.
//! A series R–L branch discretises to the branch equation
//! `i_{n+1} = (v_{n+1} + (L/h)·i_n) / (R + L/h)`, i.e. an effective
//! conductance `1/(R + L/h)` plus a history current — no extra node is
//! needed, which keeps the TSV π ladders compact.
//!
//! A backward-Euler step is linear and time-invariant in the state
//! `x = (node voltages, RL branch currents)` and the rail voltages `r`:
//! `x⁺ = M x + B r`. While the rails are held constant, `k` steps
//! therefore collapse into one exact affine map, built by
//! `Transient::propagator`: `M` and `B` are probed column by column
//! through [`Transient::step`] itself (so the propagator inherits the
//! stepper's discretisation and no second copy of the stamps exists),
//! and `k` steps are composed by binary powering.

use crate::CircuitError;
use tsv3d_telemetry::{TelemetryHandle, Value};

/// A linear circuit under construction (node 0 = ground).
///
/// # Examples
///
/// A resistor divider driven through a Norton source:
///
/// ```
/// use tsv3d_circuit::mna::Netlist;
///
/// # fn main() -> Result<(), tsv3d_circuit::CircuitError> {
/// let mut net = Netlist::new(2); // nodes 1 and 2
/// net.resistor(1, 2, 1000.0);
/// net.resistor(2, 0, 1000.0);
/// net.drive(1, 1e-3, 1.0); // 1 kΩ to a 1 V rail
/// let mut sim = net.transient(1e-12)?;
/// for _ in 0..10_000 {
///     sim.step();
/// }
/// // DC: v1 = 2/3, v2 = 1/3.
/// assert!((sim.voltage(1) - 2.0 / 3.0).abs() < 1e-6);
/// assert!((sim.voltage(2) - 1.0 / 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Number of non-ground nodes.
    nodes: usize,
    /// `(a, b, conductance)` between nodes (0 = ground).
    conductances: Vec<(usize, usize, f64)>,
    /// `(a, b, capacitance)` between nodes (0 = ground).
    capacitors: Vec<(usize, usize, f64)>,
    /// `(node, conductance, rail_voltage_index)` — a resistor from the
    /// node to a controllable rail. The rail voltage is set per step via
    /// [`Transient::set_rail`].
    drives: Vec<(usize, f64, f64)>,
    /// `(a, b, resistance, inductance)` series branches.
    rl_branches: Vec<(usize, usize, f64, f64)>,
}

impl Netlist {
    /// Creates an empty netlist with `nodes` non-ground nodes
    /// (numbered 1..=nodes).
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            conductances: Vec::new(),
            capacitors: Vec::new(),
            drives: Vec::new(),
            rl_branches: Vec::new(),
        }
    }

    /// Number of non-ground nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Adds a resistor between nodes `a` and `b` (0 = ground).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or non-positive resistance.
    pub fn resistor(&mut self, a: usize, b: usize, ohms: f64) {
        assert!(a <= self.nodes && b <= self.nodes, "node out of range");
        assert!(ohms > 0.0, "resistance must be positive");
        self.conductances.push((a, b, 1.0 / ohms));
    }

    /// Adds a capacitor between nodes `a` and `b` (0 = ground).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or negative capacitance.
    pub fn capacitor(&mut self, a: usize, b: usize, farads: f64) {
        assert!(a <= self.nodes && b <= self.nodes, "node out of range");
        assert!(farads >= 0.0, "capacitance must be non-negative");
        if farads > 0.0 {
            self.capacitors.push((a, b, farads));
        }
    }

    /// Adds a *drive*: a resistor of conductance `siemens` from `node`
    /// to a rail whose voltage can be changed between steps (initially
    /// `initial_rail` volts). Returns the drive's index for
    /// [`Transient::set_rail`] / [`Transient::drive_current`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node or non-positive conductance.
    pub fn drive(&mut self, node: usize, siemens: f64, initial_rail: f64) -> usize {
        assert!(node >= 1 && node <= self.nodes, "node out of range");
        assert!(siemens > 0.0, "conductance must be positive");
        self.drives.push((node, siemens, initial_rail));
        self.drives.len() - 1
    }

    /// Adds a series R–L branch between nodes `a` and `b` (0 = ground).
    ///
    /// With `henries = 0` this degenerates to a plain resistor (but
    /// keeps its branch-current bookkeeping). Returns the branch index
    /// for [`Transient::branch_current`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, non-positive resistance or negative
    /// inductance.
    pub fn rl_branch(&mut self, a: usize, b: usize, ohms: f64, henries: f64) -> usize {
        assert!(a <= self.nodes && b <= self.nodes, "node out of range");
        assert!(ohms > 0.0, "resistance must be positive");
        assert!(henries >= 0.0, "inductance must be non-negative");
        self.rl_branches.push((a, b, ohms, henries));
        self.rl_branches.len() - 1
    }

    /// Builds the transient simulator with time step `h` (seconds).
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularMatrix`] if the conductance system is
    /// singular (e.g. a node with no DC path to ground), or
    /// [`CircuitError::NonPositiveParameter`] for a non-positive step.
    pub fn transient(&self, h: f64) -> Result<Transient, CircuitError> {
        self.transient_with_telemetry(h, &TelemetryHandle::disabled())
    }

    /// [`Netlist::transient`] with instrumentation: times the dense LU
    /// factorisation (`circuit.lu_factor` span), emits a
    /// `circuit.transient_built` event with the system's size, and
    /// makes the returned [`Transient`] record per-step solve timings
    /// while `tel` is enabled. Simulated voltages and currents are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::transient`].
    pub fn transient_with_telemetry(
        &self,
        h: f64,
        tel: &TelemetryHandle,
    ) -> Result<Transient, CircuitError> {
        if h <= 0.0 {
            return Err(CircuitError::NonPositiveParameter { name: "h" });
        }
        let n = self.nodes;
        let mut g = vec![0.0; n * n];
        let stamp = |a: usize, b: usize, val: f64, g: &mut Vec<f64>| {
            if a > 0 {
                g[(a - 1) * n + (a - 1)] += val;
            }
            if b > 0 {
                g[(b - 1) * n + (b - 1)] += val;
            }
            if a > 0 && b > 0 {
                g[(a - 1) * n + (b - 1)] -= val;
                g[(b - 1) * n + (a - 1)] -= val;
            }
        };
        for &(a, b, cond) in &self.conductances {
            stamp(a, b, cond, &mut g);
        }
        for &(a, b, c) in &self.capacitors {
            stamp(a, b, c / h, &mut g);
        }
        for &(node, cond, _) in &self.drives {
            stamp(node, 0, cond, &mut g);
        }
        for &(a, b, r, l) in &self.rl_branches {
            stamp(a, b, 1.0 / (r + l / h), &mut g);
        }
        let lu = {
            let _span = tel.span("circuit.lu_factor");
            LuFactors::factor(g, n)?
        };
        if tel.is_enabled() {
            tel.event(
                "circuit.transient_built",
                &[
                    ("nodes", Value::from(n)),
                    ("capacitors", Value::from(self.capacitors.len())),
                    ("rl_branches", Value::from(self.rl_branches.len())),
                    ("drives", Value::from(self.drives.len())),
                    ("h", Value::from(h)),
                ],
            );
        }
        Ok(Transient {
            netlist: self.clone(),
            h,
            lu,
            v: vec![0.0; n],
            rails: self.drives.iter().map(|&(_, _, r)| r).collect(),
            rhs: vec![0.0; n],
            branch_currents: vec![0.0; self.rl_branches.len()],
            tel: tel.clone(),
        })
    }
}

/// A running transient simulation.
#[derive(Debug, Clone)]
pub struct Transient {
    netlist: Netlist,
    h: f64,
    lu: LuFactors,
    /// Node voltages (index 0 ↔ node 1).
    v: Vec<f64>,
    /// Current rail voltage per drive.
    rails: Vec<f64>,
    rhs: Vec<f64>,
    /// Inductor branch currents (one per RL branch), A, flowing a → b.
    branch_currents: Vec<f64>,
    /// Instrumentation handle (disabled unless built via
    /// [`Netlist::transient_with_telemetry`]).
    tel: TelemetryHandle,
}

impl Transient {
    /// The integration step, s.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Voltage of a node (0 = ground ⇒ 0.0).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn voltage(&self, node: usize) -> f64 {
        if node == 0 {
            0.0
        } else {
            self.v[node - 1]
        }
    }

    /// Sets the rail voltage of drive `index` (takes effect next step).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_rail(&mut self, index: usize, volts: f64) {
        self.rails[index] = volts;
    }

    /// Current flowing *out of the rail* into the circuit through drive
    /// `index`, at the present node voltages, A.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn drive_current(&self, index: usize) -> f64 {
        let (node, cond, _) = self.netlist.drives[index];
        cond * (self.rails[index] - self.voltage(node))
    }

    /// Current through RL branch `index` (positive a → b), A.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn branch_current(&self, index: usize) -> f64 {
        self.branch_currents[index]
    }

    /// Advances the simulation by one backward-Euler step.
    pub fn step(&mut self) {
        let solve_timer = if self.tel.is_enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let n = self.netlist.nodes;
        for x in self.rhs.iter_mut() {
            *x = 0.0;
        }
        // Capacitor history currents.
        for &(a, b, c) in &self.netlist.capacitors {
            let i_hist = c / self.h * (self.voltage(a) - self.voltage(b));
            if a > 0 {
                self.rhs[a - 1] += i_hist;
            }
            if b > 0 {
                self.rhs[b - 1] -= i_hist;
            }
        }
        // Drive injections.
        for (k, &(node, cond, _)) in self.netlist.drives.iter().enumerate() {
            self.rhs[node - 1] += cond * self.rails[k];
        }
        // RL-branch history: the memory current keeps flowing a → b.
        for (k, &(a, b, r, l)) in self.netlist.rl_branches.iter().enumerate() {
            let inject = self.branch_currents[k] * (l / self.h) / (r + l / self.h);
            if a > 0 {
                self.rhs[a - 1] -= inject;
            }
            if b > 0 {
                self.rhs[b - 1] += inject;
            }
        }
        self.lu.solve(&mut self.rhs);
        self.v[..n].copy_from_slice(&self.rhs[..n]);
        // Update branch currents from the new node voltages.
        for (k, &(a, b, r, l)) in self.netlist.rl_branches.iter().enumerate() {
            let v_ab = self.voltage(a) - self.voltage(b);
            self.branch_currents[k] =
                (v_ab + (l / self.h) * self.branch_currents[k]) / (r + l / self.h);
        }
        if let Some(start) = solve_timer {
            self.tel
                .record("circuit.step_seconds", start.elapsed().as_secs_f64());
        }
    }

    /// Builds the exact `steps`-step map of this transient with the
    /// rails held constant, starting from the present state and rails.
    ///
    /// Binary powering from the top bit of `steps` down: each bit
    /// squares the map with one dense product, and each set bit extends
    /// it by one step, taken through [`step`](Transient::step) on every
    /// unit state and unit rail vector's response (these probe steps are
    /// not timed). That is ⌊log₂ steps⌋ products; the first set bit
    /// probes the one-step map itself. The build is timed as a
    /// `circuit.propagator` span.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub(crate) fn propagator(&self, steps: usize) -> Propagator {
        assert!(steps > 0, "a propagator spans at least one step");
        let _span = self.tel.span("circuit.propagator");
        let nodes = self.netlist.nodes;
        let states = nodes + self.branch_currents.len();
        let size = states + self.rails.len();
        let stride = size.next_multiple_of(BLOCK);

        // `[A F; E G]` of zero steps is `[I 0; 0 0]`.
        let mut map = vec![0.0; stride * stride];
        for i in 0..states {
            map[i * stride + i] = 1.0;
        }
        let mut probe = self.clone();
        probe.tel = TelemetryHandle::disabled();
        let top = usize::BITS - 1 - steps.leading_zeros();
        probe.step_columns(&mut map, stride);
        let mut squared = vec![0.0; stride * stride];
        for bit in (0..top).rev() {
            square(&map, &mut squared, states, stride);
            std::mem::swap(&mut map, &mut squared);
            if (steps >> bit) & 1 == 1 {
                probe.step_columns(&mut map, stride);
            }
        }

        let mut input = vec![0.0; stride];
        input[..nodes].copy_from_slice(&self.v);
        input[nodes..states].copy_from_slice(&self.branch_currents);
        input[states..size].copy_from_slice(&self.rails);
        Propagator {
            states,
            steps,
            h: self.h,
            conductances: self.netlist.drives.iter().map(|&(_, g, _)| g).collect(),
            map,
            input,
            output: vec![0.0; stride],
            charges: vec![0.0; self.rails.len()],
        }
    }

    /// Extends a `k`-step map `[A F; E G]` (row-major, `stride` columns)
    /// to `k + 1` steps in place: every column is a response to a unit
    /// state or unit rail vector, so one [`step`](Transient::step) from
    /// its state, at its rail, advances it; the new drive-node voltages
    /// add to its sums.
    fn step_columns(&mut self, map: &mut [f64], stride: usize) {
        let nodes = self.netlist.nodes;
        let states = nodes + self.branch_currents.len();
        for col in 0..states + self.rails.len() {
            let column = |row: usize| map[row * stride + col];
            for (i, v) in self.v.iter_mut().enumerate() {
                *v = column(i);
            }
            for (k, current) in self.branch_currents.iter_mut().enumerate() {
                *current = column(nodes + k);
            }
            for (k, rail) in self.rails.iter_mut().enumerate() {
                *rail = if states + k == col { 1.0 } else { 0.0 };
            }
            self.step();
            let next = self.v.iter().chain(&self.branch_currents);
            for (row, &value) in next.enumerate() {
                map[row * stride + col] = value;
            }
            for (k, &(node, _, _)) in self.netlist.drives.iter().enumerate() {
                map[(states + k) * stride + col] += self.v[node - 1];
            }
        }
    }
}

/// Tile edge of the propagator kernels. Their matrices are stored with
/// rows and columns padded to a multiple of it; the padding is zero and
/// every product keeps it zero.
const BLOCK: usize = 4;

/// Writes into `out` the `2k`-step map of the `k`-step map `[A F; E G]`
/// (row-major, `stride` columns, the first `states` rows and columns
/// belonging to the state).
///
/// With `x ↦ A x + F r` and the drive-node sums `s = E x + G r`, running
/// the map twice gives `[A² AF + F; E + EA  G + EF + G]`: the product of
/// the map's state columns with its state rows, plus its rail columns
/// and its sum rows. The product runs in `BLOCK × BLOCK` output tiles,
/// each summing over the state in order.
fn square(map: &[f64], out: &mut [f64], states: usize, stride: usize) {
    let tile_rows = BLOCK * stride;
    for (out_rows, map_rows) in out
        .chunks_exact_mut(tile_rows)
        .zip(map.chunks_exact(tile_rows))
    {
        for col in (0..stride).step_by(BLOCK) {
            let mut acc = [[0.0; BLOCK]; BLOCK];
            for (k, state_row) in map.chunks_exact(stride).take(states).enumerate() {
                let e = &state_row[col..col + BLOCK];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let a = map_rows[r * stride + k];
                    for (o, &e) in acc_row.iter_mut().zip(e) {
                        *o += a * e;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out_rows[r * stride + col..][..BLOCK].copy_from_slice(acc_row);
            }
        }
    }
    for (i, (row, map_row)) in out
        .chunks_exact_mut(stride)
        .zip(map.chunks_exact(stride))
        .enumerate()
    {
        for (o, &f) in row[states..].iter_mut().zip(&map_row[states..]) {
            *o += f;
        }
        if i >= states {
            for (o, &e) in row.iter_mut().zip(map_row) {
                *o += e;
            }
        }
    }
}

/// The exact map of a fixed number of backward-Euler steps with the
/// rails held constant, built by [`Transient::propagator`]. Each
/// [`advance`](Propagator::advance) is one dense matrix–vector product
/// that moves the state across all of those steps and yields every
/// drive's charge over them.
#[derive(Debug)]
pub(crate) struct Propagator {
    /// State length: node voltages, then RL branch currents.
    states: usize,
    /// Backward-Euler steps per [`advance`](Propagator::advance).
    steps: usize,
    /// The integration step, s.
    h: f64,
    /// Conductance of each drive, S.
    conductances: Vec<f64>,
    /// Row-major `[A F; E G]`, padded to `BLOCK`: the state rows, then
    /// one row per drive summing its node's voltage over the steps.
    map: Vec<f64>,
    /// `(x, r)`: the present state, then the rail voltages.
    input: Vec<f64>,
    /// `(x⁺, s)` of the last advance.
    output: Vec<f64>,
    /// Charge out of each rail over the last advance, C.
    charges: Vec<f64>,
}

impl Propagator {
    /// Voltage of a node (0 = ground ⇒ 0.0).
    #[cfg(test)]
    pub(crate) fn voltage(&self, node: usize) -> f64 {
        if node == 0 {
            0.0
        } else {
            self.input[node - 1]
        }
    }

    /// Sets the rail voltage of drive `index` (takes effect next advance).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub(crate) fn set_rail(&mut self, index: usize, volts: f64) {
        let rails = self.charges.len();
        self.input[self.states..self.states + rails][index] = volts;
    }

    /// Charge that flowed *out of the rail* into the circuit through
    /// drive `index` over the last [`advance`](Propagator::advance), C
    /// (0 before the first): the sum of
    /// [`Transient::drive_current`] `· h` over its steps.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub(crate) fn drive_charge(&self, index: usize) -> f64 {
        self.charges[index]
    }

    /// Advances the state by the propagator's backward-Euler steps at the
    /// present rail voltages.
    pub(crate) fn advance(&mut self) {
        // `BLOCK` rows at a time, each over `BLOCK` lanes summed in a
        // fixed order.
        let stride = self.input.len();
        let tile_rows = BLOCK * stride;
        for (out, rows) in self
            .output
            .chunks_exact_mut(BLOCK)
            .zip(self.map.chunks_exact(tile_rows))
        {
            let mut acc = [[0.0; BLOCK]; BLOCK];
            for (col, x) in self.input.chunks_exact(BLOCK).enumerate() {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let m = &rows[r * stride + col * BLOCK..][..BLOCK];
                    for ((o, &m), &x) in acc_row.iter_mut().zip(m).zip(x) {
                        *o += m * x;
                    }
                }
            }
            for (o, lanes) in out.iter_mut().zip(&acc) {
                *o = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            }
        }
        self.input[..self.states].copy_from_slice(&self.output[..self.states]);
        let held = self.steps as f64;
        for (k, charge) in self.charges.iter_mut().enumerate() {
            let (rail, sum) = (self.input[self.states + k], self.output[self.states + k]);
            *charge = self.conductances[k] * (held * rail - sum) * self.h;
        }
    }
}

/// Dense LU factors with partial pivoting.
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl LuFactors {
    /// Factors a dense row-major `n × n` matrix.
    pub(crate) fn factor(mut a: Vec<f64>, n: usize) -> Result<Self, CircuitError> {
        assert_eq!(a.len(), n * n, "matrix buffer size mismatch");
        let mut pivots = vec![0usize; n];
        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let val = a[row * n + col].abs();
                if val > pivot_val {
                    pivot_val = val;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(CircuitError::SingularMatrix { column: col });
            }
            pivots[col] = pivot_row;
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
            }
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                a[row * n + col] = factor;
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
            }
        }
        Ok(Self { n, lu: a, pivots })
    }

    /// Solves `A x = b` in place.
    // Index arithmetic mirrors the dense row-major LU layout; iterator
    // forms of the substitution loops obscure the triangular structure.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs size mismatch");
        for col in 0..n {
            b.swap(col, self.pivots[col]);
        }
        // Forward substitution (L has unit diagonal).
        for row in 1..n {
            let mut sum = b[row];
            for col in 0..row {
                sum -= self.lu[row * n + col] * b[col];
            }
            b[row] = sum;
        }
        // Backward substitution.
        for row in (0..n).rev() {
            let mut sum = b[row];
            for col in (row + 1)..n {
                sum -= self.lu[row * n + col] * b[col];
            }
            b[row] = sum / self.lu[row * n + row];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_small_system() {
        // [2 1; 1 3] x = [3; 5] ⇒ x = [0.8, 1.4].
        let lu = LuFactors::factor(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let mut b = vec![3.0, 5.0];
        lu.solve(&mut b);
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_pivots_on_zero_diagonal() {
        // [0 1; 1 0] requires pivoting.
        let lu = LuFactors::factor(vec![0.0, 1.0, 1.0, 0.0], 2).unwrap();
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![3.0, 2.0]);
    }

    #[test]
    fn lu_rejects_singular() {
        assert!(matches!(
            LuFactors::factor(vec![1.0, 1.0, 1.0, 1.0], 2),
            Err(CircuitError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // 1 kΩ drive into 1 pF: v(t) = 1 − exp(−t/τ), τ = 1 ns.
        let mut net = Netlist::new(1);
        net.capacitor(1, 0, 1e-12);
        net.drive(1, 1e-3, 1.0);
        let h = 1e-11; // τ/100
        let mut sim = net.transient(h).unwrap();
        let mut t = 0.0;
        for _ in 0..300 {
            sim.step();
            t += h;
            let expect = 1.0 - (-t / 1e-9).exp();
            assert!(
                (sim.voltage(1) - expect).abs() < 0.01,
                "t = {t:.2e}: {} vs {}",
                sim.voltage(1),
                expect
            );
        }
    }

    #[test]
    fn supply_charge_equals_c_times_v() {
        // Charging C from 0 to V draws Q = C·V from the rail regardless
        // of the resistance — the invariant the energy model relies on.
        let c = 50e-15;
        let mut net = Netlist::new(1);
        net.capacitor(1, 0, c);
        net.drive(1, 1.0 / 250.0, 1.0);
        let h = 1e-13;
        let mut sim = net.transient(h).unwrap();
        let mut charge = 0.0;
        for _ in 0..4000 {
            sim.step();
            charge += sim.drive_current(0) * h;
        }
        assert!((charge - c).abs() / c < 1e-3, "Q = {charge:.4e}");
    }

    #[test]
    fn coupled_caps_share_charge() {
        // Two nodes coupled by C_c: raising node 1 bumps node 2.
        let mut net = Netlist::new(2);
        net.capacitor(1, 0, 10e-15);
        net.capacitor(2, 0, 10e-15);
        net.capacitor(1, 2, 10e-15);
        net.drive(1, 1.0 / 100.0, 1.0);
        net.drive(2, 1e-9, 0.0); // weak hold at ground
        let mut sim = net.transient(1e-13).unwrap();
        let mut peak: f64 = 0.0;
        for _ in 0..500 {
            sim.step();
            peak = peak.max(sim.voltage(2));
        }
        assert!(peak > 0.2, "coupling bump = {peak}");
    }

    #[test]
    fn rail_switching_discharges_node() {
        let mut net = Netlist::new(1);
        net.capacitor(1, 0, 1e-12);
        let d = net.drive(1, 1e-3, 1.0);
        let mut sim = net.transient(1e-11).unwrap();
        for _ in 0..1000 {
            sim.step();
        }
        assert!(sim.voltage(1) > 0.999);
        sim.set_rail(d, 0.0);
        for _ in 0..1000 {
            sim.step();
        }
        assert!(sim.voltage(1) < 0.001);
    }

    #[test]
    fn transient_rejects_bad_step() {
        let net = Netlist::new(1);
        assert!(matches!(
            net.transient(0.0),
            Err(CircuitError::NonPositiveParameter { name: "h" })
        ));
    }

    #[test]
    fn floating_node_detected() {
        // A node with only a capacitor still has the C/h stamp, so make
        // one with nothing at all.
        let mut net = Netlist::new(2);
        net.drive(1, 1e-3, 1.0);
        // Node 2 left completely floating.
        assert!(matches!(
            net.transient(1e-12),
            Err(CircuitError::SingularMatrix { .. })
        ));
    }
}

#[cfg(test)]
mod rl_tests {
    use super::*;

    #[test]
    fn propagator_lands_where_single_steps_do() {
        // An RL–C ladder with two drives, the rails switched between
        // advances: voltages and drive charges must match the stepper.
        let mut net = Netlist::new(3);
        net.rl_branch(1, 2, 50.0, 2e-9);
        net.capacitor(1, 0, 20e-15);
        net.capacitor(2, 0, 30e-15);
        net.capacitor(2, 3, 10e-15);
        net.capacitor(3, 0, 25e-15);
        let a = net.drive(1, 1e-3, 0.0);
        let b = net.drive(3, 2e-3, 0.0);
        let h = 1e-12;
        let mut sim = net.transient(h).unwrap();
        let mut prop = sim.propagator(7);
        for (rail_a, rail_b) in [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)] {
            sim.set_rail(a, rail_a);
            sim.set_rail(b, rail_b);
            prop.set_rail(a, rail_a);
            prop.set_rail(b, rail_b);
            prop.advance();
            let mut charge = [0.0; 2];
            for _ in 0..7 {
                sim.step();
                charge[0] += sim.drive_current(a) * h;
                charge[1] += sim.drive_current(b) * h;
            }
            for node in 0..=3 {
                assert!((prop.voltage(node) - sim.voltage(node)).abs() < 1e-12);
            }
            for (d, q) in [(a, charge[0]), (b, charge[1])] {
                assert!((prop.drive_charge(d) - q).abs() <= 1e-12 * q.abs());
            }
        }
    }

    #[test]
    fn rl_branch_acts_as_resistor_at_dc() {
        // 1 V rail → RL branch (1 kΩ, 10 nH) → 1 kΩ to ground: after the
        // L/R time constant the divider sits at 1/3 and 2/3… with the
        // drive resistance the chain is 1k (drive) + 1k (RL) + 1k (R).
        let mut net = Netlist::new(2);
        let branch = net.rl_branch(1, 2, 1.0e3, 10.0e-9);
        net.resistor(2, 0, 1.0e3);
        net.drive(1, 1e-3, 1.0);
        let mut sim = net.transient(1e-11).unwrap();
        for _ in 0..20_000 {
            sim.step();
        }
        assert!((sim.voltage(1) - 2.0 / 3.0).abs() < 1e-4);
        assert!((sim.voltage(2) - 1.0 / 3.0).abs() < 1e-4);
        // Branch current = 1 V / 3 kΩ.
        assert!((sim.branch_current(branch) - 1.0 / 3.0e3).abs() < 1e-7);
    }

    #[test]
    fn rl_current_rises_with_the_analytic_time_constant() {
        // Series R–L from a stiff source: i(t) = (V/R)(1 − exp(−tR/L)).
        let (r, l) = (100.0, 1.0e-6); // τ = 10 ns
        let mut net = Netlist::new(1);
        let branch = net.rl_branch(1, 0, r, l);
        net.drive(1, 1.0e3, 1.0); // 1 mΩ source ≈ ideal
        let h = 1e-10;
        let mut sim = net.transient(h).unwrap();
        let mut t = 0.0;
        for _ in 0..400 {
            sim.step();
            t += h;
            let expect = 1.0 / r * (1.0 - (-t * r / l).exp());
            let got = sim.branch_current(branch);
            assert!(
                (got - expect).abs() < 0.02 / r,
                "t = {t:.2e}: i = {got:.5e}, expected {expect:.5e}"
            );
        }
    }

    #[test]
    fn zero_inductance_branch_equals_plain_resistor() {
        let mut rl = Netlist::new(1);
        rl.rl_branch(1, 0, 500.0, 0.0);
        rl.drive(1, 1e-3, 1.0);
        let mut a = rl.transient(1e-12).unwrap();

        let mut plain = Netlist::new(1);
        plain.resistor(1, 0, 500.0);
        plain.drive(1, 1e-3, 1.0);
        let mut b = plain.transient(1e-12).unwrap();

        for _ in 0..100 {
            a.step();
            b.step();
            assert!((a.voltage(1) - b.voltage(1)).abs() < 1e-12);
        }
    }

    #[test]
    fn lc_step_response_rings() {
        // Underdamped series R-L-C step response: the far node must
        // overshoot the rail and ring back - behaviour a pure RC network
        // can never show.
        let mut net = Netlist::new(2);
        net.rl_branch(1, 2, 0.5, 1e-9); // 0.5 ohm, 1 nH
        net.capacitor(2, 0, 1e-12); // Z0 = sqrt(L/C) ~ 31.6 ohm >> losses
        net.drive(1, 1.0, 1.0); // stiff 1 ohm source
        let mut sim = net.transient(1e-13).unwrap();
        let mut peak = f64::NEG_INFINITY;
        let mut dip_after_peak = f64::INFINITY;
        for _ in 0..80_000 {
            sim.step();
            let v2 = sim.voltage(2);
            if v2 > peak {
                peak = v2;
            } else {
                dip_after_peak = dip_after_peak.min(v2);
            }
        }
        assert!(peak > 1.2, "no overshoot: peak = {peak}");
        assert!(dip_after_peak < 0.9, "no ring-back: dip = {dip_after_peak}");
        // And it settles to the rail eventually.
        assert!((sim.voltage(2) - 1.0).abs() < 0.05);
    }
}
