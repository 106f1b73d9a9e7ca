//! Interchange formats: capacitance-matrix CSV and SPICE netlist
//! export.
//!
//! The extractor in this crate is a substitute for a commercial field
//! solver; teams with access to Q3D (or measured data) can import their
//! own matrices through [`matrix_from_csv`] and run the exact same
//! assignment flow. In the other direction, [`to_spice`] emits the
//! link's RLC ladder as a SPICE subcircuit so the assignment result can
//! be validated in any external circuit simulator — the workspace's
//! equivalent of the paper's Spectre hand-off.

use crate::{ModelError, TsvRcNetlist};
use std::fmt::Write as _;
use tsv3d_matrix::Matrix;

/// Serialises a capacitance matrix to CSV (plain numbers, row per
/// line, full precision).
///
/// # Examples
///
/// ```
/// use tsv3d_matrix::Matrix;
/// use tsv3d_model::io;
///
/// let m = Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 2.0]]);
/// let csv = io::matrix_to_csv(&m);
/// assert_eq!(io::matrix_from_csv(&csv).unwrap(), m);
/// ```
pub fn matrix_to_csv(matrix: &Matrix) -> String {
    let n = matrix.n();
    let mut out = String::new();
    for i in 0..n {
        for j in 0..n {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{:e}", matrix[(i, j)]);
        }
        out.push('\n');
    }
    out
}

/// Parses a capacitance matrix from CSV (as produced by
/// [`matrix_to_csv`], or exported from a field solver).
///
/// # Errors
///
/// [`ModelError::MatrixParse`] when the input is not a square numeric
/// matrix, or when a cell is `NaN` or infinite (which Rust's float
/// parser accepts). Negative entries are legal: `ΔC` has them.
pub fn matrix_from_csv(csv: &str) -> Result<Matrix, ModelError> {
    let rows: Vec<Vec<f64>> = csv
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(|(i, line)| {
            line.split(',')
                .map(str::trim)
                .enumerate()
                .map(|(j, cell)| match cell.parse::<f64>() {
                    Ok(value) if value.is_finite() => Ok(value),
                    Ok(_) => Err(ModelError::MatrixParse {
                        detail: format!("cell ({i}, {j}) `{cell}` is not finite"),
                    }),
                    Err(_) => Err(ModelError::MatrixParse {
                        detail: format!("cannot parse `{cell}` as a number"),
                    }),
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let n = rows.len();
    if n == 0 {
        return Err(ModelError::MatrixParse {
            detail: "empty input".to_string(),
        });
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != n {
            return Err(ModelError::MatrixParse {
                detail: format!("row {i} has {} cells, expected {n}", row.len()),
            });
        }
    }
    Ok(Matrix::from_fn(n, |i, j| rows[i][j]))
}

/// Emits the TSV link as a SPICE subcircuit.
///
/// Ports are `IN<i>` (driver side) and `OUT<i>` (receiver side) for
/// each via, plus the global `0` ground. Each via becomes a
/// `sections`-segment RLC ladder; coupling and ground capacitances are
/// distributed across the ladder levels exactly as in the internal
/// simulator, so external SPICE runs reproduce the same network.
///
/// # Panics
///
/// Panics if `sections` is zero.
///
/// # Examples
///
/// ```
/// use tsv3d_model::{io, Extractor, TsvArray, TsvGeometry, TsvRcNetlist};
///
/// # fn main() -> Result<(), tsv3d_model::ModelError> {
/// let array = TsvArray::new(2, 2, TsvGeometry::itrs_2018_min())?;
/// let cap = Extractor::new(array.clone()).extract(&[0.5; 4])?;
/// let net = TsvRcNetlist::from_extraction(&array, cap);
/// let spice = io::to_spice(&net, "tsv_bundle", 3);
/// assert!(spice.starts_with(".SUBCKT tsv_bundle"));
/// assert!(spice.contains(".ENDS"));
/// # Ok(())
/// # }
/// ```
pub fn to_spice(netlist: &TsvRcNetlist, name: &str, sections: usize) -> String {
    assert!(sections > 0, "at least one ladder section is required");
    let n = netlist.len();
    let levels = sections + 1;
    let cap = netlist.capacitance();

    // Internal node name of via `i`, ladder level `l`.
    let node = |i: usize, l: usize| -> String {
        if l == 0 {
            format!("IN{i}")
        } else if l == sections {
            format!("OUT{i}")
        } else {
            format!("N{i}_{l}")
        }
    };

    let mut out = String::new();
    let _ = write!(out, ".SUBCKT {name}");
    for i in 0..n {
        let _ = write!(out, " IN{i}");
    }
    for i in 0..n {
        let _ = write!(out, " OUT{i}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "* TSV bundle: {n} vias, {sections}-section RLC ladders");

    let mut r_id = 0usize;
    let mut l_id = 0usize;
    let mut c_id = 0usize;
    for i in 0..n {
        let r_sec = netlist.series_resistance(i) / sections as f64;
        let l_sec = netlist.series_inductance(i) / sections as f64;
        for s in 0..sections {
            // Series R then L per segment through an intermediate node.
            let mid = format!("M{i}_{s}");
            let _ = writeln!(out, "R{r_id} {} {mid} {r_sec:.6e}", node(i, s));
            let _ = writeln!(out, "L{l_id} {mid} {} {l_sec:.6e}", node(i, s + 1));
            r_id += 1;
            l_id += 1;
        }
        for l in 0..levels {
            let _ = writeln!(
                out,
                "C{c_id} {} 0 {:.6e}",
                node(i, l),
                cap[(i, i)] / levels as f64
            );
            c_id += 1;
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            for l in 0..levels {
                let _ = writeln!(
                    out,
                    "C{c_id} {} {} {:.6e}",
                    node(i, l),
                    node(j, l),
                    cap[(i, j)] / levels as f64
                );
                c_id += 1;
            }
        }
    }
    let _ = writeln!(out, ".ENDS {name}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Extractor, TsvArray, TsvGeometry};

    fn netlist() -> TsvRcNetlist {
        let array = TsvArray::new(2, 2, TsvGeometry::itrs_2018_min()).expect("array");
        let cap = Extractor::new(array.clone()).extract(&[0.5; 4]).expect("extract");
        TsvRcNetlist::from_extraction(&array, cap)
    }

    #[test]
    fn matrix_csv_round_trips() {
        let m = Matrix::from_fn(5, |i, j| (i * 7 + j) as f64 * 1.3e-15);
        let back = matrix_from_csv(&matrix_to_csv(&m)).unwrap();
        for (i, j, v) in m.entries() {
            assert!((back[(i, j)] - v).abs() < 1e-25);
        }
    }

    #[test]
    fn csv_parse_errors_are_descriptive() {
        assert!(matches!(
            matrix_from_csv(""),
            Err(ModelError::MatrixParse { .. })
        ));
        let e = matrix_from_csv("1,2\n3").unwrap_err();
        assert!(e.to_string().contains("row 1"));
        let e = matrix_from_csv("1,x\n3,4").unwrap_err();
        assert!(e.to_string().contains("`x`"));
    }

    #[test]
    fn csv_rejects_non_finite_cells() {
        for cell in ["NaN", "inf", "-inf"] {
            let e = matrix_from_csv(&format!("1,-2e-16\n-2e-16, {cell} \n")).unwrap_err();
            assert!(matches!(e, ModelError::MatrixParse { .. }), "{cell}");
            let message = e.to_string();
            assert!(message.contains(&format!("cell (1, 1) `{cell}`")), "{message}");
        }
        // Negative entries (ΔC) stay legal.
        let m = matrix_from_csv("1,-2e-16\n-2e-16,3").unwrap();
        assert_eq!(m[(0, 1)], -2e-16);
    }

    #[test]
    fn csv_accepts_blank_lines_and_whitespace() {
        let m = matrix_from_csv("\n 1 , 2 \n\n 3 , 4 \n").unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn spice_deck_has_all_elements() {
        let spice = to_spice(&netlist(), "bundle", 3);
        // 4 vias × 3 segments of R and L.
        assert_eq!(spice.matches("\nR").count(), 12);
        assert_eq!(spice.matches("\nL").count(), 12);
        // Ground caps: 4 vias × 4 levels; couplings: 6 pairs × 4 levels.
        assert_eq!(spice.matches("\nC").count(), 16 + 24);
        assert!(spice.contains("IN0") && spice.contains("OUT3"));
        assert!(spice.trim_end().ends_with(".ENDS bundle"));
    }

    #[test]
    fn spice_values_are_finite_and_positive() {
        let spice = to_spice(&netlist(), "b", 2);
        for line in spice.lines() {
            if let Some(value) = line.split_whitespace().last() {
                if line.starts_with(['R', 'L', 'C']) {
                    let v: f64 = value.parse().expect("numeric element value");
                    assert!(v > 0.0 && v.is_finite(), "{line}");
                }
            }
        }
    }

    #[test]
    fn single_section_ladder_connects_in_to_out() {
        let spice = to_spice(&netlist(), "b", 1);
        assert!(spice.contains("R0 IN0 M0_0"));
        assert!(spice.contains("L0 M0_0 OUT0"));
    }
}
