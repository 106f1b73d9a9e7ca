//! Circuit-level validation of TSV low-power coding — the workspace's
//! substitute for the paper's Spectre simulations (Sec. 7).
//!
//! The paper validates the bit-to-TSV assignment with transient
//! simulations of "full 3π-RLC circuits of the TSV arrays", driven by
//! 22 nm predictive-technology drivers of strength six at 3 GHz, and
//! reports the overall power including drivers and leakage. This crate
//! rebuilds that flow:
//!
//! * [`mna`] — a small modified-nodal-analysis transient engine
//!   (resistors, capacitors, RL branches, backward-Euler companion
//!   models, dense LU), plus an exact propagator that takes a whole
//!   clock cycle of steps at once while the rails are held;
//! * [`DriverModel`] — a CMOS driver macromodel (switched pull-up/-down
//!   resistance, output capacitance, leakage current);
//! * [`TsvLink`] — an `n`-section π ladder built from a
//!   [`TsvRcNetlist`](tsv3d_model::TsvRcNetlist), simulated cycle by
//!   cycle for an arbitrary [`BitStream`](tsv3d_stats::BitStream), with
//!   exact supply-energy bookkeeping.
//!
//! The drivers are modelled with symmetric pull-up/pull-down resistance,
//! which keeps the MNA conductance matrix constant across data states —
//! the network is linear and time-invariant, and the rails only switch
//! at clock edges. One LU factorisation and one propagator build
//! therefore serve the whole stream, and each clock cycle is a single
//! dense matrix–vector product, so even long traces simulate in
//! milliseconds.
//!
//! # Examples
//!
//! ```
//! use tsv3d_circuit::{DriverModel, TsvLink};
//! use tsv3d_model::{Extractor, TsvArray, TsvGeometry, TsvRcNetlist};
//! use tsv3d_stats::BitStream;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let array = TsvArray::new(2, 2, TsvGeometry::itrs_2018_min())?;
//! let cap = Extractor::new(array.clone()).extract(&[0.5; 4])?;
//! let net = TsvRcNetlist::from_extraction(&array, cap);
//! let link = TsvLink::new(net, DriverModel::ptm_22nm_strength6())?;
//! let stream = BitStream::from_words(4, vec![0b0000, 0b1111, 0b0000, 0b1111])?;
//! let report = link.simulate(&stream, 3.0e9)?;
//! assert!(report.total_energy() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod link;
pub mod mna;

pub use driver::DriverModel;
pub use error::CircuitError;
pub use link::{EnergyReport, TsvLink};
