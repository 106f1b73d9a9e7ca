//! End-to-end benchmark of the tsv3d flow.
//!
//! One item takes a generated stream through switching statistics, the
//! linear `C(p)` model, the assignment search and, on one workload, the
//! circuit simulation, and checks the result. Four workloads each make
//! a different layer the bottleneck; see `README.md` in this directory.

pub mod host;
pub mod item;
pub mod metrics;
pub mod pass;
pub mod reference;
pub mod trace;
pub mod verify;
pub mod workload;
