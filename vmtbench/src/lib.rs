//! End-to-end and per-layer benchmark of the VMT simulator.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read the layer ledger.

mod episode;
mod host;
mod layers;
mod run;
mod spans;
mod workload;

pub use run::{measure, trace, Outcome, END_TO_END, PER_LAYER};
pub use workload::{Spec, Workload, DEFAULT_SEED, HELD_OUT_SEED};
