//! The clam-rs benchmark: four closed-loop workloads over Unix-domain
//! sockets on one host, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md` for the
//! workloads, the metrics and how to run it.

pub mod floors;
pub mod harness;
pub mod inputs;
pub mod procfs;
pub mod run;
pub mod spans;
pub mod stats;
pub mod subrun;
pub mod workloads;

pub use run::{run, Options, Outcome};
pub use workloads::Workload;
