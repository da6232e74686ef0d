//! Layered edit-latency benchmark for the `rulem` debug server.
//!
//! One process starts `em_server::serve` in-process, drives it over TCP
//! with closed-loop clients that wait for every reply, checks the final
//! verdicts against a fresh full run, and prints every metric by name
//! with its unit. See `editbench/README.md` for the workloads and the
//! metrics.

pub mod host;
pub mod model;
pub mod run;
pub mod setup;
pub mod stats;
pub mod wire;
