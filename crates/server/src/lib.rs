//! `em_server`: the interactive debug loop, served over the network.
//!
//! The paper's debugger is a single-analyst REPL; this crate turns it
//! into a small concurrent server so several analysts (or a load
//! harness) can each drive their *own* named debugging session over the
//! same dataset:
//!
//! * [`proto`] — the line-oriented wire protocol: one request per line
//!   (the shared [`em_core::command`] grammar plus session-control
//!   verbs), length-prefixed framed responses carrying porcelain JSON;
//! * [`manager`] — the [`SessionManager`](manager::SessionManager):
//!   named [`SessionStore`](em_core::SessionStore)-backed sessions
//!   behind per-session locks, LRU eviction-to-snapshot, and lazy
//!   journal-replay recovery on `attach`;
//! * [`exec`] — grammar commands run by the shared executor
//!   ([`em_core::command::execute`]) and rendered as porcelain JSON
//!   ([`em_core::porcelain::render`]); file-path verbs are refused;
//! * [`server`] — accept loop, admission control (connection cap with
//!   fast `busy` refusal), and the per-command disconnect watchdog that
//!   cancels an edit whose client vanished;
//! * [`obs`] — pre-registered server instruments in the process-global
//!   [`em_metrics`] registry: per-verb latency histograms, typed error
//!   counters, connection/eviction/replication telemetry;
//! * [`client`] — a minimal blocking client ( `rulem connect`, tests);
//! * [`load`] — a closed-loop multi-client load generator reporting
//!   p50/p95/p99 edit latency and edits/sec.
//!
//! Durability composes with the PR 4 store: every session a server
//! creates under `--store-root` survives a SIGKILL of the whole process
//! and is recovered lazily on the next `attach` after restart.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod error;
pub mod exec;
pub mod load;
pub mod manager;
pub mod obs;
pub mod proto;
pub mod replica;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionQueue, AdmissionSnapshot, RateLimit};
pub use client::{Client, ClientError, ResilienceStats, ResilientClient, RetryPolicy, Timeouts};
pub use error::ServerError;
pub use load::{run_load, LoadReport};
pub use manager::{AttachInfo, Role, SessionManager, SessionTemplate};
pub use proto::{parse_request, read_frame, write_frame, Request, MAX_FRAME, MAX_LINE};
pub use replica::{FollowerOpts, Replicator};
pub use server::{serve, ServerConfig, ServerHandle};
