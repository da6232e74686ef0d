//! # em-cli
//!
//! An interactive REPL for debugging rule-based entity-matching sessions —
//! the "full system" integration the paper's conclusion points at. The
//! binary is called `rulem`:
//!
//! ```text
//! $ rulem --demo products --scale 0.05
//! rulem — interactive entity-matching debugger
//! 128 × 1104 records, 10967 candidate pairs. Type `help`.
//! > add jaccard_ws(title, title) >= 0.6
//! added rule r0: +71 / -0 verdicts, 10967 pairs examined, 112.3ms
//! > quality
//! P = 0.876  R = 0.934  F1 = 0.904  (tp 71 fp 10 fn 5 tn 10881)
//! > set p0 0.75
//! set p0 to 0.75: +0 / -13 verdicts, 71 pairs examined, 305µs
//! ```
//!
//! Commands parse with the shared grammar ([`em_core::command`]) and run
//! through [`app`], stdout-free library code; the binary is a thin loop.

pub mod app;

pub use app::{App, AppError};
