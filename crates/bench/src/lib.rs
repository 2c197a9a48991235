//! # stegfs-bench
//!
//! The library half of the **`repro` binary**
//! (`cargo run -p stegfs-bench --bin repro --release`), which regenerates
//! every table and figure of the paper's evaluation as text tables (the
//! README's "Reproducing the paper" section describes the scaling) and
//! prints the two sweeps nothing else covers:
//!
//! * [`survival`] — write amplification vs survival under damage,
//!   metadata damage healed by the keyed scavenger, and the k-of-n
//!   boundary check behind `repro --survival --smoke`;
//! * [`attribution`] — where a request's latency goes, phase by phase, and
//!   the chrome-trace export of the same workload.
//!
//! `repro` only prints.  What a sweep must *guarantee* is asserted on its
//! result structs by this crate's own `#[test]`s, which `cargo test` runs.
//! Throughput and latency are measured by the gating benchmark under
//! `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod survival;
