//! # stegfs-sim
//!
//! Workload generation, multi-user request interleaving and the experiment
//! drivers that regenerate every table and figure of the StegFS paper's
//! evaluation (Section 5).
//!
//! The crate glues the other pieces together: schemes under test
//! ([`schemes::SchemeKind`] — StegFS plus the four comparison points of
//! Table 4) run over the same in-memory volume wrapped in the mechanical disk
//! timing model from `stegfs-blockdev`, driven by workloads described by
//! [`workload::WorkloadParams`] (Table 3).  The timing experiments report
//! *simulated* disk service time, so absolute numbers depend only on the disk
//! model parameters (Table 2), not on the host machine.
//!
//! Entry points:
//!
//! * [`experiments::figure6`] — StegRand effective space utilization vs
//!   replication factor.
//! * [`experiments::figure7`] — read/write access time vs number of
//!   concurrent users.
//! * [`experiments::figure8`] — normalized access time vs file size.
//! * [`experiments::figure9`] — serial access time vs block size.
//! * [`experiments::space_summary`] — the §5.2 utilization comparison.
//! * [`experiments::tables`] — Tables 1–4 (parameter/notation tables).
//!
//! The `stegfs-bench` crate exposes all of these through the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod report;
pub mod schemes;
pub mod workload;

pub use driver::{AccessResult, Operation};
pub use schemes::SchemeKind;
pub use workload::{AccessPattern, FileSpec, WorkloadParams};
