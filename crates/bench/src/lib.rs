//! # neurofail-bench
//!
//! The experiment harness: one library function (and one thin binary) per
//! paper artefact, as indexed in DESIGN.md §4 (E1–E15). Each experiment
//! prints its table/series to stdout and writes a CSV under
//! `target/experiments/`; EXPERIMENTS.md records the paper-claim versus
//! measured outcome for every ID.
//!
//! Run everything with `cargo run --release -p neurofail-bench --bin
//! run_all`, or individual experiments via their binaries (`fig3_...`,
//! `thm1_...`, …). The engines' performance is measured by the separate
//! `perfbench/` harness (see `BENCHMARK.json`), not by this crate.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod zoo;

pub use report::{f, Reporter};
