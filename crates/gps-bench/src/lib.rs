//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment is a library function returning render-ready
//! [`gps_stats::Table`]s, so the `src/bin/*` binaries stay thin and the
//! integration tests can exercise the full pipelines at reduced scale. The
//! mapping to the paper:
//!
//! | paper artifact | function | binary |
//! |----------------|----------|--------|
//! | Table 1 (post vs in-stream accuracy + CIs) | [`experiments::table1`] | `table1` |
//! | Table 2 (baseline ARE + update time) | [`experiments::table2`] | `table2` |
//! | Table 3 (MARE of estimates vs time) | [`experiments::table3`] | `table3` |
//! | Figure 1 (x̂/x scatter, triangles vs wedges) | [`experiments::fig1`] | `fig1` |
//! | Figure 2 (CI convergence vs sample size) | [`experiments::fig2`] | `fig2` |
//! | Figure 3 (real-time tracking with CIs) | [`experiments::fig3`] | `fig3` |
//! | §3.5 weight ablation (not a numbered figure) | [`experiments::ablation`] | `ablation` |
//! | §6 update-cost claim ("a few μs per edge") | [`perf::run_all`] | `bench_baseline` |
//!
//! `bench_baseline` persists the update-throughput numbers as a committed
//! JSON trajectory (`BENCH_PR2.json`) that CI gates against; see [`perf`]
//! and [`json`].
//!
//! Scale, seed and output directory come from CLI flags / environment; see
//! [`config::Config`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapters;
pub mod config;
pub mod experiments;
pub mod json;
pub mod perf;
pub mod truth;
