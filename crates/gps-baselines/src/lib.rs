//! Baseline streaming triangle estimators the paper compares against (§6,
//! Tables 2–3):
//!
//! - [`triest::TriestBase`] / [`triest::TriestImpr`] — reservoir-based
//!   estimators of De Stefani, Epasto, Riondato & Upfal (KDD 2016),
//!   insertion-only variants.
//! - [`mascot::Mascot`] / [`mascot::MascotC`] — Bernoulli edge sampling of
//!   Lim & Kang (KDD 2015), unconditional and conditional counting.
//! - [`nsamp::NSamp`] / [`nsamp_bulk::NSampBulk`] — neighborhood sampling of
//!   Pavan, Tangwongsan, Tirthapura & Wu (VLDB 2013), `r` independent
//!   estimators; the bulk variant implements the indexing/skipping that the
//!   paper says NSAMP needs to be practical.
//! - [`jha::JhaWedgeSampler`] — wedge sampling of Jha, Seshadhri & Pinar
//!   (KDD 2013), the transitivity estimator the paper also compared against.
//! - [`uniform_reservoir::UniformReservoir`] — plain uniform edge reservoir
//!   with post-hoc Horvitz–Thompson scaling (the natural "no weighting, no
//!   in-stream logic" strawman).
//!
//! All baselines implement [`TriangleEstimator`] so the experiment harness
//! can drive them interchangeably alongside GPS.
//!
//! The store-based baselines (TRIEST, MASCOT, JHA, uniform reservoir) keep
//! their sampled topology in [`common::EdgeSampleStore`], which holds the
//! same `gps_graph::CompactAdjacency` as `GpsSampler` — so Table 2/3
//! comparisons measure algorithms, not data structures. NSAMP keeps no
//! adjacency at all (at most two edges per
//! [`common::NeighborhoodEstimator`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod jha;
pub mod mascot;
pub mod nsamp;
pub mod nsamp_bulk;
pub mod triest;
pub mod uniform_reservoir;

pub use common::TriangleEstimator;
pub use jha::JhaWedgeSampler;
pub use mascot::{Mascot, MascotC};
pub use nsamp::NSamp;
pub use nsamp_bulk::NSampBulk;
pub use triest::{TriestBase, TriestImpr};
pub use uniform_reservoir::UniformReservoir;
