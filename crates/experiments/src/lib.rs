//! # experiments — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation, a shared
//! synthesized [`dataset`], and the paired mechanism comparison behind
//! Tables 8 & 9. The `repro` binary prints any or all of them and writes
//! CSVs under `results/`.
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 | [`table1::table1`] |
//! | Fig. 1a/1b | [`fig1::fig1a`], [`fig1::fig1b`] |
//! | Fig. 2 | [`fig2::fig2`] |
//! | Fig. 3 | [`fig3::fig3`] |
//! | Table 3 | [`table3::table3`] |
//! | Fig. 6 | [`fig6::fig6`] |
//! | Table 4 | [`table4::table4`] |
//! | Table 5 | [`table5::table5`] |
//! | Fig. 7a/7b | [`fig7::fig7`] |
//! | Table 6 / 7 | [`table6::table6`], [`table6::table7`] |
//! | Fig. 10a/10b | [`fig7::fig10`] |
//! | Fig. 11 / 12 | [`fig11::fig11`], [`fig11::fig12`] |
//! | Table 8 / 9 | [`mechanism::table8`], [`mechanism::table9`] |
//! | ablations | [`ablation`] |
//! | validation | [`validate::run_validation`] (ground-truth gate) |
//!
//! (Figures 4, 5, 8 and 9 are explanatory diagrams; their *behaviour* is
//! implemented and tested in `tcp-sim` and `tapo` — see EXPERIMENTS.md.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod dataset;
pub mod engine;
pub mod fig1;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod mechanism;
pub mod output;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod validate;

pub use dataset::{Dataset, Scale, ServiceData};
pub use engine::Engine;
pub use mechanism::{run_comparison, Comparison, ComparisonScale};
pub use output::{Figure, Series, Table};
