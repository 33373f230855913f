//! # procdb-workload
//!
//! Workload generation and simulation driving for the `procdb`
//! reproduction of Hanson (SIGMOD 1988):
//!
//! * [`config::SimConfig`] — concrete database sizes derived from the
//!   paper's parameters, with laptop-scale shrinking;
//! * [`database`] — builds `R1` (clustered B-tree), `R2`, `R3` (hash
//!   files) with the key distributions the model's expectations assume;
//! * [`procedures`] — the `N1 + N2` procedure population with sharing
//!   factor `SF`;
//! * [`stream`] — interleaved access/update operation streams with update
//!   probability `P` and locality skew `Z`;
//! * [`sim`] — runs a stream against every strategy and prices the
//!   observed work with the paper's constants, next to the analytical
//!   prediction for the same parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod database;
pub mod procedures;
pub mod sim;
pub mod stream;

pub use config::SimConfig;
pub use database::build_database;
pub use procedures::{generate_procedures, Population};
pub use sim::{
    analytic_prediction, run_all_strategies, run_all_strategies_parallel, run_strategy,
    run_strategy_with_buffer, sim_pager, SimOutcome,
};
pub use stream::{generate_stream, Op, StreamSpec};
