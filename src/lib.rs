//! Facade crate for the *Emergent Structure in Unstructured Epidemic
//! Multicast* (DSN 2007) reproduction: re-exports every workspace crate
//! under one roof and hosts the runnable examples and cross-crate tests.
//!
//! Start from [`workload::Scenario`] for whole experiments, or from
//! [`core`] ([`egm_core`]) to embed the protocol directly.
//!
//! # Examples
//!
//! ```
//! use emergent_multicast::core::StrategySpec;
//! use emergent_multicast::workload::Scenario;
//!
//! let report = Scenario::smoke_test()
//!     .with_strategy(StrategySpec::Ttl { u: 2 })
//!     .run()
//!     .report;
//! assert!(report.mean_delivery_fraction > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use egm_core as core;
pub use egm_membership as membership;
pub use egm_metrics as metrics;
pub use egm_rng as rng;
pub use egm_simnet as simnet;
pub use egm_topology as topology;
pub use egm_workload as workload;

/// Compiles and runs the README's code blocks (the Quickstart snippet)
/// as doctests, so the front-door documentation can never rot: `cargo
/// test --doc` executes exactly what the README shows.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
