//! Experiment harness: scenarios, traffic, faults, calibration, and the
//! paper's figure experiments.
//!
//! One [`Scenario`] describes a full experiment run — topology, protocol
//! parameters, strategy, monitor, noise, fault plan and workload — and
//! [`Scenario::run`] executes it deterministically, producing a
//! [`runner::RunOutcome`] whose [`report`](runner::RunOutcome::report) is
//! one figure point. The [`experiments`] module then sweeps scenarios to
//! regenerate every figure of the paper's evaluation (Fig. 4, 5(a–c),
//! 6(a–c)) plus the §5.1 network-model statistics.
//!
//! Besides that cold convenience the [`runner`] has exactly four entry
//! points: [`runner::prepare`] computes a reusable setup (model, ranking,
//! views), [`runner::run_prepared`] and [`runner::run_prepared_observed`]
//! run over it, and [`runner::run_sweep`] runs a batch. Two outcomes of
//! one scenario agree when [`runner::RunOutcome::first_difference`] says
//! `None`; every determinism test and gate uses that one comparison.
//!
//! Sweeps execute through [`runner::run_sweep`], which fans independent
//! scenario runs across all cores and returns results in input order,
//! byte-identical to sequential execution (every run forks its full RNG
//! tree from its own seed), sharing one [`runner::RunSetup`] — model,
//! ranked best set, bootstrapped views — across scenarios whose setup
//! inputs coincide. `RAYON_NUM_THREADS` caps the parallelism;
//! `EGM_SCALE=paper` switches experiments from the reduced quick scale to
//! the paper's full 100-node × 400-message configuration (see
//! [`experiments::Scale`]).
//!
//! Strategies that need a best set select *how* it is ranked via
//! [`Scenario::rank_source`] ([`egm_core::RankSource`]): the exact O(n²)
//! oracle for the paper-scale figures, or the decentralized gossip-sorted
//! ranking the 1k–10k [`experiments::scale`] presets use.
//!
//! Heavy-traffic runs opt into the [`arrival`] axis
//! ([`Scenario::arrival`]): open-loop Poisson arrivals at a fixed offered
//! rate in place of the uniform-gap plan. Every run, on either plan,
//! feeds the publish→delivery latency histogram and steady-state
//! throughput block in [`runner::RunOutcome`].
//!
//! # Examples
//!
//! ```
//! use egm_core::StrategySpec;
//! use egm_workload::Scenario;
//!
//! let scenario = Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 1.0 });
//! let outcome = scenario.run();
//! assert!(outcome.report.mean_delivery_fraction > 0.9);
//! // Runs are deterministic: a rerun agrees on every compared field.
//! assert_eq!(outcome.first_difference(&scenario.run()), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod calibrate;
pub mod experiments;
pub mod faults;
pub mod runner;
pub mod scenario;
pub mod traffic;

pub use arrival::{Arrival, ArrivalProcess, SteadyState};
pub use egm_simnet::Fault;
pub use faults::{
    ChurnPlan, FaultPlan, FaultScenarioKind, FaultSchedule, FaultSelection, RerankPlan, TimedFault,
};
pub use scenario::{NoiseConfig, Scenario, TopologySource};
