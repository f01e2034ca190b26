//! Statistical estimation of the optimal task assignment on multithreaded
//! processors.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Optimal Task Assignment in Multithreaded Processors: A Statistical
//! Approach"* (ASPLOS 2012): given any workload on any machine with
//! multiple levels of resource sharing, it
//!
//! 1. quantifies the assignment space ([`space`] — the paper's Table 1);
//! 2. computes the probability that `n` random assignments capture one of
//!    the top `P%` ([`probability`] — Figure 2);
//! 3. draws iid random assignments the way the paper prescribes
//!    ([`sampling`]);
//! 4. measures them through a [`model::PerformanceModel`] (cycle-accurate
//!    simulation, an analytic predictor, or anything else);
//! 5. estimates the **optimal system performance** (Upper Performance
//!    Bound) with a confidence interval using Extreme Value Theory
//!    ([`study`], wrapping the `optassign-evt` crate — Figures 6–7, 11–12);
//! 6. runs the paper's iterative algorithm that keeps sampling until the
//!    best observed assignment is provably within `X%` of the optimum
//!    ([`iterative`] — Figures 13–14).
//!
//! Baselines from the paper's motivation (naive/random and Linux-like
//! balanced assignment, Figure 1) live in [`schedulers`], together with
//! best-of-sample and a greedy local-search comparator. The [`selection`]
//! module applies the same statistics to the *workload selection* problem
//! on single-sharing-level processors (the paper's §6 discussion).
//!
//! # Quickstart
//!
//! ```
//! use optassign::model::{PerformanceModel, SimModel};
//! use optassign::study::SampleStudy;
//! use optassign_netapps::Benchmark;
//! use optassign_sim::MachineConfig;
//!
//! // 2 instances (6 threads) of IPFwd on the T2-like machine.
//! let machine = MachineConfig::ultrasparc_t2();
//! let workload = Benchmark::IpFwdL1.build_workload(2, 42);
//! let model = SimModel::new(machine, workload).with_windows(5_000, 20_000);
//!
//! // Measure 150 random assignments (small for doc-test speed; the paper
//! // uses 1000-5000) and look at the best one.
//! let study = SampleStudy::run(&model, 150, 9).unwrap();
//! assert_eq!(study.performances().len(), 150);
//! assert!(study.best_performance() > 0.0);
//! ```

pub mod assignment;
pub mod fault;
pub mod iterative;
mod measure;
pub mod model;
pub mod persist;
pub mod probability;
pub mod sampling;
pub mod schedulers;
pub mod selection;
pub mod space;
pub mod study;

pub use assignment::Assignment;
pub use model::PerformanceModel;
pub use optassign_exec::{split_seed, Parallelism};
pub use optassign_sim::Topology;

/// Errors produced by the assignment-analysis routines.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// More tasks than hardware contexts, or other impossible geometry.
    Infeasible(String),
    /// A parameter was outside its domain.
    Domain(String),
    /// The underlying EVT estimation failed.
    Evt(optassign_evt::EvtError),
    /// The underlying simulation failed.
    Sim(optassign_sim::SimError),
    /// A measurement failed and the configured retry budget could not
    /// recover it.
    Measurement(model::MeasureError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Infeasible(msg) => write!(f, "infeasible: {msg}"),
            CoreError::Domain(msg) => write!(f, "domain error: {msg}"),
            CoreError::Evt(e) => write!(f, "evt estimation failed: {e}"),
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
            CoreError::Measurement(e) => write!(f, "measurement failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Evt(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Measurement(e) => Some(e),
            _ => None,
        }
    }
}

impl From<model::MeasureError> for CoreError {
    fn from(e: model::MeasureError) -> Self {
        CoreError::Measurement(e)
    }
}

impl From<optassign_evt::EvtError> for CoreError {
    fn from(e: optassign_evt::EvtError) -> Self {
        CoreError::Evt(e)
    }
}

impl From<optassign_sim::SimError> for CoreError {
    fn from(e: optassign_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}
