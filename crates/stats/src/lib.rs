//! Hand-rolled statistical building blocks for the `optassign` workspace.
//!
//! The ASPLOS 2012 paper this workspace reproduces performed its statistical
//! analysis in Matlab R2007a (`fminsearch`, χ² quantiles, likelihood fitting).
//! No mature EVT or scientific-computing crates are available in this build
//! environment, so this crate provides the required numerics from scratch:
//!
//! * [`special`] — log-gamma, regularized incomplete gamma, and error
//!   functions with double-precision accuracy.
//! * [`chi2`] — χ² cumulative distribution and quantile function (needed for
//!   Wilks'-theorem confidence intervals).
//! * [`neldermead`] — a derivative-free Nelder–Mead simplex minimizer, the
//!   same algorithm family as Matlab's `fminsearch`.
//! * [`descriptive`] — means, variances, quantiles and order statistics.
//! * [`ecdf`] — empirical cumulative distribution functions (paper §3.2).
//! * [`linreg`] — ordinary least squares over `(x, y)` points, used to judge
//!   the linearity of sample mean-excess plots when selecting a threshold.
//! * [`ubig`] — arbitrary-precision unsigned integers for assignment-space
//!   counting (Table 1 of the paper needs values around 10⁵⁸).
//! * [`rng`] — deterministic splitmix64/xoshiro256** pseudo-random
//!   generators (the workspace builds with no registry access, so the
//!   `rand` crate is replaced in-repo).
//!
//! # Examples
//!
//! ```
//! use optassign_stats::chi2;
//!
//! // The 0.95 quantile of χ² with one degree of freedom, used by the paper's
//! // Equation (1) for the UPB confidence interval.
//! let q = chi2::quantile(0.95, 1.0).unwrap();
//! assert!((q - 3.8414588).abs() < 1e-5);
//! ```

pub mod chi2;
pub mod descriptive;
pub mod ecdf;
pub mod error;
pub mod linreg;
pub mod neldermead;
pub mod rng;
pub mod special;
pub mod ubig;

pub use error::StatsError;
