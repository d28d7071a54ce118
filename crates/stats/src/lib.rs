//! # voronet-stats
//!
//! Statistics toolkit backing the VoroNet evaluation: exact integer
//! histograms (degree distributions, Figure 5), online moment accumulators,
//! percentiles, least-squares fitting (the Figure 7 slope) and labelled data
//! series with CSV export for every figure.

#![warn(missing_docs)]

pub mod histogram;
pub mod regression;
pub mod series;
pub mod summary;

pub use histogram::{FixedHistogram, IntHistogram};
pub use regression::{fit_loglog_exponent, linear_fit, LinearFit};
pub use series::{series_to_csv, series_to_table, Series};
pub use summary::{mean, nearest_rank, p999, percentile, tail_summary, OnlineStats, TailSummary};
