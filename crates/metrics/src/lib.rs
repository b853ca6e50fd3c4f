//! Measurement substrate for the reproduction.
//!
//! The paper's methodology (§5.3–§5.4) logs every multicast and delivery,
//! records payload transmissions per link, and reports means whose 95 %
//! confidence intervals do not intersect before claiming a difference.
//! This crate provides those tools:
//!
//! * [`Summary`] — mean / standard deviation / CI95 / percentiles.
//! * [`LatencyHistogram`] — log-bucketed O(1)-memory histogram with
//!   deterministic quantiles and order-independent merging, for
//!   sustained-load tail latency (p50/p99/p999).
//! * [`DeliveryLog`] — multicast/delivery records yielding end-to-end
//!   latency and reliability (mean deliveries %, Fig. 5(b)).
//! * [`link`] — emergent-structure measures over per-link payload counts:
//!   the share of traffic carried by the top-k % connections (Fig. 4,
//!   Fig. 6(c)).
//! * [`RunReport`] — the serializable result of one experiment run.
//! * [`Table`] — plain-text tables for the bench harnesses.
//!
//! # Examples
//!
//! ```
//! use egm_metrics::Summary;
//!
//! let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! assert!(s.ci95_half > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod latency;
pub mod link;
pub mod report;
pub mod summary;
pub mod table;

pub use delivery::{Delivery, DeliveryLog};
pub use latency::LatencyHistogram;
pub use report::RunReport;
pub use summary::Summary;
pub use table::Table;
