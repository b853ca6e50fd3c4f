//! The serializable result of one experiment run.

use crate::summary::Summary;

/// Aggregated results of one simulated experiment — one point in the
//  paper's figures.
///
/// All fields are public: this is a passive record produced by the
/// `egm-workload` runner and consumed by the figure harnesses.
///
/// # Examples
///
/// ```
/// use egm_metrics::{RunReport, Summary};
///
/// let report = RunReport {
///     label: "flat pi=0.5".into(),
///     nodes: 100,
///     messages: 400,
///     latency: Some(Summary::from_samples(&[250.0, 260.0])),
///     payloads_per_delivery: 4.2,
///     ..RunReport::empty("flat pi=0.5", 100, 400)
/// };
/// assert!(report.to_string().contains("flat"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Human-readable configuration label (strategy and parameters).
    pub label: String,
    /// Number of protocol nodes.
    pub nodes: usize,
    /// Number of multicast messages.
    pub messages: usize,
    /// End-to-end delivery latency summary (ms), if anything was
    /// delivered.
    pub latency: Option<Summary>,
    /// Payload transmissions divided by deliveries — the paper's
    /// *payload/msg* x-axis (Fig. 5(a)). 1.0 is optimal; the eager bound
    /// is the gossip fanout.
    pub payloads_per_delivery: f64,
    /// payload/msg over the regular (non-best) nodes only — the
    /// "ranked (low)" / "combined (low)" series.
    pub payloads_per_delivery_low: Option<f64>,
    /// payload/msg over the best nodes only.
    pub payloads_per_delivery_best: Option<f64>,
    /// Mean fraction of eligible nodes delivering each message
    /// (Fig. 5(b)), in `[0, 1]`.
    pub mean_delivery_fraction: f64,
    /// Fraction of messages delivered by every eligible node.
    pub atomic_delivery_fraction: f64,
    /// Share of payload traffic on the top-5 % links (Fig. 4, Fig. 6(c)).
    pub top5_link_share: f64,
    /// Gini coefficient of per-link payload counts.
    pub link_gini: f64,
    /// Gini coefficient of per-node payload-sent counts.
    pub node_gini: f64,
    /// Mean gossip round at delivery (the paper quotes ≈4.5).
    pub mean_delivery_round: f64,
    /// Total messages of any kind sent.
    pub total_messages: u64,
    /// Total payload-bearing messages sent.
    pub total_payloads: u64,
    /// Total bytes sent.
    pub total_bytes: u64,
    /// Number of directed links that carried traffic.
    pub used_links: usize,
    /// Virtual duration of the run in milliseconds.
    pub sim_duration_ms: f64,
}

impl RunReport {
    /// A zeroed report carrying only identity fields; used as a base for
    /// struct-update syntax.
    pub fn empty(label: impl Into<String>, nodes: usize, messages: usize) -> Self {
        RunReport {
            label: label.into(),
            nodes,
            messages,
            latency: None,
            payloads_per_delivery: 0.0,
            payloads_per_delivery_low: None,
            payloads_per_delivery_best: None,
            mean_delivery_fraction: 0.0,
            atomic_delivery_fraction: 0.0,
            top5_link_share: 0.0,
            link_gini: 0.0,
            node_gini: 0.0,
            mean_delivery_round: 0.0,
            total_messages: 0,
            total_payloads: 0,
            total_bytes: 0,
            used_links: 0,
            sim_duration_ms: 0.0,
        }
    }

    /// Mean latency in ms, or NaN when nothing was delivered.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.as_ref().map_or(f64::NAN, |s| s.mean)
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: latency {:.0}ms, {:.2} payload/msg, {:.1}% delivered, top5% links carry {:.1}%",
            self.label,
            self.mean_latency_ms(),
            self.payloads_per_delivery,
            self.mean_delivery_fraction * 100.0,
            self.top5_link_share * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::RunReport;
    use crate::summary::Summary;

    #[test]
    fn empty_report_is_identifiable() {
        let r = RunReport::empty("test", 10, 5);
        assert_eq!(r.label, "test");
        assert_eq!(r.nodes, 10);
        assert!(r.mean_latency_ms().is_nan());
    }

    #[test]
    fn display_shows_key_metrics() {
        let mut r = RunReport::empty("ranked", 100, 400);
        r.latency = Some(Summary::from_samples(&[250.0]));
        r.payloads_per_delivery = 1.7;
        r.mean_delivery_fraction = 0.995;
        r.top5_link_share = 0.30;
        let text = r.to_string();
        assert!(text.contains("250ms"));
        assert!(text.contains("1.70 payload/msg"));
        assert!(text.contains("99.5% delivered"));
        assert!(text.contains("30.0%"));
    }
}
