//! Performance monitors (§4.2): the `Metric(p)` oracle feeding strategies.
//!
//! The paper evaluates with monitors that read the network model directly
//! (§4.3: *"strategies and monitors are simplified by relying on global
//! knowledge of the network that is extracted directly from the model
//! file"*), isolating strategy quality from monitor quality. The same
//! trait also admits a deployable runtime monitor that estimates RTT from
//! ping/pong exchanges, like TCP's implicit round-trip estimation the
//! paper points to.

use egm_rng::hash::FastHashMap;
use egm_simnet::NodeId;
use egm_topology::RoutedModel;
use std::sync::Arc;

/// `Metric(p)`: a scalar distance-like measure to a peer, lower = closer.
///
/// Implementations must return `f64::INFINITY` for unknown peers so that
/// radius tests (`Metric(p) < ρ`) fail closed (lazy push).
pub trait PerformanceMonitor: std::fmt::Debug {
    /// Current metric from `me` to peer `p`.
    fn metric(&self, me: NodeId, p: NodeId) -> f64;
}

/// Latency oracle: reads one-way latency (ms) from the routed model.
#[derive(Debug, Clone)]
pub struct OracleLatency {
    model: Arc<RoutedModel>,
}

impl OracleLatency {
    /// Creates the oracle over a shared model.
    pub fn new(model: Arc<RoutedModel>) -> Self {
        OracleLatency { model }
    }
}

impl PerformanceMonitor for OracleLatency {
    fn metric(&self, me: NodeId, p: NodeId) -> f64 {
        if me.index() >= self.model.client_count() || p.index() >= self.model.client_count() {
            return f64::INFINITY;
        }
        self.model.latency_ms(me.index(), p.index())
    }
}

/// Distance oracle: pseudo-geographical Euclidean distance (map units).
///
/// The paper uses this "mostly for demonstration purposes" — it makes the
/// emergent mesh of Fig. 4(b) plottable.
#[derive(Debug, Clone)]
pub struct OracleDistance {
    model: Arc<RoutedModel>,
}

impl OracleDistance {
    /// Creates the oracle over a shared model.
    pub fn new(model: Arc<RoutedModel>) -> Self {
        OracleDistance { model }
    }
}

impl PerformanceMonitor for OracleDistance {
    fn metric(&self, me: NodeId, p: NodeId) -> f64 {
        if me.index() >= self.model.client_count() || p.index() >= self.model.client_count() {
            return f64::INFINITY;
        }
        self.model.distance(me.index(), p.index())
    }
}

/// Runtime monitor: per-peer smoothed one-way delay estimated from
/// ping/pong round trips (EWMA, α = 1/8 as in TCP's SRTT).
///
/// The embedding node feeds it with [`RuntimeMonitor::record_rtt`]
/// whenever a pong returns; until a sample exists for a peer the metric is
/// infinite (fail closed to lazy push).
///
/// # Examples
///
/// ```
/// use egm_core::monitor::{PerformanceMonitor, RuntimeMonitor};
/// use egm_simnet::NodeId;
///
/// let mut m = RuntimeMonitor::new();
/// assert!(m.metric(NodeId(0), NodeId(1)).is_infinite());
/// m.record_rtt(NodeId(1), 80.0);
/// assert_eq!(m.metric(NodeId(0), NodeId(1)), 40.0); // one-way = RTT/2
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeMonitor {
    // Deterministic hasher: aggregate queries iterate this map and sum
    // f64s, so iteration order must not depend on std's per-process
    // SipHash seed (it would make `mean_one_way_ms` — and every ranking
    // built on it — differ across machines at the last bit).
    srtt_ms: FastHashMap<NodeId, f64>,
}

impl RuntimeMonitor {
    /// Smoothing factor (TCP's classic 1/8).
    const ALPHA: f64 = 0.125;

    /// Creates an empty monitor.
    pub fn new() -> Self {
        RuntimeMonitor::default()
    }

    /// Records a measured round-trip time to `peer` in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_ms` is negative or non-finite.
    pub fn record_rtt(&mut self, peer: NodeId, rtt_ms: f64) {
        assert!(rtt_ms.is_finite() && rtt_ms >= 0.0, "bad RTT {rtt_ms}");
        self.srtt_ms
            .entry(peer)
            .and_modify(|srtt| *srtt = (1.0 - Self::ALPHA) * *srtt + Self::ALPHA * rtt_ms)
            .or_insert(rtt_ms);
    }

    /// Number of peers with at least one sample.
    pub fn sampled_peers(&self) -> usize {
        self.srtt_ms.len()
    }

    /// Mean smoothed one-way delay over all sampled peers, or `None` when
    /// no peer has a sample yet.
    ///
    /// This is the node's *local centrality estimate*: what it contributes
    /// to the decentralized gossip-sorted ranking
    /// ([`BestSet::by_gossip_sorted`](crate::rank::BestSet::by_gossip_sorted))
    /// — the mean distance to the peers its shuffled views have exposed,
    /// measured from its own RTT observations.
    pub fn mean_one_way_ms(&self) -> Option<f64> {
        if self.srtt_ms.is_empty() {
            return None;
        }
        let total: f64 = self.srtt_ms.values().sum();
        Some(total / (2.0 * self.srtt_ms.len() as f64))
    }
}

impl PerformanceMonitor for RuntimeMonitor {
    fn metric(&self, _me: NodeId, p: NodeId) -> f64 {
        self.srtt_ms.get(&p).map_or(f64::INFINITY, |rtt| rtt / 2.0)
    }
}

/// A monitor that knows nothing (all metrics infinite). Used by strategies
/// that ignore the environment (Flat, TTL) so the node always has *some*
/// monitor to hand to the strategy context.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl PerformanceMonitor for NullMonitor {
    fn metric(&self, _me: NodeId, _p: NodeId) -> f64 {
        f64::INFINITY
    }
}

/// The monitor variants a node can host, dispatched statically.
#[derive(Debug, Clone)]
pub enum Monitor {
    /// No environmental knowledge.
    Null(NullMonitor),
    /// Latency oracle from the model file.
    OracleLatency(OracleLatency),
    /// Distance oracle from the model file.
    OracleDistance(OracleDistance),
    /// Ping-based runtime estimation.
    Runtime(RuntimeMonitor),
}

impl Monitor {
    /// Mutable access to the runtime monitor, if that is the active kind.
    pub fn runtime_mut(&mut self) -> Option<&mut RuntimeMonitor> {
        match self {
            Monitor::Runtime(m) => Some(m),
            _ => None,
        }
    }
}

impl PerformanceMonitor for Monitor {
    fn metric(&self, me: NodeId, p: NodeId) -> f64 {
        match self {
            Monitor::Null(m) => m.metric(me, p),
            Monitor::OracleLatency(m) => m.metric(me, p),
            Monitor::OracleDistance(m) => m.metric(me, p),
            Monitor::Runtime(m) => m.metric(me, p),
        }
    }
}

/// Declarative monitor configuration, buildable into per-node [`Monitor`]
/// instances. Part of every experiment scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorSpec {
    /// No environmental knowledge.
    #[default]
    Null,
    /// Read one-way latency from the model file (the paper's evaluation
    /// setting, §4.3).
    OracleLatency,
    /// Read pseudo-geographic distance from the model file.
    OracleDistance,
    /// Estimate RTT at runtime with pings (requires
    /// [`ProtocolConfig::ping_interval`](crate::ProtocolConfig) to be
    /// set).
    Runtime,
}

impl MonitorSpec {
    /// Builds the per-node monitor.
    ///
    /// # Panics
    ///
    /// Panics if an oracle variant is requested without a model.
    pub fn build(&self, model: Option<&Arc<RoutedModel>>) -> Monitor {
        match self {
            MonitorSpec::Null => Monitor::Null(NullMonitor),
            MonitorSpec::OracleLatency => Monitor::OracleLatency(OracleLatency::new(Arc::clone(
                model.expect("latency oracle requires a model"),
            ))),
            MonitorSpec::OracleDistance => Monitor::OracleDistance(OracleDistance::new(
                Arc::clone(model.expect("distance oracle requires a model")),
            )),
            MonitorSpec::Runtime => Monitor::Runtime(RuntimeMonitor::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        Monitor, MonitorSpec, NullMonitor, OracleDistance, OracleLatency, PerformanceMonitor,
        RuntimeMonitor,
    };
    use egm_simnet::NodeId;
    use egm_topology::RoutedModel;
    use std::sync::Arc;

    fn model() -> Arc<RoutedModel> {
        Arc::new(RoutedModel::planar_synthetic(6, 100.0, 1.0, 3))
    }

    #[test]
    fn latency_oracle_reads_model() {
        let m = model();
        let mon = OracleLatency::new(Arc::clone(&m));
        assert_eq!(mon.metric(NodeId(0), NodeId(3)), m.latency_ms(0, 3));
        assert!(mon.metric(NodeId(0), NodeId(99)).is_infinite());
    }

    #[test]
    fn distance_oracle_reads_model() {
        let m = model();
        let mon = OracleDistance::new(Arc::clone(&m));
        assert_eq!(mon.metric(NodeId(1), NodeId(2)), m.distance(1, 2));
        assert!(mon.metric(NodeId(42), NodeId(0)).is_infinite());
    }

    #[test]
    fn runtime_monitor_ewma_converges() {
        let mut m = RuntimeMonitor::new();
        m.record_rtt(NodeId(1), 100.0);
        assert_eq!(m.metric(NodeId(0), NodeId(1)), 50.0);
        // Repeated lower samples pull the estimate down monotonically.
        let mut last = m.metric(NodeId(0), NodeId(1));
        for _ in 0..50 {
            m.record_rtt(NodeId(1), 60.0);
            let now = m.metric(NodeId(0), NodeId(1));
            assert!(now <= last);
            last = now;
        }
        assert!((last - 30.0).abs() < 1.0, "converged to {last}");
        assert_eq!(m.sampled_peers(), 1);
    }

    #[test]
    fn mean_one_way_averages_sampled_peers() {
        let mut m = RuntimeMonitor::new();
        assert_eq!(m.mean_one_way_ms(), None, "no samples yet");
        m.record_rtt(NodeId(1), 100.0); // one-way 50
        m.record_rtt(NodeId(2), 20.0); // one-way 10
        let mean = m.mean_one_way_ms().expect("two samples");
        assert!((mean - 30.0).abs() < 1e-9, "mean one-way {mean}");
    }

    #[test]
    fn null_monitor_is_infinite() {
        assert!(NullMonitor.metric(NodeId(0), NodeId(1)).is_infinite());
    }

    #[test]
    fn monitor_enum_dispatches() {
        let mon = Monitor::OracleLatency(OracleLatency::new(model()));
        assert!(mon.metric(NodeId(0), NodeId(1)).is_finite());
        let mut null = Monitor::Null(NullMonitor);
        assert!(null.runtime_mut().is_none());
        let mut rt = Monitor::Runtime(RuntimeMonitor::new());
        rt.runtime_mut()
            .expect("runtime")
            .record_rtt(NodeId(1), 10.0);
        assert_eq!(rt.metric(NodeId(0), NodeId(1)), 5.0);
    }

    #[test]
    #[should_panic(expected = "bad RTT")]
    fn negative_rtt_panics() {
        RuntimeMonitor::new().record_rtt(NodeId(0), -1.0);
    }

    #[test]
    fn spec_builds_each_kind() {
        let m = model();
        assert!(matches!(MonitorSpec::Null.build(None), Monitor::Null(_)));
        assert!(matches!(
            MonitorSpec::OracleLatency.build(Some(&m)),
            Monitor::OracleLatency(_)
        ));
        assert!(matches!(
            MonitorSpec::OracleDistance.build(Some(&m)),
            Monitor::OracleDistance(_)
        ));
        assert!(matches!(
            MonitorSpec::Runtime.build(None),
            Monitor::Runtime(_)
        ));
    }

    #[test]
    #[should_panic(expected = "requires a model")]
    fn oracle_without_model_panics() {
        let _ = MonitorSpec::OracleLatency.build(None);
    }
}
