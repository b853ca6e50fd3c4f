//! Multicast/delivery logging: latency and reliability.

use crate::summary::Summary;

/// Log of multicasts and deliveries for one experiment run.
///
/// Mirrors §5.3 of the paper: *"All messages multicast and delivered are
/// logged for later processing. Namely, end-to-end latency can be
/// measured..."*. Node identity is a plain index so the log is independent
/// of the simulator.
///
/// # Layout
///
/// Deliveries are stored **sparsely per message**: each message holds a
/// packed `(node, time, round)` record per delivery in arrival order,
/// plus a `SeenSet` for first-delivery deduplication. The seen-set is
/// a sparse→dense→sealed hybrid: a sorted id list while deliveries are
/// few, an `n`-bit bitmap once that would cost more, and — when the
/// message saturates (every node delivered) — no storage at all, the
/// entry is *sealed* and membership is implicit. Memory is
/// `O(total deliveries)` rather than the `O(messages × n/8)` a
/// per-message bitmap costs (12.5 KB per in-flight message at 100k nodes)
/// or the dense `O(messages × n)` of a per-(node, message) matrix.
///
/// # Examples
///
/// ```
/// use egm_metrics::DeliveryLog;
///
/// let mut log = DeliveryLog::new(3);
/// let m = log.record_multicast(0, 100.0);
/// log.record_delivery(m, 1, 150.0, 1);
/// log.record_delivery(m, 2, 160.0, 2);
/// assert_eq!(log.delivery_count(m), 2);
/// assert_eq!(log.latencies(), vec![50.0, 60.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryLog {
    node_count: usize,
    /// Per message: (source node, multicast time ms).
    sends: Vec<(usize, f64)>,
    /// Per message: sparse first-delivery records.
    deliveries: Vec<MessageDeliveries>,
}

/// Sparse first-delivery records of one message.
#[derive(Debug, Clone, PartialEq)]
struct MessageDeliveries {
    /// `(node, delivery time ms, gossip round)` in arrival order.
    entries: Vec<(u32, f64, u32)>,
    /// Which nodes already delivered (first-delivery dedup).
    seen: SeenSet,
}

/// Dedup set behind one message's delivery records.
///
/// Starts sparse (a sorted id list), promotes itself to a dense bitmap
/// once the list would cost more than the bitmap, and drops all storage
/// when the message saturates — at which point membership is implicit.
#[derive(Debug, Clone, PartialEq)]
enum SeenSet {
    /// Sorted node ids; membership and insertion by binary search.
    Sparse(Vec<u32>),
    /// One bit per node.
    Dense(Vec<u64>),
    /// Every node delivered: the entry is sealed, `contains` is `true`.
    Saturated,
}

/// Sparse capacity: promote to the bitmap once the sorted list costs as
/// much (4 bytes/entry vs `n/8` bytes), capped so the O(len) sorted
/// insert stays bounded at very large `n`.
fn sparse_cap(node_count: usize) -> usize {
    (node_count / 32).clamp(8, 4096)
}

impl SeenSet {
    #[inline]
    fn contains(&self, node: usize) -> bool {
        match self {
            SeenSet::Sparse(v) => v.binary_search(&(node as u32)).is_ok(),
            SeenSet::Dense(bits) => bits[node / 64] & (1u64 << (node % 64)) != 0,
            SeenSet::Saturated => true,
        }
    }

    /// Inserts `node`; `true` when newly seen.
    fn insert(&mut self, node: usize, node_count: usize) -> bool {
        match self {
            SeenSet::Saturated => false,
            SeenSet::Dense(bits) => {
                let word = &mut bits[node / 64];
                let bit = 1u64 << (node % 64);
                if *word & bit != 0 {
                    return false;
                }
                *word |= bit;
                true
            }
            SeenSet::Sparse(v) => match v.binary_search(&(node as u32)) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() < sparse_cap(node_count) {
                        v.insert(pos, node as u32);
                    } else {
                        let mut bits = vec![0u64; node_count.div_ceil(64)];
                        for &n in v.iter() {
                            bits[n as usize / 64] |= 1u64 << (n % 64);
                        }
                        bits[node / 64] |= 1u64 << (node % 64);
                        *self = SeenSet::Dense(bits);
                    }
                    true
                }
            },
        }
    }
}

impl MessageDeliveries {
    fn new() -> Self {
        MessageDeliveries {
            entries: Vec::new(),
            seen: SeenSet::Sparse(Vec::new()),
        }
    }

    #[inline]
    fn contains(&self, node: usize) -> bool {
        self.seen.contains(node)
    }

    /// Records the first delivery at `node`; later duplicates are
    /// ignored. When the message saturates, the dedup storage is dropped
    /// and the entry sealed.
    fn insert(&mut self, node: usize, node_count: usize, time_ms: f64, round: u32) {
        if !self.seen.insert(node, node_count) {
            return;
        }
        self.entries.push((node as u32, time_ms, round));
        if self.entries.len() == node_count {
            self.seen = SeenSet::Saturated;
        }
    }
}

impl DeliveryLog {
    /// Creates an empty log for `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "need at least one node");
        DeliveryLog {
            node_count,
            sends: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Number of nodes the log covers.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of multicasts recorded.
    pub fn message_count(&self) -> usize {
        self.sends.len()
    }

    /// Records a multicast by `source` at `time_ms`; returns the message
    /// index used for delivery records.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn record_multicast(&mut self, source: usize, time_ms: f64) -> usize {
        assert!(source < self.node_count, "source out of range");
        self.sends.push((source, time_ms));
        self.deliveries.push(MessageDeliveries::new());
        self.sends.len() - 1
    }

    /// Records the first delivery of message `msg` at `node`.
    ///
    /// Later duplicate records for the same (msg, node) are ignored — the
    /// protocol's `Deliver` upcall fires once per node, but the harness is
    /// defensive about it.
    ///
    /// # Panics
    ///
    /// Panics if `msg` or `node` is out of range.
    pub fn record_delivery(&mut self, msg: usize, node: usize, time_ms: f64, round: u32) {
        assert!(msg < self.sends.len(), "unknown message {msg}");
        assert!(node < self.node_count, "node out of range");
        self.deliveries[msg].insert(node, self.node_count, time_ms, round);
    }

    /// Number of nodes that delivered message `msg`.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is out of range.
    pub fn delivery_count(&self, msg: usize) -> usize {
        self.deliveries[msg].entries.len()
    }

    /// End-to-end latencies (ms) of all deliveries at nodes *other than
    /// the source* (the source delivers to itself at multicast time), in
    /// recording order.
    pub fn latencies(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (msg, &(source, t0)) in self.sends.iter().enumerate() {
            for &(node, t, _) in &self.deliveries[msg].entries {
                if node as usize == source {
                    continue;
                }
                out.push(t - t0);
            }
        }
        out
    }

    /// Summary of delivery latency, or `None` if nothing was delivered.
    pub fn latency_summary(&self) -> Option<Summary> {
        let l = self.latencies();
        if l.is_empty() {
            None
        } else {
            Some(Summary::from_samples(&l))
        }
    }

    /// Gossip rounds (hops) after which deliveries happened, excluding the
    /// source's own delivery at round 0.
    pub fn delivery_rounds(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (msg, &(source, _)) in self.sends.iter().enumerate() {
            for &(node, _, r) in &self.deliveries[msg].entries {
                if node as usize == source {
                    continue;
                }
                out.push(r);
            }
        }
        out
    }

    /// Mean fraction of `eligible` nodes that delivered each message — the
    /// paper's *mean deliveries %* (Fig. 5(b)). The source counts as having
    /// delivered its own message.
    ///
    /// `eligible[i] == false` excludes node `i` (e.g. nodes silenced by
    /// fault injection) from the denominator and numerator.
    ///
    /// # Panics
    ///
    /// Panics if `eligible.len()` differs from the node count, if no nodes
    /// are eligible, or if no messages were recorded.
    pub fn mean_delivery_fraction(&self, eligible: &[bool]) -> f64 {
        assert_eq!(eligible.len(), self.node_count, "eligibility mask size");
        let eligible_count = eligible.iter().filter(|&&e| e).count();
        assert!(eligible_count > 0, "no eligible nodes");
        assert!(!self.sends.is_empty(), "no messages recorded");
        let mut total = 0.0;
        for (msg, &(source, _)) in self.sends.iter().enumerate() {
            let d = &self.deliveries[msg];
            let mut delivered = d
                .entries
                .iter()
                .filter(|&&(node, _, _)| eligible[node as usize])
                .count();
            if eligible[source] && !d.contains(source) {
                delivered += 1; // implicit self-delivery
            }
            total += delivered as f64 / eligible_count as f64;
        }
        total / self.sends.len() as f64
    }

    /// Fraction of messages delivered by *every* eligible node (atomic
    /// delivery rate).
    ///
    /// # Panics
    ///
    /// Same conditions as [`DeliveryLog::mean_delivery_fraction`].
    pub fn atomic_delivery_fraction(&self, eligible: &[bool]) -> f64 {
        assert_eq!(eligible.len(), self.node_count, "eligibility mask size");
        let eligible_count = eligible.iter().filter(|&&e| e).count();
        assert!(!self.sends.is_empty(), "no messages recorded");
        let mut atomic = 0usize;
        for (msg, &(source, _)) in self.sends.iter().enumerate() {
            let d = &self.deliveries[msg];
            let mut delivered = d
                .entries
                .iter()
                .filter(|&&(node, _, _)| eligible[node as usize])
                .count();
            if eligible[source] && !d.contains(source) {
                delivered += 1;
            }
            if delivered == eligible_count {
                atomic += 1;
            }
        }
        atomic as f64 / self.sends.len() as f64
    }

    /// Total number of deliveries recorded (excluding implicit source
    /// self-deliveries).
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries.iter().map(|d| d.entries.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::DeliveryLog;

    fn two_message_log() -> DeliveryLog {
        let mut log = DeliveryLog::new(4);
        let m0 = log.record_multicast(0, 0.0);
        log.record_delivery(m0, 1, 40.0, 1);
        log.record_delivery(m0, 2, 55.0, 2);
        log.record_delivery(m0, 3, 70.0, 3);
        let m1 = log.record_multicast(1, 100.0);
        log.record_delivery(m1, 0, 145.0, 1);
        log.record_delivery(m1, 2, 150.0, 2);
        log
    }

    #[test]
    fn latencies_exclude_source() {
        let log = two_message_log();
        assert_eq!(log.latencies(), vec![40.0, 55.0, 70.0, 45.0, 50.0]);
        let s = log.latency_summary().expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 52.0);
    }

    #[test]
    fn duplicate_deliveries_keep_first() {
        let mut log = DeliveryLog::new(2);
        let m = log.record_multicast(0, 0.0);
        log.record_delivery(m, 1, 30.0, 1);
        log.record_delivery(m, 1, 99.0, 5);
        assert_eq!(log.latencies(), vec![30.0]);
        assert_eq!(log.delivery_count(m), 1);
    }

    #[test]
    fn delivery_fraction_counts_source() {
        let log = two_message_log();
        let all = vec![true; 4];
        // m0: 4/4 (incl. source), m1: 3/4 (node 3 missed)
        assert!((log.mean_delivery_fraction(&all) - 0.875).abs() < 1e-12);
        assert_eq!(log.atomic_delivery_fraction(&all), 0.5);
    }

    #[test]
    fn explicit_source_delivery_is_not_double_counted() {
        let mut log = DeliveryLog::new(3);
        let m = log.record_multicast(0, 0.0);
        log.record_delivery(m, 0, 0.0, 0); // source logs its own delivery
        log.record_delivery(m, 1, 10.0, 1);
        log.record_delivery(m, 2, 12.0, 1);
        let all = vec![true; 3];
        assert_eq!(log.mean_delivery_fraction(&all), 1.0);
        assert_eq!(log.atomic_delivery_fraction(&all), 1.0);
        assert_eq!(log.latencies(), vec![10.0, 12.0], "source excluded");
    }

    #[test]
    fn eligibility_mask_excludes_dead_nodes() {
        let log = two_message_log();
        // Consider node 3 dead: m0 delivered by {0,1,2}, m1 by {1,0,2}.
        let eligible = vec![true, true, true, false];
        assert_eq!(log.mean_delivery_fraction(&eligible), 1.0);
        assert_eq!(log.atomic_delivery_fraction(&eligible), 1.0);
    }

    #[test]
    fn delivery_rounds_track_gossip_depth() {
        let log = two_message_log();
        assert_eq!(log.delivery_rounds(), vec![1, 2, 3, 1, 2]);
        assert_eq!(log.total_deliveries(), 5);
        assert_eq!(log.message_count(), 2);
        assert_eq!(log.node_count(), 4);
    }

    #[test]
    fn empty_log_has_no_latency_summary() {
        let mut log = DeliveryLog::new(2);
        assert!(log.latency_summary().is_none());
        let m = log.record_multicast(0, 0.0);
        assert_eq!(log.delivery_count(m), 0);
    }

    #[test]
    fn bitmap_covers_many_nodes() {
        // Cross the 64-bit word boundary.
        let mut log = DeliveryLog::new(200);
        let m = log.record_multicast(0, 0.0);
        for node in [1usize, 63, 64, 65, 127, 128, 199] {
            log.record_delivery(m, node, node as f64, 1);
            log.record_delivery(m, node, 999.0, 9); // duplicate ignored
        }
        assert_eq!(log.delivery_count(m), 7);
        let lat = log.latencies();
        assert_eq!(lat.len(), 7);
        assert_eq!(lat[0], 1.0);
        assert_eq!(*lat.last().expect("non-empty"), 199.0);
    }

    #[test]
    fn sparse_set_promotes_to_dense_past_the_cap() {
        // 1024 nodes → sparse cap 32: the 33rd distinct delivery promotes
        // the set to the bitmap; dedup keeps working across the switch.
        let mut log = DeliveryLog::new(1024);
        let m = log.record_multicast(0, 0.0);
        for node in 1..=40usize {
            let id = node * 19 % 1024; // unordered inserts
            log.record_delivery(m, id, node as f64, 1);
            log.record_delivery(m, id, 999.0, 9); // duplicate ignored
        }
        assert_eq!(log.delivery_count(m), 40);
        assert!(matches!(log.deliveries[m].seen, super::SeenSet::Dense(_)));
        // Duplicates after the promotion are still ignored.
        log.record_delivery(m, 19, 999.0, 9);
        assert_eq!(log.delivery_count(m), 40);
    }

    #[test]
    fn saturation_seals_the_entry_and_frees_the_set() {
        let mut log = DeliveryLog::new(5);
        let m = log.record_multicast(0, 0.0);
        for node in 0..5usize {
            log.record_delivery(m, node, node as f64, 1);
        }
        assert!(matches!(log.deliveries[m].seen, super::SeenSet::Saturated));
        // Sealed entries treat everything as a duplicate...
        log.record_delivery(m, 3, 999.0, 9);
        assert_eq!(log.delivery_count(m), 5);
        // ...and the fraction accounting still sees the source delivery.
        let all = vec![true; 5];
        assert_eq!(log.mean_delivery_fraction(&all), 1.0);
        assert_eq!(log.atomic_delivery_fraction(&all), 1.0);
    }

    #[test]
    fn hybrid_states_agree_on_fractions() {
        // One message promoted to dense, one still sparse, checked
        // against hand-computed fractions.
        let mut log = DeliveryLog::new(100);
        let m = log.record_multicast(7, 0.0);
        for node in 0..50usize {
            log.record_delivery(m, node, 1.0, 1);
        }
        let all = vec![true; 100];
        // 50 explicit + source (node 7 already among 0..50): 50/100.
        assert!((log.mean_delivery_fraction(&all) - 0.5).abs() < 1e-12);
        let m2 = log.record_multicast(99, 10.0);
        log.record_delivery(m2, 0, 11.0, 1);
        // m2: 1 explicit + implicit source = 2/100.
        assert!((log.mean_delivery_fraction(&all) - (0.5 + 0.02) / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn delivery_for_unknown_message_panics() {
        let mut log = DeliveryLog::new(2);
        log.record_delivery(0, 1, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "no eligible nodes")]
    fn all_dead_mask_panics() {
        let mut log = DeliveryLog::new(2);
        log.record_multicast(0, 0.0);
        let _ = log.mean_delivery_fraction(&[false, false]);
    }
}
