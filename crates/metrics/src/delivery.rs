//! Multicast/delivery logging: latency and reliability.

use crate::summary::Summary;

/// One delivery handed to [`DeliveryLog::from_deliveries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Message index (position in the log's multicast list).
    pub msg: usize,
    /// Delivering node.
    pub node: usize,
    /// Delivery time (ms).
    pub time_ms: f64,
    /// Gossip round at which the message arrived (0 = the source's own).
    pub round: u32,
}

/// Log of multicasts and deliveries for one experiment run.
///
/// Mirrors §5.3 of the paper: *"All messages multicast and delivered are
/// logged for later processing. Namely, end-to-end latency can be
/// measured..."*. Node identity is a plain index so the log is independent
/// of the simulator.
///
/// # Layout
///
/// The log is built once, in bulk, after the run
/// ([`DeliveryLog::from_deliveries`]). Each message holds one packed
/// `(node, time, round)` entry per delivering node, sorted by node: a
/// node that delivered a message twice keeps only its first delivery,
/// and "did node `i` deliver" is a binary search. Memory is exactly
/// 16 B per first delivery — no dedup set, no `O(messages × n)` matrix.
///
/// # Examples
///
/// ```
/// use egm_metrics::{Delivery, DeliveryLog};
///
/// let at = |node, time_ms, round| Delivery { msg: 0, node, time_ms, round };
/// // Message 0 is multicast by node 0 at 100 ms; deliveries come in any order.
/// let log = DeliveryLog::from_deliveries(3, vec![(0, 100.0)], [at(2, 160.0, 2), at(1, 150.0, 1)]);
/// assert_eq!(log.delivery_count(0), 2);
/// assert_eq!(log.latencies(), vec![50.0, 60.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryLog {
    node_count: usize,
    /// Per message: (source node, multicast time ms).
    sends: Vec<(usize, f64)>,
    /// Per message: `(node, delivery time ms, gossip round)` of each
    /// node's first delivery, sorted by node.
    deliveries: Vec<Vec<(u32, f64, u32)>>,
}

impl DeliveryLog {
    /// Builds the log of a run: `sends[m]` is message `m`'s (source node,
    /// multicast time ms), and `deliveries` yields every delivery in any
    /// order. Per message, entries are sorted by (node, time) and each
    /// node keeps its earliest delivery; exact ties keep the one yielded
    /// first. A delivery at the source is kept like any other (it counts
    /// once, see [`DeliveryLog::mean_delivery_fraction`]).
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`, or a source, message or node index is
    /// out of range.
    pub fn from_deliveries<I>(node_count: usize, sends: Vec<(usize, f64)>, deliveries: I) -> Self
    where
        I: IntoIterator<Item = Delivery>,
    {
        assert!(node_count > 0, "need at least one node");
        assert!(
            sends.iter().all(|&(source, _)| source < node_count),
            "source out of range"
        );
        let mut per_message: Vec<Vec<(u32, f64, u32)>> = vec![Vec::new(); sends.len()];
        for d in deliveries {
            assert!(d.msg < sends.len(), "unknown message {}", d.msg);
            assert!(d.node < node_count, "node out of range");
            per_message[d.msg].push((d.node as u32, d.time_ms, d.round));
        }
        for entries in &mut per_message {
            // Stable, so exact (node, time) ties stay in input order and
            // the dedup below keeps the first of them.
            entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            entries.dedup_by_key(|e| e.0);
            entries.shrink_to_fit();
        }
        DeliveryLog {
            node_count,
            sends,
            deliveries: per_message,
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

    /// Whether `node` delivered message `msg`.
    fn delivered(&self, msg: usize, node: usize) -> bool {
        self.deliveries[msg]
            .binary_search_by_key(&(node as u32), |e| e.0)
            .is_ok()
    }

    /// Number of nodes that delivered message `msg`.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is out of range.
    pub fn delivery_count(&self, msg: usize) -> usize {
        self.deliveries[msg].len()
    }

    /// `(latency ms, gossip round)` of every first delivery at a node
    /// *other than the source* (the source delivers to itself at
    /// multicast time), message by message, each message's in node
    /// order. Every reduction below folds this one sequence, so each
    /// reads the same deliveries in the same order.
    fn relayed(&self) -> impl Iterator<Item = (f64, u32)> + Clone + '_ {
        self.sends
            .iter()
            .zip(&self.deliveries)
            .flat_map(|(&(source, t0), entries)| {
                entries
                    .iter()
                    .filter(move |e| e.0 as usize != source)
                    .map(move |&(_, t, round)| (t - t0, round))
            })
    }

    /// End-to-end latencies (ms) of all deliveries at nodes *other than
    /// the source* (the source delivers to itself at multicast time),
    /// message by message, each message's in node order.
    pub fn latencies(&self) -> Vec<f64> {
        self.relayed().map(|(latency, _)| latency).collect()
    }

    /// Summary of delivery latency, or `None` if nothing was delivered.
    /// Folds the deliveries in place, bit-identical to
    /// [`Summary::from_samples`] over [`DeliveryLog::latencies`].
    pub fn latency_summary(&self) -> Option<Summary> {
        let latencies = self.relayed().map(|(latency, _)| latency);
        latencies.clone().next()?;
        Some(Summary::from_sample_iter(latencies))
    }

    /// Gossip rounds (hops) after which deliveries happened, excluding the
    /// source's own delivery at round 0.
    pub fn delivery_rounds(&self) -> Vec<u32> {
        self.relayed().map(|(_, round)| round).collect()
    }

    /// Mean of [`DeliveryLog::delivery_rounds`], or `0.0` if nothing was
    /// delivered. Folds the deliveries in place, summing in the same
    /// order as the collected rounds would.
    pub fn mean_delivery_round(&self) -> f64 {
        let count = self.relayed().count();
        if count == 0 {
            return 0.0;
        }
        let sum = self
            .relayed()
            .map(|(_, round)| f64::from(round))
            .sum::<f64>();
        sum / count as f64
    }

    /// Per message, in message order: how many `eligible` nodes
    /// delivered it, the source counting as having delivered its own
    /// message.
    fn eligible_delivery_counts<'a>(
        &'a self,
        eligible: &'a [bool],
    ) -> impl Iterator<Item = usize> + 'a {
        self.sends
            .iter()
            .enumerate()
            .map(move |(msg, &(source, _))| {
                let mut delivered = self.deliveries[msg]
                    .iter()
                    .filter(|&&(node, _, _)| eligible[node as usize])
                    .count();
                if eligible[source] && !self.delivered(msg, source) {
                    delivered += 1; // implicit self-delivery
                }
                delivered
            })
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
        let total = self
            .eligible_delivery_counts(eligible)
            .fold(0.0, |total, delivered| {
                total + delivered as f64 / eligible_count as f64
            });
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
        let atomic = self
            .eligible_delivery_counts(eligible)
            .filter(|&delivered| delivered == eligible_count)
            .count();
        atomic as f64 / self.sends.len() as f64
    }

    /// Total number of deliveries recorded (excluding implicit source
    /// self-deliveries).
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries.iter().map(|d| d.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::{Delivery, DeliveryLog};
    use crate::summary::Summary;

    fn d(msg: usize, node: usize, time_ms: f64, round: u32) -> Delivery {
        Delivery {
            msg,
            node,
            time_ms,
            round,
        }
    }

    fn two_message_log() -> DeliveryLog {
        DeliveryLog::from_deliveries(
            4,
            vec![(0, 0.0), (1, 100.0)],
            [
                d(0, 1, 40.0, 1),
                d(0, 2, 55.0, 2),
                d(0, 3, 70.0, 3),
                d(1, 0, 145.0, 1),
                d(1, 2, 150.0, 2),
            ],
        )
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
        let log =
            DeliveryLog::from_deliveries(2, vec![(0, 0.0)], [d(0, 1, 30.0, 1), d(0, 1, 99.0, 5)]);
        assert_eq!(log.latencies(), vec![30.0]);
        assert_eq!(log.delivery_rounds(), vec![1]);
        assert_eq!(log.delivery_count(0), 1);
    }

    #[test]
    fn out_of_order_stream_matches_node_order_reference() {
        // The reference is what a node-by-node collection produces: nodes
        // in id order, each node's deliveries in time order, the first
        // delivery of a (message, node) pair kept.
        let sends = vec![(3, 10.0), (0, 20.0), (6, 35.0)];
        let reference = [
            d(0, 0, 31.5, 2),
            d(0, 1, 27.25, 1),
            d(0, 3, 10.0, 0),
            d(0, 5, 44.125, 3),
            d(0, 6, 29.0, 1),
            d(1, 0, 20.0, 0),
            d(1, 2, 61.0, 2),
            d(1, 4, 48.5, 1),
            d(1, 6, 57.75, 2),
            d(2, 1, 80.0, 2),
            d(2, 2, 66.0, 1),
            d(2, 6, 35.0, 0),
        ];
        // The same deliveries in dispatch (time) order with messages
        // interleaved, plus two later duplicates at the end and one
        // duplicate that comes first but carries the later time.
        let mut stream = reference.to_vec();
        stream.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
        stream.insert(0, d(0, 5, 90.0, 4));
        stream.push(d(1, 4, 120.0, 3));
        stream.push(d(2, 2, 66.5, 4));
        let built = DeliveryLog::from_deliveries(7, sends.clone(), stream);

        // Node order within each message, sources excluded, by hand.
        let latencies = vec![21.5, 17.25, 34.125, 19.0, 41.0, 28.5, 37.75, 45.0, 31.0];
        assert_eq!(built.latencies(), latencies);
        assert_eq!(built.delivery_rounds(), vec![2, 1, 3, 1, 2, 1, 2, 2, 1]);
        let bits = |s: Summary| {
            (
                s.n,
                [s.mean, s.std_dev, s.ci95_half, s.min, s.max].map(f64::to_bits),
            )
        };
        assert_eq!(
            bits(built.latency_summary().expect("non-empty")),
            bits(Summary::from_samples(&latencies))
        );
        assert_eq!(built, DeliveryLog::from_deliveries(7, sends, reference));
        assert_eq!(built.delivery_count(0), 5);
        assert_eq!(built.total_deliveries(), 12);
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
        let log = DeliveryLog::from_deliveries(
            3,
            vec![(0, 0.0)],
            [
                d(0, 0, 0.0, 0), // source logs its own delivery
                d(0, 1, 10.0, 1),
                d(0, 2, 12.0, 1),
            ],
        );
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
        assert_eq!(log.mean_delivery_round(), 9.0 / 5.0);
        assert_eq!(log.total_deliveries(), 5);
        assert_eq!(log.message_count(), 2);
        assert_eq!(log.node_count(), 4);
    }

    #[test]
    fn empty_log_has_no_latency_summary() {
        let log = DeliveryLog::from_deliveries(2, vec![], []);
        assert!(log.latency_summary().is_none());
        let log = DeliveryLog::from_deliveries(2, vec![(0, 0.0)], []);
        assert!(log.latency_summary().is_none());
        assert_eq!(log.mean_delivery_round(), 0.0);
        assert_eq!(log.delivery_count(0), 0);
    }

    #[test]
    fn dedup_covers_many_nodes() {
        // Ids across 64-bit word boundaries, each delivered twice, the
        // duplicates interleaved with the firsts.
        let nodes = [1usize, 63, 64, 65, 127, 128, 199];
        let stream = nodes
            .iter()
            .rev()
            .flat_map(|&node| [d(0, node, 999.0, 9), d(0, node, node as f64, 1)]);
        let log = DeliveryLog::from_deliveries(200, vec![(0, 0.0)], stream);
        assert_eq!(log.delivery_count(0), 7);
        let expected: Vec<f64> = nodes.iter().map(|&n| n as f64).collect();
        assert_eq!(log.latencies(), expected, "node order, first kept");
    }

    #[test]
    fn saturated_message_counts_every_node() {
        let stream = (0..5usize).flat_map(|node| [d(0, node, node as f64, 1), d(0, 3, 999.0, 9)]);
        let log = DeliveryLog::from_deliveries(5, vec![(0, 0.0)], stream);
        assert_eq!(log.delivery_count(0), 5);
        // The fraction accounting still sees the source delivery.
        let all = vec![true; 5];
        assert_eq!(log.mean_delivery_fraction(&all), 1.0);
        assert_eq!(log.atomic_delivery_fraction(&all), 1.0);
    }

    #[test]
    fn fractions_match_hand_counts() {
        // One message delivered by half the nodes (its source among
        // them), one by a single node other than its source.
        let mut stream: Vec<Delivery> = (0..50usize).map(|node| d(0, node, 1.0, 1)).collect();
        stream.push(d(1, 0, 11.0, 1));
        let log = DeliveryLog::from_deliveries(100, vec![(7, 0.0), (99, 10.0)], stream);
        let all = vec![true; 100];
        // m0: 50 explicit (source 7 among them): 50/100. m1: 1 explicit
        // + implicit source = 2/100.
        assert!((log.mean_delivery_fraction(&all) - (0.5 + 0.02) / 2.0).abs() < 1e-12);
        assert_eq!(log.atomic_delivery_fraction(&all), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn delivery_for_unknown_message_panics() {
        let _ = DeliveryLog::from_deliveries(2, vec![], [d(0, 1, 1.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "no eligible nodes")]
    fn all_dead_mask_panics() {
        let log = DeliveryLog::from_deliveries(2, vec![(0, 0.0)], []);
        let _ = log.mean_delivery_fraction(&[false, false]);
    }
}
