//! Best-node ranking for the Ranked and Hybrid strategies (§4.1).
//!
//! The paper selects a set of *best nodes* to serve as hubs. They may be
//! configured explicitly (e.g. by an ISP) or computed from local monitors
//! with a gossip-based sorting protocol \[11\]; crucially, the protocol
//! tolerates approximate rankings (§6.5). This module provides all three
//! regimes behind one [`BestSet`] type, selected by [`RankSource`]:
//!
//! * [`RankSource::Oracle`] — [`BestSet::by_centrality`]: exact latency
//!   centrality over the model file, an O(n²) sweep. The emulator-style
//!   global-knowledge ranking (§4.3), and the default for the paper-scale
//!   figure experiments.
//! * [`RankSource::Sampled`] — [`BestSet::by_sampled_centrality`]: each
//!   node estimates its own centrality from `k` random-peer probes,
//!   O(n·k).
//! * [`RankSource::GossipSorted`] — [`BestSet::by_gossip_sorted`]: the
//!   decentralized ranking the paper actually describes. Each node runs
//!   the protocol's own machinery — a bootstrapped [`PartialView`]
//!   shuffled with the Cyclon-style exchange, and a [`RuntimeMonitor`]
//!   EWMA fed by ping RTT observations of the peers those views expose —
//!   and contributes its local mean-RTT score; the rank is the fixed
//!   point of the gossip sort over those local scores. O(n · view ·
//!   rounds), no global sweep: the shuffle chain runs first and records
//!   what every view exposed, then each node's score is computed on its
//!   own, fanned out over the rayon pool.
//!
//! The decentralized sources are deterministic given their seed and are
//! pinned by regression tests; the oracle stays byte-identical to the
//! historical behaviour.

use crate::monitor::RuntimeMonitor;
use egm_membership::{bootstrap_views, PartialView, ViewConfig};
use egm_simnet::NodeId;
use egm_topology::RoutedModel;
use rayon::prelude::*;
use std::sync::Arc;

/// Padding of a view shorter than the snapshot stride in
/// [`BestSet::by_gossip_sorted`]'s view snapshots.
const NO_PEER: u32 = u32::MAX;

/// How the best set is computed from the environment — the knob that
/// trades ranking fidelity against the cost of obtaining it.
///
/// Selected per scenario (`egm_workload::Scenario::rank_source`); see the
/// module docs for the three regimes. `Oracle` is the historical default;
/// the scale presets use `GossipSorted` (decentralized, no O(n²) sweep)
/// once its hub-choice overlap with the oracle was measured ≥ 0.8 at
/// 1k–10k nodes (`experiments::rank_quality`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankSource {
    /// Exact centrality over the model file (O(n²) global sweep).
    #[default]
    Oracle,
    /// Per-node sampled centrality: `samples_per_node` random-peer probes
    /// each (O(n·k), uses global membership but only local measurements).
    Sampled {
        /// Latency probes per node.
        samples_per_node: usize,
    },
    /// Gossip-sorted ranking over the protocol's own machinery: shuffled
    /// partial views + runtime RTT monitors, `rounds` measure/shuffle
    /// cycles (O(n · view · rounds), purely local information).
    GossipSorted {
        /// Measure/shuffle cycles before the rank is read off.
        rounds: usize,
    },
}

impl RankSource {
    /// Short label for tables and bench records (`"oracle"`,
    /// `"sampled k=8"`, `"gossip r=5"`).
    pub fn label(&self) -> String {
        match self {
            RankSource::Oracle => "oracle".to_string(),
            RankSource::Sampled { samples_per_node } => format!("sampled k={samples_per_node}"),
            RankSource::GossipSorted { rounds } => format!("gossip r={rounds}"),
        }
    }

    /// Whether this is the exact oracle ranking.
    pub fn is_oracle(&self) -> bool {
        matches!(self, RankSource::Oracle)
    }

    /// Computes the best set over `model`.
    ///
    /// `view` configures the overlay views the gossip-sorted source
    /// bootstraps (pass the scenario's `protocol.view` so the ranking
    /// sees the same overlay parameters as the run); `seed` drives the
    /// decentralized sources' private RNG stream — the oracle consumes no
    /// randomness, so oracle results are independent of it.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the underlying constructor
    /// ([`BestSet::by_centrality`], [`BestSet::by_sampled_centrality`] or
    /// [`BestSet::by_gossip_sorted`]).
    pub fn best_set(
        &self,
        model: &RoutedModel,
        fraction: f64,
        view: &ViewConfig,
        seed: u64,
    ) -> BestSet {
        let down = vec![false; model.client_count()];
        self.best_set_excluding(model, fraction, view, seed, &down)
    }

    /// Computes the best set over `model` with a churn mask: nodes with
    /// `down[i] == true` take no part in the ranking — they contribute no
    /// measurements, are invisible to live nodes' probes, and are
    /// excluded from hub candidacy. The hub count is `fraction` of the
    /// live population. This is the online re-rank entry point: the
    /// runner calls it mid-warm-up with the currently-down node set.
    ///
    /// With an all-false mask every source matches
    /// [`RankSource::best_set`] byte for byte.
    ///
    /// # Panics
    ///
    /// Panics under [`RankSource::best_set`]'s conditions, if the mask
    /// length differs from the client count, or if every node is down.
    pub fn best_set_excluding(
        &self,
        model: &RoutedModel,
        fraction: f64,
        view: &ViewConfig,
        seed: u64,
        down: &[bool],
    ) -> BestSet {
        let mut rng = egm_rng::Rng::seed_from_u64(seed);
        match self {
            RankSource::Oracle => BestSet::by_centrality_excluding(model, fraction, down),
            RankSource::Sampled { samples_per_node } => BestSet::by_sampled_centrality_excluding(
                model,
                fraction,
                *samples_per_node,
                down,
                &mut rng,
            ),
            RankSource::GossipSorted { rounds } => {
                BestSet::by_gossip_sorted_excluding(model, fraction, view, *rounds, down, &mut rng)
            }
        }
    }
}

/// The shared set of best nodes (hubs).
///
/// # Examples
///
/// ```
/// use egm_core::rank::BestSet;
/// use egm_simnet::NodeId;
///
/// let best = BestSet::from_ids(10, &[NodeId(2), NodeId(7)]);
/// assert!(best.is_best(NodeId(2)));
/// assert!(!best.is_best(NodeId(3)));
/// assert_eq!(best.best_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestSet {
    flags: Vec<bool>,
}

impl BestSet {
    /// Shuffle ticks between two gossip-sorted measurement rounds
    /// ([`BestSet::by_gossip_sorted`]): with the default shuffle size of
    /// 5 on a 15-entry view, three ticks churn most of the view, so each
    /// round contributes close to `view.capacity` fresh latency samples.
    pub const SHUFFLES_PER_ROUND: usize = 3;

    /// No best nodes at all (degenerates Ranked to pure lazy push).
    pub fn none(n: usize) -> Self {
        BestSet {
            flags: vec![false; n],
        }
    }

    /// Marks an explicit list of node ids as best.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn from_ids(n: usize, ids: &[NodeId]) -> Self {
        let mut flags = vec![false; n];
        for &id in ids {
            assert!(id.index() < n, "best node {id} out of range");
            flags[id.index()] = true;
        }
        BestSet { flags }
    }

    /// Ranks nodes by *latency centrality* over the model file: a node's
    /// score is its mean one-way latency to every other node, and the
    /// lowest-scoring `fraction` become best nodes (at least one).
    ///
    /// This is the oracle equivalent of the gossip-sorted ranking the
    /// paper refers to; the Noise experiments (§6.5) then degrade it
    /// gracefully.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or the model has fewer
    /// than two clients.
    pub fn by_centrality(model: &RoutedModel, fraction: f64) -> Self {
        Self::by_centrality_excluding(model, fraction, &vec![false; model.client_count()])
    }

    /// [`BestSet::by_centrality`] over the live sub-population: a down
    /// node (`down[i] == true`) neither scores nor counts in a live
    /// node's mean.
    fn by_centrality_excluding(model: &RoutedModel, fraction: f64, down: &[bool]) -> Self {
        let n = model.client_count();
        assert_eq!(down.len(), n, "one down flag per client");
        let live: Vec<usize> = (0..n).filter(|&i| !down[i]).collect();
        assert!(live.len() >= 2, "need at least two live clients to rank");
        let scores: Vec<f64> = (0..n)
            .map(|i| {
                if down[i] {
                    return f64::MAX;
                }
                let total: f64 = live
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| model.latency_ms(i, j))
                    .sum();
                total / (live.len() - 1) as f64
            })
            .collect();
        BestSet::from_scores_excluding(&scores, fraction, down)
    }

    /// Ranks nodes by externally supplied scores (lower = better): the
    /// lowest-scoring `fraction` become best nodes (at least one).
    ///
    /// This is the entry point for decentralized rankings, where each node
    /// contributes its own locally measured score (e.g. mean RTT to its
    /// view, gossip-aggregated as in the sorting protocol the paper cites
    /// \[11\]).
    ///
    /// # Panics
    ///
    /// Panics if `scores` is empty, contains non-finite values, or
    /// `fraction` is outside `(0, 1]`.
    pub fn from_scores(scores: &[f64], fraction: f64) -> Self {
        assert!(!scores.is_empty(), "no scores to rank");
        Self::from_scores_excluding(scores, fraction, &vec![false; scores.len()])
    }

    /// [`BestSet::from_scores`] restricted to *live* nodes: entries with
    /// `down[i] == true` are excluded from hub candidacy entirely, and
    /// the hub count is `fraction` of the live population (at least one),
    /// so the hub share among live nodes is preserved as churn removes
    /// candidates. Scores of down nodes are ignored (they may hold any
    /// value, finite or not).
    ///
    /// This is the re-rank primitive of online re-ranking under churn:
    /// the runner recomputes hubs mid-warm-up with the currently-down
    /// node set masked out.
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `down` differ in length, every node is
    /// down, a live score is non-finite, or `fraction` is outside
    /// `(0, 1]`.
    pub fn from_scores_excluding(scores: &[f64], fraction: f64, down: &[bool]) -> Self {
        assert_eq!(scores.len(), down.len(), "one down flag per score");
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let n = scores.len();
        let mut order: Vec<usize> = (0..n).filter(|&i| !down[i]).collect();
        assert!(!order.is_empty(), "cannot rank with every node down");
        assert!(
            order.iter().all(|&i| scores[i].is_finite()),
            "non-finite score"
        );
        let live = order.len();
        order.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .expect("finite scores")
                .then(a.cmp(&b))
        });
        let k = ((live as f64 * fraction).round() as usize).clamp(1, live);
        let mut flags = vec![false; n];
        for &i in &order[..k] {
            flags[i] = true;
        }
        BestSet { flags }
    }

    /// Decentralized approximation of [`BestSet::by_centrality`]: each
    /// node estimates its own centrality as the mean latency to
    /// `samples_per_node` random peers (what a local latency monitor
    /// measures against the node's shuffled views), and the global rank is
    /// assembled from those noisy local scores.
    ///
    /// With few samples the ranking is approximate — exactly the regime
    /// the paper's noise experiments (§6.5) show the protocol tolerates.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_node == 0`, `fraction` is out of range, or
    /// the model has fewer than two clients.
    pub fn by_sampled_centrality(
        model: &RoutedModel,
        fraction: f64,
        samples_per_node: usize,
        rng: &mut egm_rng::Rng,
    ) -> Self {
        let down = vec![false; model.client_count()];
        Self::by_sampled_centrality_excluding(model, fraction, samples_per_node, &down, rng)
    }

    /// [`BestSet::by_sampled_centrality`] over the live sub-population:
    /// each live node probes `samples_per_node` distinct live peers, and
    /// down nodes consume no RNG draws (they are not running).
    fn by_sampled_centrality_excluding(
        model: &RoutedModel,
        fraction: f64,
        samples_per_node: usize,
        down: &[bool],
        rng: &mut egm_rng::Rng,
    ) -> Self {
        assert!(samples_per_node > 0, "need at least one sample per node");
        let n = model.client_count();
        assert_eq!(down.len(), n, "one down flag per client");
        let live: Vec<usize> = (0..n).filter(|&i| !down[i]).collect();
        assert!(live.len() >= 2, "need at least two live clients to rank");
        let k = samples_per_node.min(live.len() - 1);
        let mut scores = vec![f64::MAX; n];
        for (li, &i) in live.iter().enumerate() {
            let mut total = 0.0;
            for idx in egm_rng::sample::distinct_indices(rng, live.len() - 1, k) {
                let peer = live[if idx >= li { idx + 1 } else { idx }];
                total += model.latency_ms(i, peer);
            }
            scores[i] = total / k as f64;
        }
        BestSet::from_scores_excluding(&scores, fraction, down)
    }

    /// Decentralized gossip-sorted ranking (the paper's reference \[11\]),
    /// run to its fixed point over the protocol's own machinery instead
    /// of an offline model sweep.
    ///
    /// Every node starts from a bootstrapped [`PartialView`] (the same
    /// overlay state a run begins with) and hosts a [`RuntimeMonitor`].
    /// Each of the `rounds` cycles does what the running protocol's
    /// monitor/scheduler layer does over time:
    ///
    /// 1. **measure** — the node pings every peer currently in its view;
    ///    the observed RTT (`latency(i→p) + latency(p→i)`, exactly what a
    ///    ping/pong pair would traverse on the simulated network) feeds
    ///    the monitor's EWMA;
    /// 2. **shuffle** — the overlay performs
    ///    [`SHUFFLES_PER_ROUND`](Self::SHUFFLES_PER_ROUND) Cyclon
    ///    exchange ticks ([`PartialView::start_shuffle`]) before the next
    ///    measurement, so consecutive rounds observe mostly disjoint
    ///    slices of the overlay — modelling a ping interval a few times
    ///    the shuffle interval, as in the continuously churning NeEM
    ///    overlay of §5.2.
    ///
    /// A node's score is its mean smoothed one-way delay over every peer
    /// it observed ([`RuntimeMonitor::mean_one_way_ms`]); the global rank
    /// is assembled from those purely local scores.
    ///
    /// # Shape and cost
    ///
    /// The shuffles never read a monitor, and a node's monitor is fed by
    /// that node's views alone, so the computation runs in two phases:
    ///
    /// 1. **chain** — the shuffle chain, sequential on `rng` (it is one
    ///    RNG stream and each exchange mutates two views). Before each
    ///    round's shuffles every view's peers are copied into a flat
    ///    `u32` snapshot.
    /// 2. **score** — node by node, the snapshots are replayed in round
    ///    order into a fresh monitor that lives only for that node: the
    ///    same [`RuntimeMonitor::record_rtt`] sequence a monitor kept
    ///    alive across the rounds would have seen. Nodes are independent
    ///    here, so above a few thousand nodes the phase fans out over
    ///    `rayon::current_num_threads()` contiguous chunks
    ///    (`RAYON_NUM_THREADS` caps it; `1` keeps it on the caller's
    ///    thread).
    ///
    /// Time is O(n · view · rounds) — at 10 000 nodes with the default
    /// view of 15 and 6 rounds that is ~10⁶ latency lookups, versus 10⁸
    /// for the O(n²) oracle sweep — of which only the chain is serial.
    /// Memory is the snapshot, n · view · rounds × 4 B (48 MB at 100 000
    /// nodes × 8 rounds), plus one live monitor per worker thread.
    ///
    /// Determinism: the result is a pure function of `(model, fraction,
    /// view, rounds, rng seed)` — never of the thread count — and a
    /// regression test pins it.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`, `fraction` is outside `(0, 1]`, or the
    /// model has fewer than two clients.
    pub fn by_gossip_sorted(
        model: &RoutedModel,
        fraction: f64,
        view: &ViewConfig,
        rounds: usize,
        rng: &mut egm_rng::Rng,
    ) -> Self {
        let down = vec![false; model.client_count()];
        Self::by_gossip_sorted_excluding(model, fraction, view, rounds, &down, rng)
    }

    /// [`BestSet::by_gossip_sorted`] with a churn mask: nodes with
    /// `down[i] == true` are failed — they send no pings, answer none
    /// (no pong, so live nodes record no RTT against them), and neither
    /// initiate nor answer shuffles. Down nodes are excluded from hub
    /// candidacy and the hub count is `fraction` of the live population
    /// (see [`BestSet::from_scores_excluding`]). A live node whose every
    /// observed peer is down scores `f64::MAX` and ranks last.
    ///
    /// With an all-false mask this is exactly [`BestSet::by_gossip_sorted`]
    /// — same RNG draws, byte-identical result (the pinned determinism
    /// test covers the delegation).
    ///
    /// # Panics
    ///
    /// Panics under [`BestSet::by_gossip_sorted`]'s conditions, if the
    /// mask length differs from the client count, or if every node is
    /// down.
    pub fn by_gossip_sorted_excluding(
        model: &RoutedModel,
        fraction: f64,
        view: &ViewConfig,
        rounds: usize,
        down: &[bool],
        rng: &mut egm_rng::Rng,
    ) -> Self {
        // Below this size scoring takes less than starting threads does:
        // the 1k presets, the server's 24-node jobs and set-ups nested in
        // a parallel sweep stay on the caller's thread.
        const FAN_OUT_MIN_NODES: usize = 4096;
        let chunks = if model.client_count() < FAN_OUT_MIN_NODES {
            1
        } else {
            rayon::current_num_threads()
        };
        Self::gossip_sorted_chunked(model, fraction, view, rounds, down, rng, chunks)
    }

    /// [`BestSet::by_gossip_sorted_excluding`] with the score phase split
    /// into `chunks` contiguous node ranges (the result does not depend
    /// on it).
    fn gossip_sorted_chunked(
        model: &RoutedModel,
        fraction: f64,
        view: &ViewConfig,
        rounds: usize,
        down: &[bool],
        rng: &mut egm_rng::Rng,
        chunks: usize,
    ) -> Self {
        assert!(rounds > 0, "need at least one gossip round");
        let n = model.client_count();
        assert!(n >= 2, "need at least two clients to rank");
        assert_eq!(down.len(), n, "one down flag per client");
        assert!(n <= NO_PEER as usize, "node ids must fit the u32 snapshot");

        // Phase 1, the chain. `observed` is laid out [round][node][slot],
        // `stride` slots per view, short views padded with `NO_PEER`.
        let stride = view.capacity.min(n - 1);
        let mut observed = vec![NO_PEER; rounds * n * stride];
        let mut views: Vec<PartialView> = bootstrap_views(n, view, rng);
        for round in 0..rounds {
            let snapshot = &mut observed[round * n * stride..][..n * stride];
            for (i, view) in views.iter().enumerate() {
                debug_assert!(
                    view.len() <= stride,
                    "a view holds distinct non-owner peers"
                );
                for (slot, p) in snapshot[i * stride..].iter_mut().zip(view.peers()) {
                    *slot = p.index() as u32;
                }
            }
            // Shuffle: several Cyclon exchange ticks per node, in node
            // order (the simulator serializes concurrent shuffles the
            // same way), so the next measurement sees a mostly fresh
            // view instead of re-pinging known peers. Down nodes neither
            // initiate nor answer.
            if round + 1 < rounds {
                for _ in 0..Self::SHUFFLES_PER_ROUND {
                    for i in 0..n {
                        if down[i] {
                            continue;
                        }
                        let Some((partner, request)) = views[i].start_shuffle(rng) else {
                            continue;
                        };
                        if down[partner.index()] {
                            continue; // request vanishes; no reply
                        }
                        let (initiator, target) = pair_mut(&mut views, i, partner.index());
                        if let Some((back, reply)) = target.handle_shuffle(rng, NodeId(i), request)
                        {
                            debug_assert_eq!(back, NodeId(i));
                            initiator.handle_shuffle(rng, partner, reply);
                        }
                    }
                }
            }
        }
        drop(views);

        // Phase 2, the scores.
        let score = |i: usize| -> f64 {
            if down[i] {
                return f64::MAX; // not running: measures nothing
            }
            // A fresh map per node, never a cleared or pre-sized one: the
            // mean sums f64s in hash-iteration order, which depends on
            // the table's growth history.
            let mut monitor = RuntimeMonitor::new();
            for round in 0..rounds {
                let view = &observed[(round * n + i) * stride..][..stride];
                // Ping every *live* peer the view exposed (a down peer
                // never pongs, so no RTT sample lands).
                for &p in view.iter().take_while(|&&p| p != NO_PEER) {
                    let p = p as usize;
                    if down[p] {
                        continue;
                    }
                    let rtt = model.latency_ms(i, p) + model.latency_ms(p, i);
                    monitor.record_rtt(NodeId(p), rtt);
                }
            }
            monitor.mean_one_way_ms().unwrap_or(f64::MAX)
        };
        let per_chunk = n.div_ceil(chunks);
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(per_chunk)
            .map(|lo| lo..(lo + per_chunk).min(n))
            .collect();
        let scores: Vec<Vec<f64>> = ranges
            .into_par_iter()
            .map(|range| range.map(score).collect())
            .collect();
        BestSet::from_scores_excluding(&scores.concat(), fraction, down)
    }

    /// Fraction of this set's best nodes that are also best in `other`
    /// (1.0 = identical hub choice). Useful to quantify how close an
    /// estimated ranking is to the oracle.
    ///
    /// # Panics
    ///
    /// Panics if the sets cover different node counts or this set has no
    /// best nodes.
    pub fn overlap(&self, other: &BestSet) -> f64 {
        assert_eq!(self.len(), other.len(), "sets must cover the same nodes");
        let mine = self.best_ids();
        assert!(!mine.is_empty(), "no best nodes to compare");
        let shared = mine.iter().filter(|&&id| other.is_best(id)).count();
        shared as f64 / mine.len() as f64
    }

    /// Whether `node` is a best node.
    pub fn is_best(&self, node: NodeId) -> bool {
        self.flags.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of nodes covered by this set.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the set covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Number of best nodes.
    pub fn best_count(&self) -> usize {
        self.flags.iter().filter(|&&b| b).count()
    }

    /// Ids of all best nodes, ascending.
    pub fn best_ids(&self) -> Vec<NodeId> {
        self.flags
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(NodeId(i)))
            .collect()
    }

    /// Ids of all regular (non-best) nodes, ascending — the paper's "low"
    /// population (80 % of nodes in §6.4).
    pub fn regular_ids(&self) -> Vec<NodeId> {
        self.flags
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (!b).then_some(NodeId(i)))
            .collect()
    }

    /// Wraps the set for cheap sharing across nodes.
    pub fn shared(self) -> Arc<BestSet> {
        Arc::new(self)
    }
}

/// Mutable references to two distinct slice elements.
fn pair_mut<T>(items: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(i, j, "a view never contains its owner");
    if i < j {
        let (lo, hi) = items.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = items.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::BestSet;
    use egm_simnet::NodeId;
    use egm_topology::RoutedModel;

    #[test]
    fn explicit_set_membership() {
        let best = BestSet::from_ids(5, &[NodeId(0), NodeId(4)]);
        assert!(best.is_best(NodeId(0)));
        assert!(best.is_best(NodeId(4)));
        assert!(!best.is_best(NodeId(2)));
        assert!(!best.is_best(NodeId(99)), "out of range is not best");
        assert_eq!(best.best_ids(), vec![NodeId(0), NodeId(4)]);
        assert_eq!(best.regular_ids().len(), 3);
        assert_eq!(best.len(), 5);
    }

    #[test]
    fn centrality_prefers_central_nodes() {
        // Planar model: central nodes have lower mean distance=latency.
        let model = RoutedModel::planar_synthetic(50, 100.0, 1.0, 9);
        let best = BestSet::by_centrality(&model, 0.2);
        assert_eq!(best.best_count(), 10);
        // Every best node's mean latency must not exceed any regular
        // node's mean latency.
        let mean = |i: usize| -> f64 {
            (0..50)
                .filter(|&j| j != i)
                .map(|j| model.latency_ms(i, j))
                .sum::<f64>()
                / 49.0
        };
        let worst_best = best
            .best_ids()
            .iter()
            .map(|&b| mean(b.index()))
            .fold(0.0f64, f64::max);
        let best_regular = best
            .regular_ids()
            .iter()
            .map(|&r| mean(r.index()))
            .fold(f64::INFINITY, f64::min);
        assert!(worst_best <= best_regular + 1e-9);
    }

    #[test]
    fn centrality_selects_at_least_one() {
        let model = RoutedModel::uniform_synthetic(3, 1.0, 2.0, 1);
        let best = BestSet::by_centrality(&model, 0.01);
        assert_eq!(best.best_count(), 1);
    }

    #[test]
    fn none_has_no_best_nodes() {
        let best = BestSet::none(4);
        assert_eq!(best.best_count(), 0);
        assert!(!best.is_empty());
        assert_eq!(best.regular_ids().len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_out_of_range_panics() {
        let _ = BestSet::from_ids(2, &[NodeId(5)]);
    }

    #[test]
    fn from_scores_picks_lowest() {
        let best = BestSet::from_scores(&[5.0, 1.0, 3.0, 2.0], 0.5);
        assert_eq!(best.best_ids(), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn from_scores_breaks_ties_deterministically() {
        let a = BestSet::from_scores(&[1.0, 1.0, 1.0, 1.0], 0.25);
        let b = BestSet::from_scores(&[1.0, 1.0, 1.0, 1.0], 0.25);
        assert_eq!(a, b);
        assert_eq!(a.best_count(), 1);
    }

    #[test]
    fn sampled_centrality_approximates_oracle() {
        use egm_rng::Rng;
        let model = RoutedModel::planar_synthetic(60, 100.0, 1.0, 21);
        let oracle = BestSet::by_centrality(&model, 0.2);
        let mut rng = Rng::seed_from_u64(3);
        // Dense sampling: near-perfect agreement.
        let dense = BestSet::by_sampled_centrality(&model, 0.2, 40, &mut rng);
        assert!(
            dense.overlap(&oracle) >= 0.8,
            "dense overlap {}",
            dense.overlap(&oracle)
        );
        // Sparse sampling: still much better than chance (0.2).
        let sparse = BestSet::by_sampled_centrality(&model, 0.2, 4, &mut rng);
        assert!(
            sparse.overlap(&oracle) > 0.35,
            "sparse overlap {}",
            sparse.overlap(&oracle)
        );
    }

    #[test]
    fn overlap_bounds() {
        let a = BestSet::from_ids(6, &[NodeId(0), NodeId(1)]);
        let b = BestSet::from_ids(6, &[NodeId(1), NodeId(2)]);
        assert_eq!(a.overlap(&a), 1.0);
        assert_eq!(a.overlap(&b), 0.5);
        let c = BestSet::from_ids(6, &[NodeId(4), NodeId(5)]);
        assert_eq!(a.overlap(&c), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn from_scores_rejects_nan() {
        let _ = BestSet::from_scores(&[1.0, f64::NAN], 0.5);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn from_scores_rejects_infinity() {
        let _ = BestSet::from_scores(&[1.0, f64::INFINITY], 0.5);
    }

    #[test]
    #[should_panic(expected = "no scores")]
    fn from_scores_rejects_empty() {
        let _ = BestSet::from_scores(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn from_scores_rejects_fraction_zero() {
        let _ = BestSet::from_scores(&[1.0, 2.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn from_scores_rejects_fraction_above_one() {
        let _ = BestSet::from_scores(&[1.0, 2.0], 1.1);
    }

    #[test]
    fn from_scores_fraction_one_selects_everyone() {
        let best = BestSet::from_scores(&[3.0, 1.0, 2.0], 1.0);
        assert_eq!(best.best_count(), 3);
        assert!(best.regular_ids().is_empty());
    }

    #[test]
    fn from_scores_tie_at_fraction_boundary_is_index_ordered() {
        // Four equal scores, fraction 0.5: exactly two slots, filled by
        // the lowest indices — the documented deterministic tie-break.
        let best = BestSet::from_scores(&[7.0, 7.0, 7.0, 7.0], 0.5);
        assert_eq!(best.best_ids(), vec![NodeId(0), NodeId(1)]);
        // A lower score beats an equal-scored lower index.
        let best = BestSet::from_scores(&[7.0, 7.0, 1.0, 7.0], 0.5);
        assert_eq!(best.best_ids(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn from_scores_rounds_fraction_to_nearest_count() {
        // 3 nodes × 0.5 → 1.5 slots, rounds to 2.
        let best = BestSet::from_scores(&[1.0, 2.0, 3.0], 0.5);
        assert_eq!(best.best_count(), 2);
        // Tiny fractions clamp up to at least one hub.
        let best = BestSet::from_scores(&[1.0, 2.0, 3.0], 0.01);
        assert_eq!(best.best_count(), 1);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn overlap_rejects_mismatched_sizes() {
        let a = BestSet::from_ids(4, &[NodeId(0)]);
        let b = BestSet::from_ids(5, &[NodeId(0)]);
        let _ = a.overlap(&b);
    }

    #[test]
    #[should_panic(expected = "no best nodes")]
    fn overlap_rejects_empty_best_set() {
        let a = BestSet::none(4);
        let b = BestSet::from_ids(4, &[NodeId(0)]);
        let _ = a.overlap(&b);
    }

    #[test]
    fn gossip_sorted_approximates_oracle() {
        use egm_membership::ViewConfig;
        use egm_rng::Rng;
        let model = RoutedModel::planar_synthetic(80, 100.0, 1.0, 17);
        let oracle = BestSet::by_centrality(&model, 0.2);
        let mut rng = Rng::seed_from_u64(5);
        let gossip = BestSet::by_gossip_sorted(&model, 0.2, &ViewConfig::default(), 6, &mut rng);
        assert_eq!(gossip.best_count(), oracle.best_count());
        assert!(
            gossip.overlap(&oracle) >= 0.7,
            "gossip overlap {}",
            gossip.overlap(&oracle)
        );
        // More rounds observe more of the overlay and match closer than a
        // single unshuffled round.
        let mut rng = Rng::seed_from_u64(5);
        let one_round = BestSet::by_gossip_sorted(&model, 0.2, &ViewConfig::default(), 1, &mut rng);
        assert!(gossip.overlap(&oracle) >= one_round.overlap(&oracle));
    }

    #[test]
    fn gossip_sorted_is_deterministic_and_pinned() {
        use egm_membership::ViewConfig;
        use egm_rng::Rng;
        let model = RoutedModel::planar_synthetic(24, 100.0, 1.0, 9);
        let run = || {
            let mut rng = Rng::seed_from_u64(11);
            BestSet::by_gossip_sorted(&model, 0.25, &ViewConfig::default(), 4, &mut rng)
        };
        let a = run();
        assert_eq!(a, run(), "same seed must reproduce the same rank");
        // Pin the exact hub choice: any change to the view bootstrap, the
        // shuffle exchange, the RTT feed or the EWMA shows up here as a
        // deliberate, reviewable diff.
        assert_eq!(
            a.best_ids(),
            vec![
                NodeId(3),
                NodeId(10),
                NodeId(11),
                NodeId(17),
                NodeId(19),
                NodeId(22)
            ]
        );
    }

    /// The ranking as one round-major loop over `n` monitors that stay
    /// alive across the rounds — the implementation the two-phase
    /// production code replaced, kept as its oracle.
    fn gossip_sorted_round_major(
        model: &RoutedModel,
        fraction: f64,
        view: &egm_membership::ViewConfig,
        rounds: usize,
        down: &[bool],
        rng: &mut egm_rng::Rng,
    ) -> BestSet {
        use crate::monitor::RuntimeMonitor;
        let n = model.client_count();
        let mut views = egm_membership::bootstrap_views(n, view, rng);
        let mut monitors: Vec<RuntimeMonitor> = vec![RuntimeMonitor::new(); n];
        for round in 0..rounds {
            for (i, view) in views.iter().enumerate() {
                if down[i] {
                    continue;
                }
                for p in view.peers() {
                    if down[p.index()] {
                        continue;
                    }
                    let rtt = model.latency_ms(i, p.index()) + model.latency_ms(p.index(), i);
                    monitors[i].record_rtt(p, rtt);
                }
            }
            if round + 1 < rounds {
                for _ in 0..BestSet::SHUFFLES_PER_ROUND {
                    for i in 0..n {
                        if down[i] {
                            continue;
                        }
                        let Some((partner, request)) = views[i].start_shuffle(rng) else {
                            continue;
                        };
                        if down[partner.index()] {
                            continue;
                        }
                        let (initiator, target) = super::pair_mut(&mut views, i, partner.index());
                        if let Some((_, reply)) = target.handle_shuffle(rng, NodeId(i), request) {
                            initiator.handle_shuffle(rng, partner, reply);
                        }
                    }
                }
            }
        }
        let scores: Vec<f64> = monitors
            .iter()
            .map(|m| m.mean_one_way_ms().unwrap_or(f64::MAX))
            .collect();
        BestSet::from_scores_excluding(&scores, fraction, down)
    }

    #[test]
    fn two_phase_ranking_equals_round_major_reference() {
        use egm_membership::ViewConfig;
        use egm_rng::Rng;
        use egm_topology::TransitStubConfig;
        let view = ViewConfig::default();
        for n in [64usize, 500, 5_000] {
            // The two-level routed layout the scale presets rank over.
            let model = TransitStubConfig::scaled(n).with_seed(31).build();
            let mut mask_rng = Rng::seed_from_u64(n as u64);
            // Hub-heavy: the nodes a churn-free ranking elects all fail,
            // so live nodes' views are full of peers that never pong.
            let hubs = BestSet::by_gossip_sorted(&model, 0.2, &view, 3, &mut Rng::seed_from_u64(2));
            let masks: [(&str, Vec<bool>); 3] = [
                ("all live", vec![false; n]),
                ("random", (0..n).map(|_| mask_rng.bool(0.3)).collect()),
                (
                    "hub-heavy",
                    (0..n).map(|i| hubs.is_best(NodeId(i))).collect(),
                ),
            ];
            for (mask, down) in &masks {
                for rounds in [1usize, 3, 8] {
                    let mut rng = Rng::seed_from_u64(77);
                    let reference =
                        gossip_sorted_round_major(&model, 0.2, &view, rounds, down, &mut rng);
                    for chunks in [1usize, 2, 3, 8] {
                        let mut chunked_rng = Rng::seed_from_u64(77);
                        let got = BestSet::gossip_sorted_chunked(
                            &model,
                            0.2,
                            &view,
                            rounds,
                            down,
                            &mut chunked_rng,
                            chunks,
                        );
                        assert_eq!(
                            got, reference,
                            "n={n} mask={mask} rounds={rounds} chunks={chunks}"
                        );
                        assert_eq!(chunked_rng, rng, "RNG contract of the shuffle chain");
                    }
                }
            }
        }
    }

    #[test]
    fn from_scores_excluding_masks_down_nodes() {
        // Node 1 has the best score but is down: it must not rank. Hub
        // count follows the live population: 3 live × 0.5 rounds to 2.
        let best = BestSet::from_scores_excluding(
            &[5.0, 1.0, 3.0, 2.0],
            0.5,
            &[false, true, false, false],
        );
        assert_eq!(best.best_ids(), vec![NodeId(2), NodeId(3)]);
        // Down scores may be garbage without tripping the finite check.
        let best = BestSet::from_scores_excluding(
            &[5.0, f64::NAN, 3.0, 2.0],
            0.5,
            &[false, true, false, false],
        );
        assert!(!best.is_best(NodeId(1)));
    }

    #[test]
    fn from_scores_excluding_matches_plain_with_empty_mask() {
        let scores = [5.0, 1.0, 3.0, 2.0];
        assert_eq!(
            BestSet::from_scores_excluding(&scores, 0.5, &[false; 4]),
            BestSet::from_scores(&scores, 0.5)
        );
    }

    #[test]
    #[should_panic(expected = "every node down")]
    fn from_scores_excluding_rejects_total_outage() {
        let _ = BestSet::from_scores_excluding(&[1.0, 2.0], 0.5, &[true, true]);
    }

    #[test]
    fn excluding_sources_match_plain_with_empty_mask() {
        use super::RankSource;
        use egm_membership::ViewConfig;
        let model = RoutedModel::planar_synthetic(40, 100.0, 1.0, 13);
        let view = ViewConfig::default();
        let down = vec![false; 40];
        for source in [
            RankSource::Oracle,
            RankSource::Sampled {
                samples_per_node: 16,
            },
            RankSource::GossipSorted { rounds: 4 },
        ] {
            assert_eq!(
                source.best_set_excluding(&model, 0.2, &view, 7, &down),
                source.best_set(&model, 0.2, &view, 7),
                "{} must be byte-identical with an all-false mask",
                source.label()
            );
        }
    }

    #[test]
    fn excluding_sources_never_rank_down_nodes() {
        use super::RankSource;
        use egm_membership::ViewConfig;
        let model = RoutedModel::planar_synthetic(40, 100.0, 1.0, 13);
        let view = ViewConfig::default();
        // Fail the oracle's entire hub set; the re-rank must promote
        // replacements from the live population.
        let oracle = RankSource::Oracle.best_set(&model, 0.2, &view, 1);
        let mut down = vec![false; 40];
        for id in oracle.best_ids() {
            down[id.index()] = true;
        }
        let live = down.iter().filter(|&&d| !d).count();
        for source in [
            RankSource::Oracle,
            RankSource::Sampled {
                samples_per_node: 16,
            },
            RankSource::GossipSorted { rounds: 4 },
        ] {
            let set = source.best_set_excluding(&model, 0.2, &view, 7, &down);
            for id in set.best_ids() {
                assert!(!down[id.index()], "{}: down node ranked", source.label());
            }
            assert_eq!(set.best_count(), ((live as f64) * 0.2).round() as usize);
            // Deterministic: same inputs, same hubs.
            assert_eq!(set, source.best_set_excluding(&model, 0.2, &view, 7, &down));
        }
    }

    #[test]
    #[should_panic(expected = "at least one gossip round")]
    fn gossip_sorted_rejects_zero_rounds() {
        use egm_membership::ViewConfig;
        use egm_rng::Rng;
        let model = RoutedModel::uniform_synthetic(4, 1.0, 2.0, 1);
        let mut rng = Rng::seed_from_u64(1);
        let _ = BestSet::by_gossip_sorted(&model, 0.5, &ViewConfig::default(), 0, &mut rng);
    }

    #[test]
    fn rank_source_labels_and_dispatch() {
        use super::RankSource;
        use egm_membership::ViewConfig;
        assert_eq!(RankSource::Oracle.label(), "oracle");
        assert!(RankSource::Oracle.is_oracle());
        assert_eq!(
            RankSource::Sampled {
                samples_per_node: 8
            }
            .label(),
            "sampled k=8"
        );
        assert_eq!(RankSource::GossipSorted { rounds: 5 }.label(), "gossip r=5");
        assert_eq!(RankSource::default(), RankSource::Oracle);

        let model = RoutedModel::planar_synthetic(40, 100.0, 1.0, 13);
        let view = ViewConfig::default();
        let oracle = RankSource::Oracle.best_set(&model, 0.2, &view, 1);
        assert_eq!(oracle, BestSet::by_centrality(&model, 0.2));
        // Oracle ignores the seed entirely.
        assert_eq!(oracle, RankSource::Oracle.best_set(&model, 0.2, &view, 999));
        for source in [
            RankSource::Sampled {
                samples_per_node: 16,
            },
            RankSource::GossipSorted { rounds: 4 },
        ] {
            let set = source.best_set(&model, 0.2, &view, 7);
            assert_eq!(set.best_count(), oracle.best_count());
            // Same seed reproduces; the sources are deterministic.
            assert_eq!(set, source.best_set(&model, 0.2, &view, 7));
        }
    }
}
