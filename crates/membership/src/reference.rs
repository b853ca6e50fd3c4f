//! The `Vec`-based view and shuffle message this crate used before the
//! inline layout, kept as the oracle the property tests in
//! [`crate::view`] compare against. Bodies are verbatim except that the
//! two index draws call `distinct_indices` (same draws and picks as the
//! `distinct_indices_into` they used, which no longer exists).

use crate::view::ViewConfig;
use egm_rng::{sample, Rng};
use egm_simnet::NodeId;

/// A membership shuffle exchange (Cyclon-style).
///
/// A node periodically offers a random subset of its view (including its
/// own id) to a random neighbor, which answers with a subset of its own
/// view; both sides merge what they learn. These are control messages —
/// the embedding node's [`egm_simnet::Wire`] implementation reports them
/// as non-payload so they never count toward the paper's payload/msg
/// metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleMsg {
    /// Offer of view entries; the receiver should reply.
    Request {
        /// Peer ids offered to the partner (includes the sender's id).
        entries: Vec<NodeId>,
    },
    /// Answer carrying the partner's view entries.
    Reply {
        /// Peer ids offered back.
        entries: Vec<NodeId>,
    },
}

impl ShuffleMsg {
    /// Number of peer entries carried.
    pub fn entry_count(&self) -> usize {
        match self {
            ShuffleMsg::Request { entries } | ShuffleMsg::Reply { entries } => entries.len(),
        }
    }

    /// Approximate wire size in bytes (8 bytes per entry + 4 byte tag).
    pub fn wire_bytes(&self) -> u32 {
        4 + 8 * self.entry_count() as u32
    }
}

/// A bounded, continuously shuffled partial view of the overlay.
///
/// Invariants (checked in debug builds and by property tests):
/// the view never contains the owning node or duplicates, and never
/// exceeds `capacity`.
///
/// The shuffle path is allocation-free in steady state: subset sampling
/// draws into an owned index scratch buffer, and the `Vec` carried by
/// each [`ShuffleMsg`] is recycled — a handled request's buffer becomes
/// the reply's, a handled reply's buffer becomes the next outgoing
/// request's. Equality ignores the scratch state (see the manual
/// `PartialEq`).
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: NodeId,
    config: ViewConfig,
    peers: Vec<NodeId>,
    static_view: bool,
    /// Scratch for subset-index sampling (never observable; excluded
    /// from equality).
    idx_scratch: Vec<usize>,
    /// Recycled entry buffer for the next outgoing shuffle message
    /// (never observable; excluded from equality).
    spare: Vec<NodeId>,
}

impl PartialEq for PartialView {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.config == other.config
            && self.peers == other.peers
            && self.static_view == other.static_view
    }
}

impl Eq for PartialView {}

impl PartialView {
    /// Creates an empty view owned by `owner`.
    pub fn new(owner: NodeId, config: ViewConfig) -> Self {
        PartialView {
            owner,
            config,
            peers: Vec::with_capacity(config.capacity),
            static_view: false,
            idx_scratch: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Current peers, in internal order.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Number of peers currently known.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Whether `peer` is in the view.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.peers.contains(&peer)
    }

    /// Freezes the view: shuffle ticks become no-ops. Used for
    /// deterministic experiments over a fixed random overlay.
    pub fn set_static(&mut self, on: bool) {
        self.static_view = on;
    }

    /// Whether the view is frozen.
    pub fn is_static(&self) -> bool {
        self.static_view
    }

    /// Inserts a peer, evicting a random entry if at capacity.
    ///
    /// Inserting the owner or an existing peer is a no-op. Returns whether
    /// the peer is in the view afterwards.
    pub fn insert(&mut self, peer: NodeId) -> bool {
        if peer == self.owner {
            return false;
        }
        if self.peers.contains(&peer) {
            return true;
        }
        if self.peers.len() < self.config.capacity {
            self.peers.push(peer);
        } else {
            // Deterministic eviction of the oldest entry keeps the insert
            // path RNG-free; shuffling provides the randomness.
            self.peers.remove(0);
            self.peers.push(peer);
        }
        true
    }

    /// Removes a peer (e.g. one detected as failed). Returns whether it was
    /// present.
    pub fn remove(&mut self, peer: NodeId) -> bool {
        if let Some(pos) = self.peers.iter().position(|&p| p == peer) {
            self.peers.remove(pos);
            true
        } else {
            false
        }
    }

    /// `PeerSample(f)`: a uniform sample of up to `f` distinct peers.
    ///
    /// Returns fewer than `f` peers when the view is smaller than `f`.
    pub fn sample(&self, rng: &mut Rng, f: usize) -> Vec<NodeId> {
        let k = f.min(self.peers.len());
        if k == 0 {
            return Vec::new();
        }
        sample::distinct_indices(rng, self.peers.len(), k)
            .into_iter()
            .map(|i| self.peers[i])
            .collect()
    }

    /// `PeerSample(f)` into caller-owned buffers: draws the same peers
    /// (and consumes the same RNG stream) as [`PartialView::sample`],
    /// but reuses `idx_scratch` and `out` instead of allocating. This is
    /// the gossip layer's per-forward path, so it must stay
    /// allocation-free.
    pub fn sample_into(
        &self,
        rng: &mut Rng,
        f: usize,
        idx_scratch: &mut Vec<usize>,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let k = f.min(self.peers.len());
        if k == 0 {
            return;
        }
        *idx_scratch = sample::distinct_indices(rng, self.peers.len(), k);
        out.extend(idx_scratch.iter().map(|&i| self.peers[i]));
    }

    /// One uniformly chosen peer, if any.
    pub fn sample_one(&self, rng: &mut Rng) -> Option<NodeId> {
        sample::choose(rng, &self.peers).copied()
    }

    /// Initiates a shuffle: picks a random partner and a subset to offer.
    ///
    /// Returns `None` if the view is static or empty. The offered subset
    /// includes the owner id so the partner learns about us (Cyclon-style).
    /// The entry buffer is recycled from the last handled reply, so in
    /// steady state this allocates nothing.
    pub fn start_shuffle(&mut self, rng: &mut Rng) -> Option<(NodeId, ShuffleMsg)> {
        if self.static_view || self.peers.is_empty() {
            return None;
        }
        let partner = *sample::choose(rng, &self.peers).expect("non-empty view");
        let mut offer = std::mem::take(&mut self.spare);
        self.subset_excluding_into(rng, partner, &mut offer);
        offer.truncate(self.config.shuffle_size.saturating_sub(1));
        offer.push(self.owner);
        Some((partner, ShuffleMsg::Request { entries: offer }))
    }

    /// Handles a shuffle message from `from`; returns a reply to send, if
    /// any. The incoming message's entry buffer is kept as the spare for
    /// the next outgoing message, so a request→reply exchange allocates
    /// nothing in steady state.
    pub fn handle_shuffle(
        &mut self,
        rng: &mut Rng,
        from: NodeId,
        msg: ShuffleMsg,
    ) -> Option<(NodeId, ShuffleMsg)> {
        match msg {
            ShuffleMsg::Request { entries } => {
                let mut reply = std::mem::take(&mut self.spare);
                self.subset_excluding_into(rng, from, &mut reply);
                reply.truncate(self.config.shuffle_size);
                self.merge(&entries);
                // Requests also teach us about the requester.
                self.insert(from);
                self.recycle(entries);
                Some((from, ShuffleMsg::Reply { entries: reply }))
            }
            ShuffleMsg::Reply { entries } => {
                self.merge(&entries);
                self.recycle(entries);
                None
            }
        }
    }

    /// Keeps a consumed message buffer for the next outgoing message.
    fn recycle(&mut self, mut entries: Vec<NodeId>) {
        if entries.capacity() > self.spare.capacity() {
            entries.clear();
            self.spare = entries;
        }
    }

    fn subset_excluding_into(&mut self, rng: &mut Rng, excluded: NodeId, out: &mut Vec<NodeId>) {
        // Sample over a *virtual* filtered sequence instead of
        // materializing it: index `i` of peers-minus-excluded maps back
        // to `peers` by skipping the excluded position. Same RNG draws
        // and same result as filtering first; the index scratch and the
        // output buffer are both reused, so the shuffle path performs no
        // allocation once the buffers have grown to shuffle size.
        out.clear();
        let pos = self.peers.iter().position(|&p| p == excluded);
        let n = self.peers.len() - usize::from(pos.is_some());
        if n == 0 {
            return;
        }
        let k = self.config.shuffle_size.min(n);
        self.idx_scratch = sample::distinct_indices(rng, n, k);
        out.extend(self.idx_scratch.iter().map(|&i| {
            let i = match pos {
                Some(p) if i >= p => i + 1,
                _ => i,
            };
            self.peers[i]
        }));
    }

    fn merge(&mut self, entries: &[NodeId]) {
        for &p in entries {
            self.insert(p);
        }
        debug_assert!(self.peers.len() <= self.config.capacity);
        debug_assert!(!self.peers.contains(&self.owner));
    }
}

/// Builds a bootstrapped overlay: every node gets a uniform random view of
/// `capacity` distinct peers (or `n - 1` if smaller), as after a completed
/// join protocol.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn bootstrap_views(n: usize, config: &ViewConfig, rng: &mut Rng) -> Vec<PartialView> {
    assert!(n > 0, "need at least one node");
    let mut idx_scratch = Vec::new();
    (0..n)
        .map(|i| {
            let mut view = PartialView::new(NodeId(i), *config);
            let k = config.capacity.min(n.saturating_sub(1));
            // Sample k distinct peers from 0..n-1 excluding i by index
            // remapping: indices >= i shift up by one. One shared index
            // buffer serves all n draws (same index sequence as the
            // allocating variant).
            if k > 0 {
                idx_scratch = sample::distinct_indices(rng, n - 1, k);
                for &idx in &idx_scratch {
                    let peer = if idx >= i { idx + 1 } else { idx };
                    view.insert(NodeId(peer));
                }
            }
            view
        })
        .collect()
}
