//! The bounded partial view and uniform peer sampling.

use crate::shuffle::{node_id, raw_id, ShuffleMsg, MAX_SHUFFLE};
use egm_rng::{sample, Rng};
use egm_simnet::NodeId;

/// Most peers one [`PartialView`] holds, and so the upper bound on
/// [`ViewConfig::capacity`]. A constant, not configuration: it fixes the
/// inline peer table (the paper's overlay fanout is 15).
pub const MAX_VIEW: usize = 32;

/// Configuration of the partial view.
///
/// The paper uses an *overlay fanout* of 15 (§5.2): with 200 nodes this
/// yields probability 0.999 of overlay connectedness under 15 % node
/// failures \[6\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewConfig {
    /// Maximum number of peers kept in the view (overlay fanout), in
    /// `1..=`[`MAX_VIEW`].
    pub capacity: usize,
    /// Number of view entries exchanged per shuffle, in
    /// `1..=`[`MAX_SHUFFLE`].
    pub shuffle_size: usize,
}

impl Default for ViewConfig {
    fn default() -> Self {
        ViewConfig {
            capacity: 15,
            shuffle_size: 5,
        }
    }
}

impl ViewConfig {
    /// Checks the bounds the inline view and message tables rely on.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= capacity <= MAX_VIEW` and
    /// `1 <= shuffle_size <= MAX_SHUFFLE`.
    pub fn validate(&self) {
        assert!(
            (1..=MAX_VIEW).contains(&self.capacity),
            "view capacity {} outside 1..=MAX_VIEW ({MAX_VIEW})",
            self.capacity
        );
        assert!(
            (1..=MAX_SHUFFLE).contains(&self.shuffle_size),
            "shuffle size {} outside 1..=MAX_SHUFFLE ({MAX_SHUFFLE})",
            self.shuffle_size
        );
    }
}

/// The result of `PeerSample(f)`: up to [`MAX_VIEW`] distinct peers, held
/// on the stack.
#[derive(Debug, Clone, Copy)]
pub struct PeerSample {
    len: u8,
    peers: [u32; MAX_VIEW],
}

impl PeerSample {
    /// Number of peers sampled.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no peer was sampled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sampled peers, in draw order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.peers[..self.len()].iter().copied().map(node_id)
    }
}

/// A bounded, continuously shuffled partial view of the overlay.
///
/// Invariants (checked in debug builds and by property tests):
/// the view never contains the owning node or duplicates, and never
/// exceeds `capacity`.
///
/// The view is plain data — an 8-byte header and an inline table of
/// [`MAX_VIEW`] `u32` peer ids — and owns no heap memory, so sampling,
/// shuffling and cloning are allocation-free by construction and a
/// `Vec<PartialView>` is one flat block. Equality compares the live
/// prefix of the table only (a slot a removed peer left behind is not
/// state).
///
/// # Examples
///
/// ```
/// use egm_membership::{PartialView, ViewConfig};
/// use egm_rng::Rng;
/// use egm_simnet::NodeId;
///
/// let mut rng = Rng::seed_from_u64(3);
/// let mut view = PartialView::new(NodeId(0), ViewConfig::default());
/// view.insert(NodeId(1));
/// view.insert(NodeId(2));
/// let peers = view.sample(&mut rng, 2);
/// assert_eq!(peers.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: u32,
    len: u8,
    capacity: u8,
    shuffle_size: u8,
    static_view: bool,
    peers: [u32; MAX_VIEW],
}

impl PartialEq for PartialView {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.capacity == other.capacity
            && self.shuffle_size == other.shuffle_size
            && self.static_view == other.static_view
            && self.live() == other.live()
    }
}

impl Eq for PartialView {}

impl PartialView {
    /// Creates an empty view owned by `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of bounds (see
    /// [`ViewConfig::validate`]) or `owner` does not fit `u32`.
    pub fn new(owner: NodeId, config: ViewConfig) -> Self {
        config.validate();
        PartialView {
            owner: raw_id(owner),
            len: 0,
            capacity: config.capacity as u8,
            shuffle_size: config.shuffle_size as u8,
            static_view: false,
            peers: [0; MAX_VIEW],
        }
    }

    /// The live prefix of the peer table.
    fn live(&self) -> &[u32] {
        &self.peers[..self.len as usize]
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        node_id(self.owner)
    }

    /// Current peers, in internal order.
    pub fn peers(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.live().iter().copied().map(node_id)
    }

    /// Number of peers currently known.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `peer` is in the view.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.peers().any(|p| p == peer)
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

    /// Inserts a peer, evicting the oldest entry if at capacity.
    ///
    /// Inserting the owner or an existing peer is a no-op. Returns whether
    /// the peer is in the view afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `peer` does not fit `u32`.
    pub fn insert(&mut self, peer: NodeId) -> bool {
        self.insert_raw(raw_id(peer))
    }

    fn insert_raw(&mut self, peer: u32) -> bool {
        if peer == self.owner {
            return false;
        }
        if self.live().contains(&peer) {
            return true;
        }
        let len = self.len as usize;
        if len < self.capacity as usize {
            self.peers[len] = peer;
            self.len += 1;
        } else {
            // Deterministic eviction of the oldest entry keeps the insert
            // path RNG-free; shuffling provides the randomness.
            self.peers.copy_within(1..len, 0);
            self.peers[len - 1] = peer;
        }
        true
    }

    /// Removes a peer (e.g. one detected as failed). Returns whether it was
    /// present.
    pub fn remove(&mut self, peer: NodeId) -> bool {
        let Some(pos) = self.peers().position(|p| p == peer) else {
            return false;
        };
        let len = self.len as usize;
        self.peers.copy_within(pos + 1..len, pos);
        self.len -= 1;
        true
    }

    /// `PeerSample(f)`: a uniform sample of up to `f` distinct peers.
    ///
    /// Returns fewer than `f` peers when the view is smaller than `f`.
    /// This is the gossip layer's per-forward path: the sample is drawn
    /// into (and returned as) a stack array.
    pub fn sample(&self, rng: &mut Rng, f: usize) -> PeerSample {
        let live = self.live();
        let k = f.min(live.len());
        let mut out = PeerSample {
            len: k as u8,
            peers: [0; MAX_VIEW],
        };
        sample::distinct_indices_array(rng, live.len(), k, &mut out.peers);
        for slot in &mut out.peers[..k] {
            *slot = live[*slot as usize];
        }
        out
    }

    /// One uniformly chosen peer, if any.
    pub fn sample_one(&self, rng: &mut Rng) -> Option<NodeId> {
        sample::choose(rng, self.live()).copied().map(node_id)
    }

    /// Initiates a shuffle: picks a random partner and a subset to offer.
    ///
    /// Returns `None` if the view is static or empty. The offered subset
    /// includes the owner id so the partner learns about us (Cyclon-style).
    pub fn start_shuffle(&mut self, rng: &mut Rng) -> Option<(NodeId, ShuffleMsg)> {
        if self.static_view {
            return None;
        }
        let partner = *sample::choose(rng, self.live())?;
        let mut offer = self.subset_excluding(rng, partner, false);
        offer.truncate(self.shuffle_size as usize - 1);
        offer.push(self.owner);
        Some((node_id(partner), offer))
    }

    /// Handles a shuffle message from `from`; returns a reply to send, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if `from` does not fit `u32`.
    pub fn handle_shuffle(
        &mut self,
        rng: &mut Rng,
        from: NodeId,
        msg: ShuffleMsg,
    ) -> Option<(NodeId, ShuffleMsg)> {
        if msg.is_reply() {
            self.merge(msg.raw_entries());
            return None;
        }
        let requester = raw_id(from);
        let reply = self.subset_excluding(rng, requester, true);
        self.merge(msg.raw_entries());
        // Requests also teach us about the requester.
        self.insert_raw(requester);
        Some((from, reply))
    }

    /// Up to `shuffle_size` distinct peers other than `excluded`, as a
    /// message of the given kind.
    fn subset_excluding(&self, rng: &mut Rng, excluded: u32, reply: bool) -> ShuffleMsg {
        // Sample over a *virtual* filtered sequence instead of
        // materializing it: index `i` of peers-minus-excluded maps back
        // to `peers` by skipping the excluded position. Same RNG draws
        // and same result as filtering first.
        let mut out = ShuffleMsg::empty(reply);
        let live = self.live();
        let pos = live.iter().position(|&p| p == excluded);
        let n = live.len() - usize::from(pos.is_some());
        let k = (self.shuffle_size as usize).min(n);
        let mut idx = [0u32; MAX_SHUFFLE];
        for &i in sample::distinct_indices_array(rng, n, k, &mut idx) {
            let i = i as usize;
            out.push(live[i + usize::from(pos.is_some_and(|p| i >= p))]);
        }
        out
    }

    fn merge(&mut self, entries: &[u32]) {
        for &p in entries {
            self.insert_raw(p);
        }
        debug_assert!(self.len <= self.capacity);
        debug_assert!(!self.live().contains(&self.owner));
    }
}

/// Builds a bootstrapped overlay: every node gets a uniform random view of
/// `capacity` distinct peers (or `n - 1` if smaller), as after a completed
/// join protocol.
///
/// # Panics
///
/// Panics if `n == 0`, `n` does not fit `u32`, or the configuration is out
/// of bounds (see [`ViewConfig::validate`]).
pub fn bootstrap_views(n: usize, config: &ViewConfig, rng: &mut Rng) -> Vec<PartialView> {
    assert!(n > 0, "need at least one node");
    config.validate();
    let k = config.capacity.min(n - 1);
    let mut idx = [0u32; MAX_VIEW];
    (0..n)
        .map(|i| {
            let mut view = PartialView::new(NodeId(i), *config);
            // Sample k distinct peers from 0..n-1 excluding i by index
            // remapping: indices >= i shift up by one.
            for &pick in sample::distinct_indices_array(rng, n - 1, k, &mut idx) {
                view.insert_raw(pick + u32::from(pick as usize >= i));
            }
            view
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{bootstrap_views, PartialView, ViewConfig, MAX_VIEW};
    use crate::shuffle::{ShuffleMsg, MAX_SHUFFLE};
    use egm_rng::Rng;
    use egm_simnet::NodeId;
    use std::collections::HashSet;

    fn cfg(capacity: usize, shuffle: usize) -> ViewConfig {
        ViewConfig {
            capacity,
            shuffle_size: shuffle,
        }
    }

    #[test]
    fn insert_rejects_owner_and_duplicates() {
        let mut v = PartialView::new(NodeId(0), cfg(3, 2));
        assert!(!v.insert(NodeId(0)));
        assert!(v.insert(NodeId(1)));
        assert!(v.insert(NodeId(1)));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn insert_evicts_oldest_at_capacity() {
        let mut v = PartialView::new(NodeId(0), cfg(2, 2));
        v.insert(NodeId(1));
        v.insert(NodeId(2));
        v.insert(NodeId(3));
        assert_eq!(v.len(), 2);
        assert!(!v.contains(NodeId(1)), "oldest entry evicted");
        assert!(v.contains(NodeId(2)) && v.contains(NodeId(3)));
    }

    #[test]
    fn remove_reports_presence() {
        let mut v = PartialView::new(NodeId(0), cfg(4, 2));
        v.insert(NodeId(5));
        assert!(v.remove(NodeId(5)));
        assert!(!v.remove(NodeId(5)));
        assert!(v.is_empty());
    }

    #[test]
    fn sample_is_distinct_and_never_owner() {
        let mut rng = Rng::seed_from_u64(1);
        let mut v = PartialView::new(NodeId(0), cfg(10, 3));
        for i in 1..=10 {
            v.insert(NodeId(i));
        }
        for _ in 0..100 {
            let s = v.sample(&mut rng, 4);
            assert_eq!(s.len(), 4);
            let set: HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 4);
            assert!(!set.contains(&NodeId(0)));
        }
        // Sampling more than view size returns the whole view.
        assert_eq!(v.sample(&mut rng, 50).len(), 10);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(2);
        let mut v = PartialView::new(NodeId(0), cfg(10, 3));
        for i in 1..=10 {
            v.insert(NodeId(i));
        }
        let mut counts = [0usize; 11];
        for _ in 0..10_000 {
            for p in v.sample(&mut rng, 1).iter() {
                counts[p.index()] += 1;
            }
        }
        for &c in &counts[1..] {
            let frac = c as f64 / 10_000.0;
            assert!((frac - 0.1).abs() < 0.03, "peer frequency {frac}");
        }
    }

    #[test]
    fn shuffle_request_reply_cycle_preserves_invariants() {
        let mut rng = Rng::seed_from_u64(3);
        let mut a = PartialView::new(NodeId(0), cfg(5, 3));
        let mut b = PartialView::new(NodeId(1), cfg(5, 3));
        for i in 2..6 {
            a.insert(NodeId(i));
        }
        for i in 6..10 {
            b.insert(NodeId(i));
        }
        a.insert(NodeId(1));
        let (to, req) = a.start_shuffle(&mut rng).expect("view non-empty");
        assert!(a.contains(to));
        let (back, reply) = b.handle_shuffle(&mut rng, NodeId(0), req).expect("reply");
        assert_eq!(back, NodeId(0));
        assert!(a.handle_shuffle(&mut rng, NodeId(1), reply).is_none());
        for v in [&a, &b] {
            assert!(v.len() <= 5);
            assert!(!v.contains(v.owner()));
            let set: HashSet<_> = v.peers().collect();
            assert_eq!(set.len(), v.len(), "no duplicates");
        }
        // b learned about a through the request's self-entry.
        assert!(b.contains(NodeId(0)));
    }

    #[test]
    fn static_view_never_shuffles() {
        let mut rng = Rng::seed_from_u64(4);
        let mut v = PartialView::new(NodeId(0), cfg(5, 3));
        v.insert(NodeId(1));
        v.set_static(true);
        assert!(v.is_static());
        assert!(v.start_shuffle(&mut rng).is_none());
    }

    #[test]
    fn empty_view_cannot_shuffle_or_sample() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v = PartialView::new(NodeId(0), cfg(5, 3));
        assert!(v.start_shuffle(&mut rng).is_none());
        assert!(v.sample(&mut rng, 3).is_empty());
        assert!(v.sample_one(&mut rng).is_none());
    }

    #[test]
    fn bootstrap_views_are_full_and_valid() {
        let mut rng = Rng::seed_from_u64(6);
        let views = bootstrap_views(30, &cfg(15, 5), &mut rng);
        assert_eq!(views.len(), 30);
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.len(), 15);
            assert!(!v.contains(NodeId(i)));
            let set: HashSet<_> = v.peers().collect();
            assert_eq!(set.len(), 15);
            assert!(v.peers().all(|p| p.index() < 30));
        }
    }

    #[test]
    fn bootstrap_small_network_views_are_complete() {
        let mut rng = Rng::seed_from_u64(7);
        let views = bootstrap_views(3, &cfg(15, 5), &mut rng);
        for v in &views {
            assert_eq!(v.len(), 2, "everyone knows everyone in a 3-node net");
        }
    }

    #[test]
    fn shuffle_reply_subset_excludes_requester() {
        // The reply must never offer the requester its own id.
        let mut rng = Rng::seed_from_u64(8);
        let mut b = PartialView::new(NodeId(1), cfg(5, 5));
        b.insert(NodeId(0));
        b.insert(NodeId(2));
        let (_, reply) = b
            .handle_shuffle(&mut rng, NodeId(0), ShuffleMsg::request(&[]))
            .expect("reply");
        assert!(reply.is_reply(), "expected reply");
        assert!(
            !reply.entries().any(|p| p == NodeId(0)),
            "reply leaks requester id back"
        );
    }

    #[test]
    fn view_is_a_small_header_and_the_inline_table() {
        // No `Vec` can creep back in: three of them alone are 72 bytes.
        assert!(
            std::mem::size_of::<PartialView>() <= 16 + 4 * MAX_VIEW,
            "PartialView grew to {} bytes",
            std::mem::size_of::<PartialView>()
        );
    }

    #[test]
    fn equality_ignores_the_stale_tail() {
        let mut a = PartialView::new(NodeId(0), cfg(4, 2));
        let mut b = a.clone();
        a.insert(NodeId(1));
        a.insert(NodeId(2));
        a.remove(NodeId(2)); // leaves 2 behind in the unused slot
        b.insert(NodeId(1));
        assert_eq!(a, b);
        b.insert(NodeId(3));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_VIEW (32)")]
    fn zero_capacity_rejected() {
        let _ = PartialView::new(NodeId(0), cfg(0, 3));
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_VIEW (32)")]
    fn capacity_above_max_view_rejected() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = bootstrap_views(4, &cfg(MAX_VIEW + 1, 3), &mut rng);
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_SHUFFLE (8)")]
    fn zero_shuffle_size_rejected() {
        cfg(15, 0).validate();
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_SHUFFLE (8)")]
    fn shuffle_size_above_max_shuffle_rejected() {
        let _ = PartialView::new(NodeId(0), cfg(15, MAX_SHUFFLE + 1));
    }
}

/// The inline view against the `Vec`-based one it replaced: any sequence
/// of operations leaves both with the same peers, emits the same entries
/// and wire sizes, and consumes the same RNG stream.
#[cfg(test)]
mod reference_equivalence {
    use super::{PartialView, ViewConfig, MAX_VIEW};
    use crate::reference;
    use crate::shuffle::{ShuffleMsg, MAX_SHUFFLE};
    use egm_rng::Rng;
    use egm_simnet::NodeId;
    use proptest::prelude::*;

    type Emitted = Option<(NodeId, ShuffleMsg)>;
    type RefEmitted = Option<(NodeId, reference::ShuffleMsg)>;

    fn same_view(new: &PartialView, old: &reference::PartialView) -> Result<(), TestCaseError> {
        prop_assert!(
            new.peers().eq(old.peers().iter().copied()),
            "peers differ: {:?} vs {:?}",
            new.peers().collect::<Vec<_>>(),
            old.peers()
        );
        prop_assert_eq!(new.len(), old.len());
        prop_assert_eq!(new.is_empty(), old.is_empty());
        for probe in [new.owner(), NodeId(3)] {
            prop_assert_eq!(new.contains(probe), old.contains(probe));
        }
        prop_assert_eq!(new.is_static(), old.is_static());
        prop_assert_eq!(new.owner(), old.owner());
        Ok(())
    }

    fn same_emitted(new: &Emitted, old: &RefEmitted) -> Result<(), TestCaseError> {
        match (new, old) {
            (None, None) => Ok(()),
            (Some((to, msg)), Some((old_to, old_msg))) => {
                prop_assert_eq!(to, old_to);
                let (old_reply, old_entries) = match old_msg {
                    reference::ShuffleMsg::Request { entries } => (false, entries),
                    reference::ShuffleMsg::Reply { entries } => (true, entries),
                };
                prop_assert_eq!(msg.is_reply(), old_reply);
                prop_assert!(
                    msg.entries().eq(old_entries.iter().copied()),
                    "entries differ: {msg:?} vs {old_entries:?}"
                );
                prop_assert_eq!(msg.entry_count(), old_msg.entry_count());
                prop_assert_eq!(msg.wire_bytes(), old_msg.wire_bytes());
                Ok(())
            }
            _ => Err(TestCaseError::fail(format!(
                "one side emitted, the other did not: {new:?} vs {old:?}"
            ))),
        }
    }

    fn to_reference(msg: &ShuffleMsg) -> reference::ShuffleMsg {
        let entries = msg.entries().collect();
        if msg.is_reply() {
            reference::ShuffleMsg::Reply { entries }
        } else {
            reference::ShuffleMsg::Request { entries }
        }
    }

    proptest! {
        /// One view under a random operation sequence. Incoming messages
        /// carry arbitrary ids — the owner, the sender, duplicates and
        /// peers already held included.
        #[test]
        fn random_operations_match_the_vec_view(
            seed in 0u64..1_000_000,
            capacity in 1usize..MAX_VIEW + 1,
            shuffle_size in 1usize..MAX_SHUFFLE + 1,
            ops in proptest::collection::vec((0u32..8, 0usize..48, 0u64..1_000_000), 1..120),
        ) {
            let config = ViewConfig { capacity, shuffle_size };
            let owner = NodeId(7);
            let mut new = PartialView::new(owner, config);
            let mut old = reference::PartialView::new(owner, config);
            let (mut rng, mut old_rng) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
            for (kind, id, draw) in ops {
                let peer = NodeId(id);
                match kind {
                    0 | 1 => prop_assert_eq!(new.insert(peer), old.insert(peer)),
                    2 => prop_assert_eq!(new.remove(peer), old.remove(peer)),
                    3 => {
                        // Both of the old entry points: the allocating
                        // one and the scratch-buffer one gossip used.
                        let f = id % (MAX_VIEW + 2);
                        let sample = new.sample(&mut rng, f);
                        let old_sample = old.sample(&mut old_rng, f);
                        prop_assert!(sample.iter().eq(old_sample.iter().copied()));
                        prop_assert_eq!(sample.len(), old_sample.len());
                        let sample = new.sample(&mut rng, f);
                        let (mut idx, mut old_sample) = (Vec::new(), vec![NodeId(0)]);
                        old.sample_into(&mut old_rng, f, &mut idx, &mut old_sample);
                        prop_assert!(sample.iter().eq(old_sample.iter().copied()));
                        prop_assert_eq!(sample.is_empty(), old_sample.is_empty());
                        prop_assert_eq!(new.sample_one(&mut rng), old.sample_one(&mut old_rng));
                    }
                    4 => same_emitted(
                        &new.start_shuffle(&mut rng),
                        &old.start_shuffle(&mut old_rng),
                    )?,
                    5 | 6 => {
                        let mut entry_rng = Rng::seed_from_u64(draw);
                        let entries: Vec<NodeId> = (0..entry_rng.range_usize(0, MAX_SHUFFLE + 1))
                            .map(|_| NodeId(entry_rng.range_usize(0, 48)))
                            .collect();
                        let msg = if kind == 5 {
                            ShuffleMsg::request(&entries)
                        } else {
                            ShuffleMsg::reply(&entries)
                        };
                        same_emitted(
                            &new.handle_shuffle(&mut rng, peer, msg),
                            &old.handle_shuffle(&mut old_rng, peer, to_reference(&msg)),
                        )?;
                    }
                    _ => {
                        new.set_static(draw % 2 == 0);
                        old.set_static(draw % 2 == 0);
                    }
                }
                same_view(&new, &old)?;
                prop_assert!(rng == old_rng, "RNG streams diverged after op {kind}");
            }
        }

        /// A whole overlay shuffling in lockstep: every message either
        /// side emits is fed to its partner, as the simulator and the
        /// ranking chain do.
        #[test]
        fn shuffling_overlays_stay_in_lockstep(
            seed in 0u64..1_000_000,
            n in 2usize..40,
            capacity in 1usize..MAX_VIEW + 1,
            shuffle_size in 1usize..MAX_SHUFFLE + 1,
            exchanges in 1usize..200,
        ) {
            let config = ViewConfig { capacity, shuffle_size };
            let (mut rng, mut old_rng) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
            let mut new = super::bootstrap_views(n, &config, &mut rng);
            let mut old = reference::bootstrap_views(n, &config, &mut old_rng);
            for _ in 0..exchanges {
                let i = rng.range_usize(0, n);
                prop_assert_eq!(old_rng.range_usize(0, n), i);
                let started = new[i].start_shuffle(&mut rng);
                let old_started = old[i].start_shuffle(&mut old_rng);
                same_emitted(&started, &old_started)?;
                if let (Some((partner, request)), Some((_, old_request))) = (started, old_started) {
                    let j = partner.index();
                    let reply = new[j].handle_shuffle(&mut rng, NodeId(i), request);
                    let old_reply = old[j].handle_shuffle(&mut old_rng, NodeId(i), old_request);
                    same_emitted(&reply, &old_reply)?;
                    if let (Some((_, reply)), Some((_, old_reply))) = (reply, old_reply) {
                        prop_assert!(new[i].handle_shuffle(&mut rng, partner, reply).is_none());
                        prop_assert!(old[i].handle_shuffle(&mut old_rng, partner, old_reply).is_none());
                    }
                }
                prop_assert!(rng == old_rng, "RNG streams diverged");
            }
            for (view, old_view) in new.iter().zip(&old) {
                same_view(view, old_view)?;
            }
        }
    }
}
