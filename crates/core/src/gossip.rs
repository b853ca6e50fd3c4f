//! The push gossip protocol layer — Fig. 2 of the paper, verbatim.
//!
//! The gossip layer is deliberately oblivious to the Payload Scheduler
//! beneath it (§3.1): it emits `L-Send(i, d, r, p)` intents and receives
//! `L-Receive(i, d, r, s)` upcalls, whether payloads travelled eagerly or
//! lazily. This module is a pure state machine — the embedding node turns
//! each target of the returned [`GossipStep`] into one `L-Send` through
//! the scheduler.

use crate::arena::MsgArena;
use crate::config::ProtocolConfig;
use crate::id::MsgId;
use crate::msg::Payload;
use egm_membership::{PartialView, PeerSample};
use egm_rng::Rng;

/// Result of handing a message to the gossip layer: deliver locally at
/// `round`, then `L-Send(id, payload, relay_round, p)` to every target `p`.
///
/// Plain stack data: the targets are the peer sample itself, so a forward
/// builds no per-target records and touches no heap.
#[derive(Debug, Clone, Copy)]
pub struct GossipStep {
    /// The delivered message identifier.
    pub id: MsgId,
    /// The delivered payload.
    pub payload: Payload,
    /// Round at which the payload arrived (0 for own multicasts).
    pub round: u32,
    /// Peers to relay to (empty once `round >= t`).
    pub targets: PeerSample,
}

impl GossipStep {
    /// The round the relays travel at (Fig. 2, line 10: `r + 1`).
    pub fn relay_round(&self) -> u32 {
        self.round + 1
    }
}

/// The basic gossip protocol of Fig. 2.
///
/// The known-message set `K` lives in the node's [`MsgArena`] (alongside
/// all other per-message state), so the layer itself holds only the
/// configuration.
///
/// # Examples
///
/// ```
/// use egm_core::arena::MsgArena;
/// use egm_core::gossip::GossipLayer;
/// use egm_core::{Payload, ProtocolConfig};
/// use egm_membership::{PartialView, ViewConfig};
/// use egm_rng::Rng;
/// use egm_simnet::NodeId;
///
/// let config = ProtocolConfig::default().with_fanout(2);
/// let gossip = GossipLayer::new(&config);
/// let mut arena = MsgArena::new(64, 64, false);
/// let mut view = PartialView::new(NodeId(0), ViewConfig::default());
/// view.insert(NodeId(1));
/// view.insert(NodeId(2));
/// let mut rng = Rng::seed_from_u64(1);
///
/// let (_slot, step) = gossip.multicast(&mut rng, &view, &mut arena, Payload { seq: 0, bytes: 256 });
/// assert_eq!(step.round, 0);
/// assert_eq!(step.targets.len(), 2);
/// ```
#[derive(Debug)]
pub struct GossipLayer {
    fanout: usize,
    rounds: u32,
}

impl GossipLayer {
    /// Creates the layer from the node configuration.
    pub fn new(config: &ProtocolConfig) -> Self {
        GossipLayer {
            fanout: config.fanout,
            rounds: config.rounds,
        }
    }

    /// `Multicast(d)` (line 3): mint an id and forward at round 0.
    /// Returns the minted message's arena slot alongside the step.
    pub fn multicast(
        &self,
        rng: &mut Rng,
        view: &PartialView,
        arena: &mut MsgArena,
        payload: Payload,
    ) -> (u32, GossipStep) {
        let id = MsgId::generate(rng);
        let slot = arena.intern(id);
        let step = self
            .forward(rng, view, arena, slot, id, payload, 0)
            .expect("fresh ids are never duplicates");
        (slot, step)
    }

    /// `L-Receive(i, d, r, s)` (line 12): deliver-and-forward unless the
    /// message is a duplicate, in which case `None` is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn on_l_receive(
        &self,
        rng: &mut Rng,
        view: &PartialView,
        arena: &mut MsgArena,
        slot: u32,
        id: MsgId,
        payload: Payload,
        round: u32,
    ) -> Option<GossipStep> {
        self.forward(rng, view, arena, slot, id, payload, round)
    }

    /// `Forward(i, d, r)` (line 5): deliver, remember, and relay to `f`
    /// sampled peers at round `r + 1` while `r < t`.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        rng: &mut Rng,
        view: &PartialView,
        arena: &mut MsgArena,
        slot: u32,
        id: MsgId,
        payload: Payload,
        round: u32,
    ) -> Option<GossipStep> {
        if !arena.mark_known(slot) {
            return None; // line 13: i ∈ K
        }
        // line 9: PeerSample(f) while r < t; sampling nothing draws nothing.
        let fanout = if round < self.rounds { self.fanout } else { 0 };
        Some(GossipStep {
            id,
            payload,
            round,
            targets: view.sample(rng, fanout),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::GossipLayer;
    use crate::arena::MsgArena;
    use crate::config::ProtocolConfig;
    use crate::id::MsgId;
    use crate::msg::Payload;
    use egm_membership::{PartialView, ViewConfig};
    use egm_rng::Rng;
    use egm_simnet::NodeId;
    use std::collections::HashSet;

    fn setup(fanout: usize, peers: usize) -> (GossipLayer, MsgArena, PartialView, Rng) {
        let config = ProtocolConfig::default().with_fanout(fanout).with_rounds(3);
        let gossip = GossipLayer::new(&config);
        let arena = MsgArena::new(config.known_capacity, config.cache_capacity, false);
        let mut view = PartialView::new(
            NodeId(0),
            ViewConfig {
                capacity: 15,
                shuffle_size: 5,
            },
        );
        for i in 1..=peers {
            view.insert(NodeId(i));
        }
        (gossip, arena, view, Rng::seed_from_u64(9))
    }

    fn payload() -> Payload {
        Payload { seq: 7, bytes: 256 }
    }

    #[test]
    fn multicast_fans_out_to_f_distinct_peers() {
        let (gossip, mut arena, view, mut rng) = setup(4, 10);
        let (_slot, step) = gossip.multicast(&mut rng, &view, &mut arena, payload());
        assert_eq!(step.targets.len(), 4);
        let targets: HashSet<_> = step.targets.iter().collect();
        assert_eq!(targets.len(), 4, "targets must be distinct");
        assert_eq!(step.relay_round(), 1);
        assert!(arena.knows(&step.id));
    }

    #[test]
    fn duplicates_are_dropped() {
        let (gossip, mut arena, view, mut rng) = setup(3, 5);
        let id = MsgId::from_raw(42);
        let slot = arena.intern(id);
        let first = gossip.on_l_receive(&mut rng, &view, &mut arena, slot, id, payload(), 1);
        assert!(first.is_some());
        let second = gossip.on_l_receive(&mut rng, &view, &mut arena, slot, id, payload(), 2);
        assert!(second.is_none(), "duplicate must not deliver again");
        assert_eq!(arena.known_count(), 1);
    }

    #[test]
    fn forwarding_stops_at_round_t() {
        let (gossip, mut arena, view, mut rng) = setup(3, 5);
        // rounds = 3: r = 2 still forwards, r = 3 does not.
        let id = MsgId::from_raw(1);
        let slot = arena.intern(id);
        let step = gossip
            .on_l_receive(&mut rng, &view, &mut arena, slot, id, payload(), 2)
            .expect("new message");
        assert_eq!(step.targets.len(), 3);
        assert_eq!(step.relay_round(), 3);
        let id2 = MsgId::from_raw(2);
        let slot2 = arena.intern(id2);
        let stopped = gossip
            .on_l_receive(&mut rng, &view, &mut arena, slot2, id2, payload(), 3)
            .expect("new message");
        assert!(stopped.targets.is_empty(), "r >= t must not relay");
    }

    #[test]
    fn small_view_limits_fanout() {
        let (gossip, mut arena, view, mut rng) = setup(11, 3);
        let (_slot, step) = gossip.multicast(&mut rng, &view, &mut arena, payload());
        assert_eq!(step.targets.len(), 3, "fanout capped by view size");
    }

    #[test]
    fn delivery_round_is_the_arrival_round() {
        let (gossip, mut arena, view, mut rng) = setup(2, 4);
        let id = MsgId::from_raw(3);
        let slot = arena.intern(id);
        let step = gossip
            .on_l_receive(&mut rng, &view, &mut arena, slot, id, payload(), 2)
            .expect("new message");
        assert_eq!(step.round, 2);
        assert_eq!(step.payload, payload());
    }
}
