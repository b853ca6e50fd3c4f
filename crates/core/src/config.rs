//! Protocol configuration.

use egm_membership::ViewConfig;
use egm_simnet::SimDuration;

/// Configuration of one protocol node.
///
/// Defaults follow the paper's testbed (§5.2–§5.3): gossip fanout 11,
/// overlay (view) fanout 15, 400 ms retransmission period, 256-byte
/// payloads with a 24-byte NeEM header.
///
/// # Examples
///
/// ```
/// use egm_core::ProtocolConfig;
///
/// let config = ProtocolConfig::default().with_fanout(7).with_rounds(4);
/// assert_eq!(config.fanout, 7);
/// assert_eq!(config.rounds, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Gossip fanout `f`: targets per forwarding step (11 in §5.2).
    pub fanout: usize,
    /// Maximum relay count `t` (Fig. 2 forwards while `r < t`).
    pub rounds: u32,
    /// Retransmission period `T` between repeated `IWANT`s (400 ms in
    /// §5.2 — the minimum that still yields ≈1 payload per destination
    /// under pure lazy push).
    pub retry_interval: SimDuration,
    /// Application payload size in bytes (256 in §5.3).
    pub payload_bytes: u32,
    /// Per-message protocol header in bytes (NeEM uses 24, §5.3).
    pub header_bytes: u32,
    /// Partial-view configuration (capacity 15 in §5.2).
    pub view: ViewConfig,
    /// Interval between membership shuffles; `None` freezes the overlay.
    pub shuffle_interval: Option<SimDuration>,
    /// Interval between runtime-monitor ping rounds; `None` disables the
    /// runtime monitor (oracle monitors need no traffic).
    pub ping_interval: Option<SimDuration>,
    /// Capacity of the payload cache `C` (Fig. 3); oldest entries are
    /// evicted first. Must comfortably exceed the number of in-flight
    /// messages.
    pub cache_capacity: usize,
    /// Capacity of the duplicate-suppression sets `K` and `R`.
    pub known_capacity: usize,
    /// Horizon after which a *delivered* message's arena slot is retired
    /// (freed for reuse), bounding per-node message state to the
    /// in-flight window instead of the run's total message count.
    ///
    /// `None` (the default, and the paper's behavior) keeps state for the
    /// whole run, bounded only by FIFO eviction at `known_capacity`. When
    /// set, the horizon must exceed the worst-case time between a
    /// message's delivery and the last protocol event that references it
    /// anywhere (late duplicates, `IHAVE`s, `IWANT`s) — roughly gossip
    /// depth × (link delay + retry interval); a late `IWANT` past the
    /// horizon is answered with a cache miss. With an ample horizon a
    /// retire-enabled run is byte-identical to a retire-disabled one: the
    /// sweep schedules no events and draws no randomness.
    pub retire_after: Option<SimDuration>,
    /// NeEM-style redundancy suppression: skip transmitting a message
    /// (payload or advertisement) to a peer that is already known to hold
    /// it, i.e. a peer we received the payload or an `IHAVE` from. The
    /// paper's pseudocode (Fig. 2/3) does not include this, so it
    /// defaults to `false`; NeEM 0.5's user-space buffer purging has the
    /// same effect, and the `ablation` bench quantifies it.
    pub suppress_known: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            fanout: 11,
            rounds: 6,
            retry_interval: SimDuration::from_ms(400.0),
            payload_bytes: 256,
            header_bytes: 24,
            view: ViewConfig::default(),
            shuffle_interval: Some(SimDuration::from_ms(1000.0)),
            ping_interval: None,
            cache_capacity: 8192,
            known_capacity: 16384,
            retire_after: None,
            suppress_known: false,
        }
    }
}

impl ProtocolConfig {
    /// Sets the gossip fanout (builder style).
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the maximum relay count `t` (builder style).
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Freezes or enables overlay shuffling (builder style).
    pub fn with_shuffle_interval(mut self, interval: Option<SimDuration>) -> Self {
        self.shuffle_interval = interval;
        self
    }

    /// Sets the delivered-message retirement horizon (builder style). See
    /// [`ProtocolConfig::retire_after`] for the contract the horizon must
    /// satisfy.
    pub fn with_retire_after(mut self, horizon: Option<SimDuration>) -> Self {
        self.retire_after = horizon;
        self
    }

    /// Validates invariants that the protocol relies on.
    ///
    /// # Panics
    ///
    /// Panics if the fanout is zero, the fanout exceeds the view capacity
    /// (the peer sampling service cannot return more peers than it holds),
    /// the view configuration is out of bounds (see
    /// [`ViewConfig::validate`]), or any capacity is zero.
    pub fn validate(&self) {
        self.view.validate();
        assert!(self.fanout > 0, "fanout must be positive");
        assert!(
            self.fanout <= self.view.capacity,
            "gossip fanout {} exceeds overlay fanout {}",
            self.fanout,
            self.view.capacity
        );
        assert!(self.cache_capacity > 0, "cache capacity must be positive");
        assert!(self.known_capacity > 0, "known capacity must be positive");
        assert!(
            self.retry_interval > SimDuration::ZERO,
            "retry interval must be positive"
        );
        if let Some(horizon) = self.retire_after {
            assert!(
                horizon >= self.retry_interval,
                "retirement horizon must cover at least one retry interval"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ProtocolConfig;
    use egm_simnet::SimDuration;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = ProtocolConfig::default();
        assert_eq!(c.fanout, 11);
        assert_eq!(c.view.capacity, 15);
        assert_eq!(c.retry_interval, SimDuration::from_ms(400.0));
        assert_eq!(c.payload_bytes, 256);
        assert_eq!(c.header_bytes, 24);
        c.validate();
    }

    #[test]
    fn builder_chains() {
        let c = ProtocolConfig {
            retry_interval: SimDuration::from_ms(100.0),
            ping_interval: Some(SimDuration::from_ms(500.0)),
            ..ProtocolConfig::default()
        }
        .with_fanout(5)
        .with_rounds(3)
        .with_shuffle_interval(None);
        assert_eq!(c.fanout, 5);
        assert_eq!(c.rounds, 3);
        assert!(c.shuffle_interval.is_none());
        assert!(c.ping_interval.is_some());
        c.validate();
    }

    #[test]
    fn retirement_defaults_off_and_validates_horizon() {
        let c = ProtocolConfig::default();
        assert!(c.retire_after.is_none(), "paper behavior by default");
        let c = c.with_retire_after(Some(SimDuration::from_ms(10_000.0)));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retirement horizon")]
    fn sub_retry_horizon_rejected() {
        ProtocolConfig::default()
            .with_retire_after(Some(SimDuration::from_ms(10.0)))
            .validate();
    }

    #[test]
    #[should_panic(expected = "exceeds overlay fanout")]
    fn fanout_cannot_exceed_view() {
        ProtocolConfig::default().with_fanout(16).validate();
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_VIEW (32)")]
    fn oversized_view_rejected() {
        let mut config = ProtocolConfig::default();
        config.view.capacity = egm_membership::MAX_VIEW + 1;
        config.validate();
    }

    #[test]
    #[should_panic(expected = "outside 1..=MAX_SHUFFLE (8)")]
    fn oversized_shuffle_rejected() {
        let mut config = ProtocolConfig::default();
        config.view.shuffle_size = egm_membership::MAX_SHUFFLE + 1;
        config.validate();
    }

    #[test]
    #[should_panic(expected = "fanout must be positive")]
    fn zero_fanout_rejected() {
        ProtocolConfig::default().with_fanout(0).validate();
    }
}
