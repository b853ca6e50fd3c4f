//! Deterministic discrete-event network simulator (ModelNet substitute).
//!
//! The paper evaluates its protocol on ModelNet (§5.1): unmodified programs
//! on virtual nodes whose traffic is routed through emulators that apply
//! the delay, bandwidth and loss of an Inet-3.0 model. This crate provides
//! the equivalent substrate for a pure-Rust reproduction: protocol nodes
//! implement [`Protocol`] and exchange messages through a virtual network
//! whose one-way delays come from an [`egm_topology::RoutedModel`] (or a
//! synthetic matrix), with configurable loss, jitter, and node *silencing*
//! — the firewall-rule fault injection of §6.3.
//!
//! Determinism: a single experiment seed drives one xoshiro stream per
//! node plus one network (loss/jitter) stream per *sender*; events at
//! equal timestamps are ordered by an intrinsic `(origin, origin-seq)`
//! key (see [`sim`]). The same scenario always produces byte-identical
//! results (the root integration tests assert this across the full
//! stack). There is one engine, [`Sim`]: on one shard it is the plain
//! sequential event loop, and [`Sim::with_shards`] splits one large run
//! across several shards under conservative time windows with identical
//! outputs for every shard count (see [`shard`]).
//!
//! # Examples
//!
//! ```
//! use egm_simnet::{Context, NodeId, Protocol, Sim, SimConfig, SimDuration, Wire};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Wire for Ping {
//!     fn wire_bytes(&self) -> u32 { 8 }
//! }
//!
//! struct Node;
//! impl Protocol for Node {
//!     type Msg = Ping;
//!     fn on_receive(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {}
//! }
//!
//! let mut sim = Sim::new(SimConfig::uniform(2, 10.0), 42, vec![Node, Node]);
//! sim.send_external(NodeId(0), NodeId(1), Ping);
//! sim.run_for(SimDuration::from_ms(100.0));
//! assert_eq!(sim.traffic().total_messages(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod net;
pub mod progress;
pub mod record;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod wire;

pub use event::{CalendarQueue, EventQueue, Fault, HeapQueue, QueueKind, QueueStats, Scheduled};
pub use net::{Network, SimConfig};
pub use progress::{NoopSink, ProgressEvent, ProgressSink, SharedSink};
pub use record::{DeliveryRecord, DeliveryStream, MulticastRecord};
pub use shard::{Partition, PartitionStrategy, ShardStats};
pub use sim::{Context, Protocol, Sim, TimerTag, TimerToken};
pub use stats::{FoldStats, Traffic};
pub use time::{SimDuration, SimTime};
pub use wire::Wire;

/// Identifier of a simulated protocol node (dense, `0..n`).
///
/// # Examples
///
/// ```
/// use egm_simnet::NodeId;
/// let a = NodeId(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(a.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
