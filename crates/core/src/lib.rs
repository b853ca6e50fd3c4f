//! Epidemic multicast with emergent structure — a Rust reproduction of
//! *"Emergent Structure in Unstructured Epidemic Multicast"* (Carvalho,
//! Pereira, Oliveira, Rodrigues — DSN 2007).
//!
//! Epidemic (gossip) multicast relays every message to `f` random peers,
//! achieving resilience and balanced load at the cost of many redundant
//! payload transmissions. Structured multicast builds a spanning tree for
//! efficiency but must rebuild it on failure. The paper combines both: a
//! **Payload Scheduler** below an unmodified push gossip layer decides,
//! per exchange, whether to push the payload *eagerly* or merely advertise
//! it (*lazy push*, `IHAVE`/`IWANT`). Because lazy paths lose the race
//! against eager ones, scheduling payload onto selected nodes and links
//! makes an efficient dissemination structure **emerge** from the gossip
//! protocol — without tree maintenance, and without touching gossip's
//! probabilistic guarantees.
//!
//! # Crate layout
//!
//! * [`gossip`] — the push gossip protocol (paper Fig. 2), strategy
//!   oblivious.
//! * [`scheduler`] — the Lazy Point-to-Point module (paper Fig. 3).
//! * [`strategy`] — `Eager?` policies: Flat, TTL, Radius, Ranked, the
//!   hybrid Combined (§6.4) and the Adaptive extension, each a
//!   [`StrategySpec`] variant built into one closed [`Strategy`], with an
//!   optional traffic-preserving noise step (§4.3).
//! * [`monitor`] — `Metric(p)` providers: model-file oracles (latency /
//!   distance) and a ping-based runtime monitor.
//! * [`rank`] — best-node (hub) selection for Ranked/Combined: the
//!   O(n²) oracle, sampled centrality, and the decentralized
//!   gossip-sorted ranking, behind one [`RankSource`] switch.
//! * [`node`] — [`EgmNode`], the full protocol node running on
//!   [`egm_simnet`].
//!
//! # Examples
//!
//! Disseminate one message among 16 nodes with the Ranked strategy:
//!
//! ```
//! use egm_core::monitor::{Monitor, NullMonitor};
//! use egm_core::{EgmNode, ProtocolConfig, StrategySpec};
//! use egm_membership::bootstrap_views;
//! use egm_rng::Rng;
//! use egm_simnet::{NodeId, Sim, SimConfig, SimDuration, SimTime};
//!
//! let config = ProtocolConfig::default().with_fanout(5).with_shuffle_interval(None);
//! let spec = StrategySpec::Ranked { best_fraction: 0.25 };
//! let best = egm_core::rank::BestSet::from_ids(16, &[NodeId(0), NodeId(1)]).shared();
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let views = bootstrap_views(16, &config.view, &mut rng);
//! let nodes: Vec<EgmNode> = views
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, view)| {
//!         EgmNode::new(
//!             NodeId(i),
//!             config.clone(),
//!             view,
//!             spec.build(Some(best.clone())),
//!             Monitor::Null(NullMonitor),
//!         )
//!     })
//!     .collect();
//!
//! let mut sim = Sim::new(SimConfig::uniform(16, 10.0), 42, nodes);
//! sim.schedule_command(SimTime::from_ms(1.0), NodeId(3), 0);
//! sim.run_for(SimDuration::from_ms(5000.0));
//!
//! let mut delivered: Vec<NodeId> = sim.deliveries().map(|d| d.node()).collect();
//! delivered.sort();
//! delivered.dedup();
//! assert_eq!(delivered.len(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod config;
pub mod gossip;
pub mod id;
pub mod monitor;
pub mod msg;
pub mod node;
pub mod rank;
pub mod scheduler;
pub mod strategy;

pub use config::ProtocolConfig;
pub use id::MsgId;
pub use monitor::MonitorSpec;
pub use msg::{EgmMessage, Payload};
pub use node::{EgmNode, PublishChain};
pub use rank::{BestSet, RankSource};
pub use scheduler::SchedulerStats;
pub use strategy::{Strategy, StrategySpec};
