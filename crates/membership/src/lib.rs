//! Peer sampling service: partial-view membership with periodic shuffle.
//!
//! The paper's gossip layer assumes a peer sampling service \[10\] that
//! returns a uniform sample of `f` other nodes (`PeerSample(f)`, Fig. 2),
//! implemented in its testbed by NeEM's overlay management with *overlay
//! fanout 15* and periodic shuffling of peers with neighbors (§5.2, §6.1).
//!
//! This crate provides [`PartialView`], a bounded view of the overlay with
//! a Cyclon-style shuffle: each node periodically exchanges a random subset
//! of its view with a random neighbor, keeping the overlay a continuously
//! re-randomized connected graph. The embedding protocol (the `egm-core`
//! node) drives the view with a timer and routes [`ShuffleMsg`]s; tests and
//! deterministic experiments may instead freeze the overlay with
//! [`PartialView::set_static`].
//!
//! # Memory layout
//!
//! A node touches its view on every gossip forward and every shuffle, so
//! both types are plain data and allocation-free by construction: a
//! [`PartialView`] is an 8-byte header plus an inline table of
//! [`MAX_VIEW`]` = 32` peer ids stored as `u32` (a 15-peer view spans
//! two cache lines), a [`ShuffleMsg`] is `Copy` with up to
//! [`MAX_SHUFFLE`]` = 8` ids inline, and samples and shuffle subsets are
//! drawn into stack arrays ([`PeerSample`]). The two constants bound
//! [`ViewConfig`] and are enforced by [`ViewConfig::validate`]; they are
//! not configuration. Equality on both types compares the live prefix of
//! the table only.
//!
//! # Examples
//!
//! ```
//! use egm_membership::{bootstrap_views, ViewConfig};
//! use egm_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(1);
//! let views = bootstrap_views(10, &ViewConfig::default(), &mut rng);
//! let sample = views[0].sample(&mut rng, 3);
//! assert_eq!(sample.len(), 3);
//! assert!(sample.iter().all(|peer| peer != egm_simnet::NodeId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod reference;
mod shuffle;
mod view;

pub use shuffle::{ShuffleMsg, MAX_SHUFFLE};
pub use view::{bootstrap_views, PartialView, PeerSample, ViewConfig, MAX_VIEW};
