//! The application log of a run: every multicast and every delivery the
//! nodes report.
//!
//! The paper logs "all messages multicast and delivered ... for later
//! processing" (§5.3). Nodes report both through their
//! [`Context`](crate::Context) ([`Context::log_multicast`],
//! [`Context::log_delivery`]) and the engine keeps them, one log per
//! shard, so a node holds no record buffer and each delivery is held once.
//! Deliveries are by far the larger stream (one per node per message), so
//! they go into a [`DeliveryStream`]: fixed-size chunks that are never
//! reallocated and can be freed one by one as a reader drains them.
//!
//! [`Context::log_multicast`]: crate::Context::log_multicast
//! [`Context::log_delivery`]: crate::Context::log_delivery

use crate::time::SimTime;
use crate::NodeId;

/// An application message multicast by one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulticastRecord {
    /// Harness sequence number of the message.
    pub seq: u64,
    /// Virtual multicast time.
    pub time: SimTime,
    node: u32,
}

impl MulticastRecord {
    pub(crate) fn new(seq: u64, time: SimTime, node: NodeId) -> Self {
        MulticastRecord {
            seq,
            time,
            node: node.index() as u32,
        }
    }

    /// The multicasting node.
    pub fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }
}

/// An application message delivered at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Harness sequence number of the message.
    pub seq: u64,
    /// Virtual delivery time.
    pub time: SimTime,
    node: u32,
    /// Hops the message travelled to this node (0 = the source's own
    /// delivery).
    pub round: u32,
}

impl DeliveryRecord {
    pub(crate) fn new(seq: u64, time: SimTime, node: NodeId, round: u32) -> Self {
        DeliveryRecord {
            seq,
            time,
            node: node.index() as u32,
            round,
        }
    }

    /// The delivering node.
    pub fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }
}

/// Records per [`DeliveryStream`] chunk: 16 384 × 24 B = 384 KiB.
const CHUNK: usize = 1 << 14;

/// Append-only stream of [`DeliveryRecord`]s in fixed-size chunks.
///
/// A push fills the last chunk and starts a new one when it is full, so
/// the stream never moves or regrows a buffer: growing one large buffer
/// by doubling copies it and leaves the freed block behind, resident,
/// while the copy is live. Consuming the stream
/// ([`IntoIterator`]) frees each chunk as soon as it is drained.
///
/// # Examples
///
/// ```
/// use egm_simnet::DeliveryStream;
///
/// let stream = DeliveryStream::default();
/// assert_eq!(stream.iter().count(), 0);
/// assert_eq!(stream.into_iter().count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct DeliveryStream {
    /// Every chunk but the last is full, except where [`Self::append`]
    /// joined two streams.
    chunks: Vec<Vec<DeliveryRecord>>,
}

impl DeliveryStream {
    /// Appends one record.
    #[inline]
    pub(crate) fn push(&mut self, record: DeliveryRecord) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
    }

    /// Moves every chunk of `other` behind this stream's, copying no
    /// record.
    pub(crate) fn append(&mut self, other: DeliveryStream) {
        self.chunks.extend(other.chunks);
    }

    /// The records in push order.
    pub fn iter(&self) -> impl Iterator<Item = &DeliveryRecord> {
        self.chunks.iter().flatten()
    }
}

impl IntoIterator for DeliveryStream {
    type Item = DeliveryRecord;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<DeliveryRecord>>>;

    /// Drains the records in push order, freeing each chunk once its last
    /// record is taken.
    fn into_iter(self) -> Self::IntoIter {
        self.chunks.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::{DeliveryRecord, DeliveryStream, CHUNK};
    use crate::{NodeId, SimTime};

    fn record(i: usize) -> DeliveryRecord {
        DeliveryRecord::new(i as u64, SimTime::from_micros(i as u64), NodeId(i % 7), 1)
    }

    #[test]
    fn records_stay_24_bytes() {
        assert_eq!(std::mem::size_of::<DeliveryRecord>(), 24);
    }

    #[test]
    fn chunks_are_allocated_once_and_never_regrown() {
        let mut stream = DeliveryStream::default();
        let total = 2 * CHUNK + 5;
        for i in 0..total {
            stream.push(record(i));
        }
        assert_eq!(stream.iter().count(), total);
        assert_eq!(stream.chunks.len(), 3);
        for chunk in &stream.chunks {
            assert_eq!(chunk.capacity(), CHUNK, "a chunk was regrown");
        }
        assert!(stream.iter().enumerate().all(|(i, r)| *r == record(i)));
        let drained: Vec<DeliveryRecord> = stream.into_iter().collect();
        assert_eq!(drained.len(), total);
        assert!(drained.iter().enumerate().all(|(i, r)| *r == record(i)));
    }

    #[test]
    fn append_keeps_both_streams_in_order() {
        let mut a = DeliveryStream::default();
        let mut b = DeliveryStream::default();
        for i in 0..3 {
            a.push(record(i));
        }
        for i in 3..5 {
            b.push(record(i));
        }
        a.append(b);
        assert_eq!(a.iter().count(), 5);
        assert!(a.into_iter().enumerate().all(|(i, r)| r == record(i)));
    }
}
