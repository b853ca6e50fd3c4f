//! Shuffle wire messages.

use egm_simnet::NodeId;

/// Most entries one [`ShuffleMsg`] carries, and so the upper bound on
/// [`crate::ViewConfig::shuffle_size`]. A constant, not configuration:
/// it fixes the inline entry table that keeps the message `Copy` (the
/// paper's testbed exchanges 5).
pub const MAX_SHUFFLE: usize = 8;

/// A node id as the `u32` the inline tables store.
pub(crate) fn raw_id(id: NodeId) -> u32 {
    u32::try_from(id.index()).expect("node id must fit u32")
}

/// The node id an inline table entry stands for.
pub(crate) fn node_id(raw: u32) -> NodeId {
    NodeId(raw as usize)
}

/// A membership shuffle exchange (Cyclon-style).
///
/// A node periodically offers a random subset of its view (including its
/// own id) to a random neighbor, which answers with a subset of its own
/// view; both sides merge what they learn. These are control messages —
/// the embedding node's [`egm_simnet::Wire`] implementation reports them
/// as non-payload so they never count toward the paper's payload/msg
/// metric.
///
/// The message is plain `Copy` data: up to [`MAX_SHUFFLE`] peer ids held
/// inline as `u32`, so sending, queueing and handling a shuffle allocates
/// and frees nothing. Equality compares the carried entries only, never
/// the unused tail of the table.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleMsg {
    reply: bool,
    len: u8,
    entries: [u32; MAX_SHUFFLE],
}

impl PartialEq for ShuffleMsg {
    fn eq(&self, other: &Self) -> bool {
        self.reply == other.reply && self.raw_entries() == other.raw_entries()
    }
}

impl Eq for ShuffleMsg {}

impl ShuffleMsg {
    /// An offer of view entries; the receiver should reply.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SHUFFLE`] entries or an id
    /// does not fit `u32`.
    pub fn request(entries: &[NodeId]) -> Self {
        Self::from_ids(false, entries)
    }

    /// An answer carrying the partner's view entries.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SHUFFLE`] entries or an id
    /// does not fit `u32`.
    pub fn reply(entries: &[NodeId]) -> Self {
        Self::from_ids(true, entries)
    }

    fn from_ids(reply: bool, ids: &[NodeId]) -> Self {
        let mut msg = ShuffleMsg::empty(reply);
        for id in ids {
            msg.push(raw_id(*id));
        }
        msg
    }

    pub(crate) fn empty(reply: bool) -> Self {
        ShuffleMsg {
            reply,
            len: 0,
            entries: [0; MAX_SHUFFLE],
        }
    }

    /// Appends one entry.
    pub(crate) fn push(&mut self, peer: u32) {
        assert!(
            (self.len as usize) < MAX_SHUFFLE,
            "a shuffle message carries at most MAX_SHUFFLE = {MAX_SHUFFLE} entries"
        );
        self.entries[self.len as usize] = peer;
        self.len += 1;
    }

    /// Keeps the first `len` entries.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len as usize {
            self.len = len as u8;
        }
    }

    pub(crate) fn raw_entries(&self) -> &[u32] {
        &self.entries[..self.len as usize]
    }

    /// Whether this is the answer to a request (no further reply is due).
    pub fn is_reply(&self) -> bool {
        self.reply
    }

    /// The peer ids carried, in offer order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.raw_entries().iter().copied().map(node_id)
    }

    /// Number of peer entries carried.
    pub fn entry_count(&self) -> usize {
        self.len as usize
    }

    /// Approximate wire size in bytes (8 bytes per entry + 4 byte tag).
    pub fn wire_bytes(&self) -> u32 {
        4 + 8 * self.entry_count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::{ShuffleMsg, MAX_SHUFFLE};
    use egm_simnet::NodeId;

    #[test]
    fn entry_count_and_size() {
        let req = ShuffleMsg::request(&[NodeId(1), NodeId(2)]);
        assert_eq!(req.entry_count(), 2);
        assert_eq!(req.wire_bytes(), 20);
        assert!(!req.is_reply());
        let reply = ShuffleMsg::reply(&[]);
        assert_eq!(reply.entry_count(), 0);
        assert_eq!(reply.wire_bytes(), 4);
        assert!(reply.is_reply());
    }

    #[test]
    fn message_is_small_inline_data() {
        // 36 bytes is what lets `EgmMessage` carry it unboxed inside its
        // 40-byte budget.
        assert!(
            std::mem::size_of::<ShuffleMsg>() <= 36,
            "ShuffleMsg grew to {} bytes",
            std::mem::size_of::<ShuffleMsg>()
        );
        fn assert_copy<T: Copy>() {}
        assert_copy::<ShuffleMsg>();
    }

    #[test]
    fn equality_ignores_the_stale_tail() {
        let mut long = ShuffleMsg::request(&[NodeId(1), NodeId(2), NodeId(3)]);
        long.truncate(1);
        assert_eq!(long, ShuffleMsg::request(&[NodeId(1)]));
        assert_ne!(long, ShuffleMsg::reply(&[NodeId(1)]));
        assert_eq!(long.entries().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "MAX_SHUFFLE = 8")]
    fn more_than_max_shuffle_entries_rejected() {
        let ids: Vec<NodeId> = (0..=MAX_SHUFFLE).map(NodeId).collect();
        let _ = ShuffleMsg::request(&ids);
    }
}
