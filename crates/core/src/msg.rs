//! Wire messages of the combined gossip + payload-scheduler protocol.

use crate::config::ProtocolConfig;
use crate::id::MsgId;
use egm_membership::ShuffleMsg;
use egm_simnet::Wire;

/// Application payload descriptor.
///
/// The simulator does not ship actual bytes; a payload is its experiment
/// sequence number (used by the measurement harness to match deliveries to
/// multicasts) plus its declared size, which drives byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Payload {
    /// Harness-assigned multicast sequence number.
    pub seq: u64,
    /// Application payload size in bytes (256 in the paper, §5.3).
    pub bytes: u32,
}

/// Messages exchanged by protocol nodes.
///
/// `Msg`, `IHave` and `IWant` are the three message kinds of the Lazy
/// Point-to-Point module (Fig. 3); `Shuffle` carries the peer sampling
/// service; `Ping`/`Pong` feed the runtime performance monitor (§3.2's
/// note that the monitor *"may be required to exchange messages with its
/// peers, for instance, to measure roundtrip delays"*).
#[derive(Debug, Clone, PartialEq)]
pub enum EgmMessage {
    /// `MSG(i, d, r)` — full payload transmission at gossip round `r`.
    Msg {
        /// Message identifier.
        id: MsgId,
        /// The payload.
        payload: Payload,
        /// Gossip round the payload is travelling at.
        round: u32,
    },
    /// `IHAVE(i)` — advertisement that the sender holds payload `i`.
    IHave {
        /// Advertised message identifier.
        id: MsgId,
    },
    /// `IWANT(i)` — request for the payload of a previously advertised
    /// message.
    IWant {
        /// Requested message identifier.
        id: MsgId,
    },
    /// Membership shuffle traffic.
    ///
    /// Carried inline. Shuffles are not rare — 21 % of all events on the
    /// 10k preset with 30 messages, 88 % on the 100k one-message run —
    /// so a box per message was a malloc/free pair and a cold line on a
    /// fifth of the event loop or more. The `Copy` [`ShuffleMsg`] is 36
    /// bytes, the size of the `Msg` variant's fields, so it fits the
    /// 40-byte budget every event-queue entry pays for (pinned by
    /// `message_stays_small_for_the_event_queue`).
    Shuffle(ShuffleMsg),
    /// Round-trip probe from the runtime performance monitor.
    Ping {
        /// Send time in microseconds, echoed back in the pong.
        sent_us: u64,
    },
    /// Echo of a [`EgmMessage::Ping`].
    Pong {
        /// The probe's original send time in microseconds.
        sent_us: u64,
    },
}

impl EgmMessage {
    /// Computes this message's wire size under the given protocol framing
    /// configuration.
    pub fn size_with(&self, config: &ProtocolConfig) -> u32 {
        match self {
            EgmMessage::Msg { payload, .. } => config.header_bytes + payload.bytes,
            EgmMessage::IHave { .. } | EgmMessage::IWant { .. } => {
                config.header_bytes + MsgId::WIRE_BYTES
            }
            EgmMessage::Shuffle(s) => config.header_bytes + s.wire_bytes(),
            EgmMessage::Ping { .. } | EgmMessage::Pong { .. } => config.header_bytes + 8,
        }
    }
}

impl Wire for EgmMessage {
    fn wire_bytes(&self) -> u32 {
        // Wire accounting must not depend on per-node configuration, so
        // the default NeEM framing (24-byte header, §5.3) is used here;
        // `size_with` exists for configurations that change framing.
        self.size_with(&ProtocolConfig::default())
    }

    fn is_payload(&self) -> bool {
        matches!(self, EgmMessage::Msg { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::{EgmMessage, Payload};
    use crate::config::ProtocolConfig;
    use crate::id::MsgId;
    use egm_membership::ShuffleMsg;
    use egm_simnet::{NodeId, Wire};

    fn msg() -> EgmMessage {
        EgmMessage::Msg {
            id: MsgId::from_raw(1),
            payload: Payload { seq: 0, bytes: 256 },
            round: 2,
        }
    }

    #[test]
    fn payload_carries_neem_header() {
        // §5.3: 256-byte payload + 24-byte NeEM header.
        assert_eq!(msg().wire_bytes(), 280);
        assert!(msg().is_payload());
    }

    #[test]
    fn control_messages_are_small_and_not_payload() {
        let ihave = EgmMessage::IHave {
            id: MsgId::from_raw(2),
        };
        let iwant = EgmMessage::IWant {
            id: MsgId::from_raw(2),
        };
        assert_eq!(ihave.wire_bytes(), 40);
        assert_eq!(iwant.wire_bytes(), 40);
        assert!(!ihave.is_payload());
        assert!(!iwant.is_payload());
        let ping = EgmMessage::Ping { sent_us: 5 };
        assert_eq!(ping.wire_bytes(), 32);
        assert!(!ping.is_payload());
    }

    #[test]
    fn shuffle_size_scales_with_entries() {
        let s = EgmMessage::Shuffle(ShuffleMsg::request(&[NodeId(1), NodeId(2), NodeId(3)]));
        assert_eq!(s.wire_bytes(), 24 + 4 + 24);
        assert!(!s.is_payload());
    }

    #[test]
    fn message_stays_small_for_the_event_queue() {
        // Every in-flight message sits in the simulator's event heap;
        // regressions here directly slow the event loop. 40 bytes =
        // 16 (MsgId) + 16 (Payload) + 4 (round) + discriminant; the
        // inline Shuffle variant (36 bytes, align 4) fits the same 40.
        assert!(
            std::mem::size_of::<EgmMessage>() <= 40,
            "EgmMessage grew to {} bytes",
            std::mem::size_of::<EgmMessage>()
        );
        assert!(
            std::mem::align_of::<EgmMessage>() <= 8,
            "EgmMessage alignment grew (u128 field crept back in?)"
        );
    }

    #[test]
    fn size_with_respects_custom_header() {
        let config = ProtocolConfig {
            header_bytes: 100,
            ..ProtocolConfig::default()
        };
        assert_eq!(msg().size_with(&config), 356);
    }
}
