//! Probabilistically unique message identifiers.

use egm_rng::Rng;

/// A 128-bit random message identifier.
///
/// The paper's `MkId()` (Fig. 2) generates identifiers that are *"unique
/// with high probability, as conflicts will cause deliveries to be
/// omitted"*; the NeEM implementation uses probabilistically unique 128-bit
/// strings (§5.2), which is exactly what this type is.
///
/// # Examples
///
/// ```
/// use egm_core::MsgId;
/// use egm_rng::Rng;
///
/// let mut rng = Rng::seed_from_u64(1);
/// let a = MsgId::generate(&mut rng);
/// let b = MsgId::generate(&mut rng);
/// assert_ne!(a, b);
/// ```
// Stored as (hi, lo) u64 halves rather than one u128: a u128 field makes
// the whole enum of wire messages 16-byte aligned, growing every
// event-queue entry in the simulator's BinaryHeap. The derived Ord over
// (hi, lo) is lexicographic, i.e. identical to the u128 ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(u64, u64);

impl MsgId {
    /// Wire size of an identifier in bytes.
    pub const WIRE_BYTES: u32 = 16;

    /// Draws a fresh random identifier (`MkId()` in Fig. 2).
    pub fn generate(rng: &mut Rng) -> Self {
        let hi = rng.next_u64();
        let lo = rng.next_u64();
        MsgId(hi, lo)
    }

    /// Builds an identifier from a raw value (useful in tests).
    pub const fn from_raw(raw: u128) -> Self {
        MsgId((raw >> 64) as u64, raw as u64)
    }

    /// The raw 128-bit value.
    pub const fn as_raw(self) -> u128 {
        ((self.0 as u128) << 64) | self.1 as u128
    }
}

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.as_raw())
    }
}

#[cfg(test)]
mod tests {
    use super::MsgId;
    use egm_rng::Rng;
    use std::collections::HashSet;

    #[test]
    fn generated_ids_are_distinct() {
        let mut rng = Rng::seed_from_u64(1);
        let ids: HashSet<MsgId> = (0..10_000).map(|_| MsgId::generate(&mut rng)).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn raw_round_trip() {
        let id = MsgId::from_raw(0xDEAD_BEEF);
        assert_eq!(id.as_raw(), 0xDEAD_BEEF);
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let id = MsgId::from_raw(0xF);
        assert_eq!(id.to_string().len(), 32);
        assert!(id.to_string().ends_with('f'));
    }
}
