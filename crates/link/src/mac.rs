//! Tag addressing for the paper's §6 multi-tag extension: the address a
//! downlink command carries, one tag's ID or broadcast to every tag in range.

/// A tag identifier. `0xFF` is reserved for broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u8);

/// Destination address of a downlink command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagAddress {
    /// One specific tag.
    Unicast(TagId),
    /// Every tag in range.
    Broadcast,
}

impl TagAddress {
    /// Wire representation (broadcast = 0xFF).
    pub fn wire_byte(&self) -> u8 {
        match self {
            TagAddress::Unicast(TagId(id)) => *id,
            TagAddress::Broadcast => 0xFF,
        }
    }

    /// Parses the wire byte.
    pub fn from_wire_byte(b: u8) -> TagAddress {
        if b == 0xFF {
            TagAddress::Broadcast
        } else {
            TagAddress::Unicast(TagId(b))
        }
    }

    /// Whether a tag with `id` should accept a message with this address.
    pub fn matches(&self, id: TagId) -> bool {
        match self {
            TagAddress::Broadcast => true,
            TagAddress::Unicast(t) => *t == id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_wire_roundtrip() {
        for b in 0u8..=255 {
            let a = TagAddress::from_wire_byte(b);
            assert_eq!(a.wire_byte(), b);
        }
    }

    #[test]
    fn broadcast_matches_everyone() {
        assert!(TagAddress::Broadcast.matches(TagId(0)));
        assert!(TagAddress::Broadcast.matches(TagId(200)));
    }

    #[test]
    fn unicast_matches_only_target() {
        let a = TagAddress::Unicast(TagId(7));
        assert!(a.matches(TagId(7)));
        assert!(!a.matches(TagId(8)));
    }
}
