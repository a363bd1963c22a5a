//! 96-bit EPC identifiers and the TagBreathe identity layout.
//!
//! TagBreathe overwrites each monitoring tag's 96-bit EPC with a **64-bit
//! user ID followed by a 32-bit short tag ID** (Figure 9 of the paper), so a
//! read can be classified by user and by tag without any lookup. Overwriting
//! is a standard C1G2 Write operation; for deployments where it is not
//! possible, [`MappingTable`](crate::mapping::MappingTable) provides the
//! fallback the paper describes.

use std::fmt;
use std::str::FromStr;

/// A 96-bit EPC, stored as user-ID and tag-ID words.
///
/// # Examples
///
/// ```
/// use tagbreathe_epcgen2::epc::Epc96;
///
/// let epc = Epc96::monitor(0xDEAD_BEEF, 3);
/// assert_eq!(epc.user_id(), 0xDEAD_BEEF);
/// assert_eq!(epc.tag_id(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epc96 {
    user: u64,
    tag: u32,
}

impl Epc96 {
    /// Builds a TagBreathe monitoring EPC: 64-bit user ID + 32-bit tag ID.
    pub const fn monitor(user_id: u64, tag_id: u32) -> Self {
        Epc96 {
            user: user_id,
            tag: tag_id,
        }
    }

    /// Builds an EPC from the raw 96-bit big-endian byte representation.
    pub fn from_bytes(bytes: [u8; 12]) -> Self {
        let mut user = [0u8; 8];
        let mut tag = [0u8; 4];
        for (dst, src) in user.iter_mut().zip(&bytes) {
            *dst = *src;
        }
        for (dst, src) in tag.iter_mut().zip(bytes.iter().skip(8)) {
            *dst = *src;
        }
        Epc96 {
            user: u64::from_be_bytes(user),
            tag: u32::from_be_bytes(tag),
        }
    }

    /// The raw 96-bit big-endian byte representation.
    pub fn to_bytes(self) -> [u8; 12] {
        let mut out = [0u8; 12];
        let words = self
            .user
            .to_be_bytes()
            .into_iter()
            .chain(self.tag.to_be_bytes());
        for (dst, src) in out.iter_mut().zip(words) {
            *dst = src;
        }
        out
    }

    /// The 64-bit user-ID field.
    pub const fn user_id(self) -> u64 {
        self.user
    }

    /// The 32-bit short tag-ID field.
    pub const fn tag_id(self) -> u32 {
        self.tag
    }
}

impl fmt::Display for Epc96 {
    /// Formats as 24 hex digits, the conventional EPC notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016X}{:08X}", self.user, self.tag)
    }
}

/// Error parsing an EPC from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEpcError {
    what: &'static str,
}

impl fmt::Display for ParseEpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid EPC: {}", self.what)
    }
}

impl std::error::Error for ParseEpcError {}

impl FromStr for Epc96 {
    type Err = ParseEpcError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 24 {
            return Err(ParseEpcError {
                what: "expected 24 hex digits",
            });
        }
        let user = u64::from_str_radix(&s[..16], 16).map_err(|_| ParseEpcError {
            what: "non-hex character in user-ID field",
        })?;
        let tag = u32::from_str_radix(&s[16..], 16).map_err(|_| ParseEpcError {
            what: "non-hex character in tag-ID field",
        })?;
        Ok(Epc96 { user, tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_layout_fields() {
        let epc = Epc96::monitor(42, 7);
        assert_eq!(epc.user_id(), 42);
        assert_eq!(epc.tag_id(), 7);
    }

    #[test]
    fn byte_round_trip() {
        let epc = Epc96::monitor(0x0123_4567_89AB_CDEF, 0xFEDC_BA98);
        assert_eq!(Epc96::from_bytes(epc.to_bytes()), epc);
    }

    #[test]
    fn bytes_are_big_endian_user_then_tag() {
        let epc = Epc96::monitor(1, 2);
        let b = epc.to_bytes();
        assert_eq!(b[7], 1);
        assert_eq!(b[11], 2);
        assert!(b[..7].iter().all(|&x| x == 0));
    }

    #[test]
    fn display_is_24_hex_digits() {
        let epc = Epc96::monitor(0xDEAD_BEEF, 0x1234);
        let s = epc.to_string();
        assert_eq!(s.len(), 24);
        assert_eq!(s, "00000000DEADBEEF00001234");
    }

    #[test]
    fn parse_round_trip() -> Result<(), &'static str> {
        let epc = Epc96::monitor(0xA1B2_C3D4_E5F6_0718, 0x2938_4756);
        let parsed: Epc96 = epc.to_string().parse().map_err(|_| "parse failed")?;
        assert_eq!(parsed, epc);
        Ok(())
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("1234".parse::<Epc96>().is_err());
        assert!("ZZZZZZZZZZZZZZZZZZZZZZZZ".parse::<Epc96>().is_err());
        assert!("00000000DEADBEEF0000123".parse::<Epc96>().is_err());
        assert!(matches!("xy".parse::<Epc96>(), Err(e) if e.to_string().contains("invalid EPC")));
    }

    #[test]
    fn ordering_groups_by_user_first() {
        let a = Epc96::monitor(1, 99);
        let b = Epc96::monitor(2, 0);
        assert!(a < b);
    }
}
