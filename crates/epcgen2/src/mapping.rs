//! Identity resolution: EPC → (user, tag).
//!
//! The paper's preferred path overwrites tag EPCs with the user-ID/tag-ID
//! layout; where a deployment cannot rewrite EPCs, the reader host keeps a
//! lookup table from factory EPCs to identities (Section IV-C). Both are
//! provided behind one trait so the pipeline is agnostic.

use crate::epc::Epc96;
use std::collections::HashMap;

/// A resolved tag identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagIdentity {
    /// A breath-monitoring tag worn by a user.
    Monitor {
        /// The wearer's 64-bit user ID.
        user_id: u64,
        /// The tag's 32-bit short ID (unique per user).
        tag_id: u32,
    },
    /// A tag not associated with any monitored user (e.g. an item label).
    Unknown,
}

/// Resolves raw EPCs to identities.
///
/// The streaming engine calls [`IdentityResolver::resolve`] once per
/// report, so it sits on the per-report path: [`OpenAdmission`], the
/// ingest server's default, is a field decode, [`EmbeddedIdentity`] a
/// binary search and [`MappingTable`] a `HashMap` get.
pub trait IdentityResolver {
    /// Classifies an EPC.
    fn resolve(&self, epc: Epc96) -> TagIdentity;
}

/// Resolver for overwritten EPCs: the identity is embedded in the EPC
/// itself (Figure 9). A set of known user IDs distinguishes monitoring tags
/// from unrelated tags that happen to be in range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmbeddedIdentity {
    /// Sorted and deduplicated, for binary search.
    known_users: Vec<u64>,
}

impl EmbeddedIdentity {
    /// Creates a resolver accepting the given user IDs, in any order and
    /// with any repeats.
    pub fn new(known_users: impl IntoIterator<Item = u64>) -> Self {
        let mut known_users: Vec<u64> = known_users.into_iter().collect();
        known_users.sort_unstable();
        known_users.dedup();
        EmbeddedIdentity { known_users }
    }
}

impl IdentityResolver for EmbeddedIdentity {
    fn resolve(&self, epc: Epc96) -> TagIdentity {
        if self.known_users.binary_search(&epc.user_id()).is_ok() {
            TagIdentity::Monitor {
                user_id: epc.user_id(),
                tag_id: epc.tag_id(),
            }
        } else {
            TagIdentity::Unknown
        }
    }
}

/// Resolver that admits *every* EPC as a monitoring tag via the embedded
/// layout. This is the ingest-server default: a deployment-wide service
/// cannot enumerate its user population up front, so admission control
/// moves to the reader hosts (which only commission monitoring tags) and
/// the server trusts the embedded identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenAdmission;

impl IdentityResolver for OpenAdmission {
    fn resolve(&self, epc: Epc96) -> TagIdentity {
        TagIdentity::Monitor {
            user_id: epc.user_id(),
            tag_id: epc.tag_id(),
        }
    }
}

/// Fallback resolver: an explicit factory-EPC → identity table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MappingTable {
    entries: HashMap<Epc96, (u64, u32)>,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory EPC as a monitoring tag.
    ///
    /// Returns the previous identity if the EPC was already registered.
    pub fn insert(&mut self, epc: Epc96, user_id: u64, tag_id: u32) -> Option<(u64, u32)> {
        self.entries.insert(epc, (user_id, tag_id))
    }

    /// Removes a registration.
    pub fn remove(&mut self, epc: Epc96) -> Option<(u64, u32)> {
        self.entries.remove(&epc)
    }

    /// Number of registered tags.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl IdentityResolver for MappingTable {
    fn resolve(&self, epc: Epc96) -> TagIdentity {
        match self.entries.get(&epc) {
            Some(&(user_id, tag_id)) => TagIdentity::Monitor { user_id, tag_id },
            None => TagIdentity::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_resolver_accepts_known_users() {
        let r = EmbeddedIdentity::new([1, 2]);
        assert_eq!(
            r.resolve(Epc96::monitor(1, 5)),
            TagIdentity::Monitor {
                user_id: 1,
                tag_id: 5
            }
        );
        assert_eq!(r.resolve(Epc96::monitor(9, 5)), TagIdentity::Unknown);
    }

    #[test]
    fn embedded_resolver_matches_a_linear_scan() {
        use prng::{Rng, Xoshiro256};
        for seed in 0..16 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            // Draw order, with repeats: ids come from a narrow range, plus
            // the extremes of the id space.
            let mut ids: Vec<u64> = (0..rng.gen_range(0..300))
                .map(|_| rng.gen_range(0..200) as u64)
                .collect();
            if rng.gen_bool() {
                ids.extend([u64::MAX, 0, u64::MAX]);
            }
            let resolver = EmbeddedIdentity::new(ids.iter().copied());
            let probes = (0..220).chain([u64::MAX - 1, u64::MAX, rng.next_u64()]);
            for user in probes {
                let tag = (rng.next_u64() >> 32) as u32;
                let want = if ids.contains(&user) {
                    TagIdentity::Monitor {
                        user_id: user,
                        tag_id: tag,
                    }
                } else {
                    TagIdentity::Unknown
                };
                let got = resolver.resolve(Epc96::monitor(user, tag));
                assert_eq!(got, want, "seed {seed}, user {user}");
            }
        }
    }

    #[test]
    fn mapping_table_resolves_registered_epcs() {
        let mut t = MappingTable::new();
        let factory = Epc96::monitor(0xFFFF_0000_1234_5678, 0xABCD_EF01);
        assert!(t.is_empty());
        t.insert(factory, 3, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.resolve(factory),
            TagIdentity::Monitor {
                user_id: 3,
                tag_id: 1
            }
        );
        assert_eq!(t.resolve(Epc96::monitor(0, 0)), TagIdentity::Unknown);
    }

    #[test]
    fn mapping_table_insert_returns_previous() {
        let mut t = MappingTable::new();
        let e = Epc96::monitor(10, 10);
        assert_eq!(t.insert(e, 1, 1), None);
        assert_eq!(t.insert(e, 2, 2), Some((1, 1)));
        assert_eq!(t.remove(e), Some((2, 2)));
        assert_eq!(t.remove(e), None);
    }

    #[test]
    fn both_resolvers_agree_on_monitor_semantics() {
        // An overwritten EPC resolved via EmbeddedIdentity must match the
        // mapping-table registration of the same tag.
        let epc = Epc96::monitor(7, 2);
        let embedded = EmbeddedIdentity::new([7]);
        let mut table = MappingTable::new();
        table.insert(epc, 7, 2);
        assert_eq!(embedded.resolve(epc), table.resolve(epc));
    }
}
