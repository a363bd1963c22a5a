//! EPC-to-route interning: the fleet's user-ID partitioner and hot-path
//! route cache.
//!
//! The streaming hot path used to resolve every report through the identity
//! resolver (a linear scan for [`epcgen2::mapping::EmbeddedIdentity`]) and then a
//! `BTreeMap::entry` per-user lookup. The fleet engine replaces both with
//! one open-addressed probe over a flat table of 24-byte entries: EPC bits
//! in, a [`Route`] out — which shard owns the user, the dense slot the user's
//! state occupies on that shard, and the short tag ID. Unknown EPCs (item
//! tags) are cached too, so contending item traffic costs one probe instead
//! of one resolver scan per read.
//!
//! Admission (cache miss) is the cold path: it consults the real resolver,
//! assigns the user a shard via [`shard_of_user`] and a dense slot from the
//! shard's counter, and inserts the route. The table is kept at most half
//! full and grows by rebuild, so probes always terminate.

/// Sentinel shard value marking an empty table entry.
const SHARD_EMPTY: u32 = u32::MAX;
/// Sentinel shard value caching a "not a monitoring tag" resolution.
const SHARD_UNKNOWN: u32 = u32::MAX - 1;

/// Where a report goes after identity resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A monitoring tag: shard index, dense user slot on that shard, and
    /// the resolved short tag ID.
    User {
        /// Index of the owning shard.
        shard: u32,
        /// Dense per-shard slot of the user's stream state.
        slot: u32,
        /// Resolved short tag ID.
        tag_id: u32,
    },
    /// Not a monitoring tag (item traffic or unresolvable EPC).
    Unknown,
}

/// Deterministic user-to-shard partitioner (SplitMix64 finalizer, reduced
/// modulo the shard count). Stable across runs and shard layouts, so the
/// same user always lands on the same shard for a given fleet width.
#[must_use]
pub fn shard_of_user(user_id: u64, n_shards: usize) -> u32 {
    let n = n_shards.max(1) as u64;
    u32::try_from(mix(user_id) % n).unwrap_or(0)
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ z >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ z >> 31
}

fn hash_epc(user_bits: u64, tag_bits: u32) -> u64 {
    mix(user_bits ^ u64::from(tag_bits).rotate_left(32))
}

/// One table entry of [`IdentityCache`]: the EPC key and its cached route,
/// 24 bytes, so a probe reads one cache line. `shard` holds the sentinels.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    user: u64,
    tag: u32,
    shard: u32,
    slot: u32,
    tag_id: u32,
}

impl RouteEntry {
    const EMPTY: RouteEntry = RouteEntry {
        user: 0,
        tag: 0,
        shard: SHARD_EMPTY,
        slot: 0,
        tag_id: 0,
    };

    fn route(self) -> Route {
        if self.shard == SHARD_UNKNOWN {
            return Route::Unknown;
        }
        Route::User {
            shard: self.shard,
            slot: self.slot,
            tag_id: self.tag_id,
        }
    }
}

/// Open-addressed EPC → [`Route`] cache over one flat table of entries.
///
/// Linear probing, power-of-two capacity, ≤ 50 % load factor. The probe is
/// allocation-free and panic-free; all growth happens on the cold admission
/// path.
#[derive(Debug)]
pub struct IdentityCache {
    entries: Vec<RouteEntry>,
    len: usize,
}

impl Default for IdentityCache {
    fn default() -> Self {
        Self::new()
    }
}

impl IdentityCache {
    /// An empty cache with a small initial table.
    #[must_use]
    pub fn new() -> Self {
        Self::with_pow2_capacity(64)
    }

    fn with_pow2_capacity(capacity: usize) -> Self {
        IdentityCache {
            entries: vec![RouteEntry::EMPTY; capacity],
            len: 0,
        }
    }

    fn mask(&self) -> u64 {
        (self.entries.len() as u64).saturating_sub(1)
    }

    /// Hot-path lookup: the route cached for this EPC, or `None` on a miss
    /// (the caller then takes the cold admission path).
    #[must_use]
    pub fn probe(&self, user_bits: u64, tag_bits: u32) -> Option<Route> {
        let mask = self.mask();
        let mut at = hash_epc(user_bits, tag_bits) & mask;
        loop {
            let entry = self.entries.get(at as usize)?;
            if entry.shard == SHARD_EMPTY {
                return None;
            }
            if entry.user == user_bits && entry.tag == tag_bits {
                return Some(entry.route());
            }
            at = at.wrapping_add(1) & mask;
        }
    }

    /// Cold path: caches `route` for this EPC, growing the table if needed.
    /// A duplicate key overwrites the cached route.
    pub fn admit_route(&mut self, user_bits: u64, tag_bits: u32, route: Route) {
        if (self.len + 1) * 2 > self.entries.len() {
            self.grow_table();
        }
        let (shard, slot, tag_id) = match route {
            Route::User {
                shard,
                slot,
                tag_id,
            } => (shard, slot, tag_id),
            Route::Unknown => (SHARD_UNKNOWN, 0, 0),
        };
        self.place(RouteEntry {
            user: user_bits,
            tag: tag_bits,
            shard,
            slot,
            tag_id,
        });
    }

    /// Cached route count (including cached Unknown resolutions).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been admitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `new` into its key's entry, or into the first empty one on
    /// its probe sequence, counting a new key.
    fn place(&mut self, new: RouteEntry) {
        let mask = self.mask();
        let mut at = hash_epc(new.user, new.tag) & mask;
        loop {
            let Some(entry) = self.entries.get_mut(at as usize) else {
                return; // unreachable: `at` is masked into the table
            };
            let empty = entry.shard == SHARD_EMPTY;
            if empty || (entry.user == new.user && entry.tag == new.tag) {
                *entry = new;
                self.len += usize::from(empty);
                return;
            }
            at = at.wrapping_add(1) & mask;
        }
    }

    fn grow_table(&mut self) {
        let bigger = Self::with_pow2_capacity(self.entries.len().max(32) * 2);
        let old = std::mem::replace(self, bigger);
        for entry in old.entries {
            if entry.shard != SHARD_EMPTY {
                self.place(entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut cache = IdentityCache::new();
        assert_eq!(cache.probe(1, 2), None);
        let route = Route::User {
            shard: 3,
            slot: 9,
            tag_id: 2,
        };
        cache.admit_route(1, 2, route);
        assert_eq!(cache.probe(1, 2), Some(route));
        assert_eq!(cache.probe(1, 3), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn caches_unknown_routes() {
        let mut cache = IdentityCache::new();
        cache.admit_route(u64::MAX, 5, Route::Unknown);
        assert_eq!(cache.probe(u64::MAX, 5), Some(Route::Unknown));
    }

    #[test]
    fn overwrite_does_not_double_count() {
        let mut cache = IdentityCache::new();
        cache.admit_route(7, 1, Route::Unknown);
        cache.admit_route(
            7,
            1,
            Route::User {
                shard: 0,
                slot: 4,
                tag_id: 1,
            },
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.probe(7, 1),
            Some(Route::User {
                shard: 0,
                slot: 4,
                tag_id: 1
            })
        );
    }

    #[test]
    fn survives_growth_with_many_keys() {
        let mut cache = IdentityCache::new();
        for user in 0..10_000u64 {
            for tag in 0..3u32 {
                cache.admit_route(
                    user,
                    tag,
                    Route::User {
                        shard: shard_of_user(user, 4),
                        slot: u32::try_from(user).unwrap_or(0),
                        tag_id: tag,
                    },
                );
            }
        }
        assert_eq!(cache.len(), 30_000);
        for user in (0..10_000u64).step_by(997) {
            let got = cache.probe(user, 1);
            assert_eq!(
                got,
                Some(Route::User {
                    shard: shard_of_user(user, 4),
                    slot: u32::try_from(user).unwrap_or(0),
                    tag_id: 1
                }),
                "user {user}"
            );
        }
    }

    #[test]
    fn matches_a_map_at_flood_scale() {
        use prng::{Rng, Xoshiro256};
        use std::collections::HashMap;
        // A cache's observable contract is a map's: a probe returns the
        // last route admitted for its key, and `len` counts keys.
        let mut rng = Xoshiro256::seed_from_u64(300_000);
        let random_route = |rng: &mut Xoshiro256| {
            if rng.gen_f64() < 0.3 {
                Route::Unknown
            } else {
                let word = |rng: &mut Xoshiro256| u32::try_from(rng.next_u64() >> 40).unwrap_or(0);
                Route::User {
                    shard: word(rng) % 8,
                    slot: word(rng),
                    tag_id: word(rng),
                }
            }
        };
        let (mut cache, mut model) = (IdentityCache::new(), HashMap::new());
        // 300k keys: 80k dense users with three tags each, as the flood
        // sends, and 60k random EPCs.
        let mut keys: Vec<(u64, u32)> = (0..80_000u64)
            .flat_map(|user| (0..3).map(move |tag| (user, tag)))
            .collect();
        keys.extend((0..60_000).map(|_| {
            (
                rng.next_u64(),
                u32::try_from(rng.next_u64() >> 32).unwrap_or(0),
            )
        }));
        for &(user, tag) in &keys {
            let route = random_route(&mut rng);
            cache.admit_route(user, tag, route);
            model.insert((user, tag), route);
        }
        assert_eq!(cache.len(), model.len());
        assert_eq!(cache.len(), 300_000);
        // Overwrites once the table has grown: the count holds.
        for _ in 0..50_000 {
            let (user, tag) = keys[rng.gen_range(0..keys.len())];
            let route = random_route(&mut rng);
            cache.admit_route(user, tag, route);
            model.insert((user, tag), route);
        }
        assert_eq!(cache.len(), 300_000);
        for (&(user, tag), &route) in &model {
            assert_eq!(cache.probe(user, tag), Some(route), "key ({user}, {tag})");
        }
        // Absent keys: unseen tags of known users, and random EPCs.
        for _ in 0..100_000 {
            let (user, tag) = if rng.gen_bool() {
                (u64::try_from(rng.gen_range(0..80_000)).unwrap_or(0), 3)
            } else {
                (rng.next_u64(), 7)
            };
            assert_eq!(cache.probe(user, tag), model.get(&(user, tag)).copied());
        }
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for user in 0..1000u64 {
            let s = shard_of_user(user, 8);
            assert!(s < 8);
            assert_eq!(s, shard_of_user(user, 8));
        }
        assert_eq!(shard_of_user(42, 1), 0);
        assert_eq!(shard_of_user(42, 0), 0);
    }

    #[test]
    fn partitioner_spreads_users() {
        let mut counts = [0usize; 4];
        for user in 0..4000u64 {
            if let Some(c) = counts.get_mut(shard_of_user(user, 4) as usize) {
                *c += 1;
            }
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!((700..=1300).contains(&c), "shard {shard} got {c}");
        }
    }
}
