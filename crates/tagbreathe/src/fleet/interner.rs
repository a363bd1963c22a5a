//! The router's lookup tables: the fleet's user-ID partitioner, the
//! user table, and the per-EPC route cache.
//!
//! TagBreathe overwrites each EPC with a 64-bit user ID and a 32-bit tag
//! ID (Figure 9) and fuses a user's tags per bin (Eq. 6), so everything
//! after identification is keyed by user. The router resolves every report
//! ([`crate::demux::classify`]) and looks its user up in one
//! `ProbeTable` from user ID to the owning shard and the dense slot the
//! user's state occupies there. A miss is the cold path, once per user: it
//! assigns the shard via [`shard_of_user`] and the next dense slot from
//! the shard's counter, and inserts the placement.
//!
//! [`IdentityCache`] is the same table keyed by EPC bits, caching one
//! [`Route`] per EPC, unknown EPCs included. The router used to consult it
//! before the resolver; perfbench's layered replay still models that
//! per-EPC router with it.

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

/// A key of a [`ProbeTable`]: compared by value, placed by its hash.
pub(crate) trait ProbeKey: Copy + Eq {
    /// Spreads the key over 64 bits; the table keeps the low bits.
    fn hash(self) -> u64;
}

/// A user ID.
impl ProbeKey for u64 {
    fn hash(self) -> u64 {
        mix(self)
    }
}

/// An EPC as its (user bits, tag bits) words.
impl ProbeKey for (u64, u32) {
    fn hash(self) -> u64 {
        mix(self.0 ^ u64::from(self.1).rotate_left(32))
    }
}

/// Open-addressed map over one flat table of entries.
///
/// Linear probing, power-of-two capacity, at most half full, so a probe
/// always reaches an empty entry. [`ProbeTable::get`] allocates nothing and
/// cannot panic; all growth happens in [`ProbeTable::insert`], by rebuild.
#[derive(Debug)]
pub(crate) struct ProbeTable<K, V> {
    entries: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K: ProbeKey, V: Copy> ProbeTable<K, V> {
    /// An empty table of 64 entries.
    pub(crate) fn new() -> Self {
        Self::with_capacity(64)
    }

    fn with_capacity(capacity: usize) -> Self {
        ProbeTable {
            entries: vec![None; capacity],
            len: 0,
        }
    }

    /// The entry `key` hashes to, and the mask that wraps a probe.
    fn start(&self, key: K) -> (usize, usize) {
        let mask = self.entries.len().saturating_sub(1);
        (key.hash() as usize & mask, mask)
    }

    /// The value stored for `key`.
    pub(crate) fn get(&self, key: K) -> Option<V> {
        let (mut at, mask) = self.start(key);
        loop {
            match self.entries.get(at)? {
                Some((k, v)) if *k == key => return Some(*v),
                Some(_) => at = (at + 1) & mask,
                None => return None,
            }
        }
    }

    /// Stores `value` for `key`, replacing any value stored before;
    /// doubles the table first if it would become more than half full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if (self.len + 1) * 2 > self.entries.len() {
            let bigger = Self::with_capacity(self.entries.len().max(32) * 2);
            let old = std::mem::replace(self, bigger);
            for (k, v) in old.entries.into_iter().flatten() {
                self.place(k, v);
            }
        }
        self.place(key, value);
    }

    /// Writes `(key, value)` into `key`'s entry, or into the first empty
    /// one on its probe sequence, counting a new key.
    fn place(&mut self, key: K, value: V) {
        let (mut at, mask) = self.start(key);
        while let Some(entry) = self.entries.get_mut(at) {
            match entry {
                Some((k, _)) if *k != key => at = (at + 1) & mask,
                _ => {
                    self.len += usize::from(entry.is_none());
                    *entry = Some((key, value));
                    return;
                }
            }
        }
    }

    /// Number of keys stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

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

/// Open-addressed EPC → [`Route`] cache: the router's probe table, keyed
/// by the EPC's (user bits, tag bits).
///
/// The probe is allocation-free and panic-free; all growth happens when a
/// route is admitted.
#[derive(Debug)]
pub struct IdentityCache {
    routes: ProbeTable<(u64, u32), Route>,
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
        IdentityCache {
            routes: ProbeTable::new(),
        }
    }

    /// Hot-path lookup: the route cached for this EPC, or `None` on a miss.
    #[must_use]
    pub fn probe(&self, user_bits: u64, tag_bits: u32) -> Option<Route> {
        self.routes.get((user_bits, tag_bits))
    }

    /// Cold path: caches `route` for this EPC, growing the table if needed.
    /// A duplicate key overwrites the cached route.
    pub fn admit_route(&mut self, user_bits: u64, tag_bits: u32, route: Route) {
        self.routes.insert((user_bits, tag_bits), route);
    }

    /// Cached route count (including cached Unknown resolutions).
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when nothing has been admitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.len() == 0
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
    fn user_table_matches_a_map_at_flood_scale() {
        use prng::{Rng, Xoshiro256};
        use std::collections::HashMap;
        // The router's instance: 100k dense user ids, as the flood sends,
        // and 20k random ones, each placed once; then absent ids.
        let mut rng = Xoshiro256::seed_from_u64(100_000);
        let (mut table, mut model) = (ProbeTable::new(), HashMap::new());
        let users = (0..100_000u64).chain((0..20_000).map(|_| rng.next_u64()));
        for (slot, user) in (0u32..).zip(users) {
            let placed = (shard_of_user(user, 2), slot);
            table.insert(user, placed);
            model.insert(user, placed);
        }
        assert_eq!(table.len(), model.len());
        for (&user, &placed) in &model {
            assert_eq!(table.get(user), Some(placed), "user {user}");
        }
        for _ in 0..50_000 {
            let user = rng.next_u64();
            assert_eq!(table.get(user), model.get(&user).copied());
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
