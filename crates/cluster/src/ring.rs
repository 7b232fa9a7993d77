//! Consistent-hash ring with virtual nodes.
//!
//! Each shard projects `vnodes` points onto a 64-bit hash circle; a key is
//! owned by the shard whose point follows the key's hash (wrapping at the
//! top). The classic properties the cluster layer leans on:
//!
//! * **Total** — every key maps to exactly one live shard;
//! * **Stable** — the mapping is a pure function of the member set, so two
//!   replicas that agree on the view agree on every lookup;
//! * **Minimal movement** — adding a shard only *steals* keys (every moved
//!   key moves *to* the newcomer), removing one only *redistributes its
//!   own* keys; everything else stays put;
//! * **Balance** — with enough virtual nodes the shards own comparable
//!   slices of the circle.
//!
//! Hashing is FNV-1a (64-bit) with a 64-bit avalanche finalizer: tiny,
//! dependency-free, deterministic across runs and platforms — the same
//! reasons the rest of the workspace sticks to seeded arithmetic
//! generators. The finalizer matters: raw FNV-1a maps keys that differ
//! only in their last characters to hashes separated by small multiples of
//! the FNV prime (~2^40), which parks entire `obj-000..obj-NNN` namespaces
//! on a single arc of the circle.

/// Identifies one coordinator shard. Shard ids double as control-plane node
/// ids: shard `i` is driven by membership/election node `i`.
pub type ShardId = usize;

/// The most virtual nodes a ring takes per shard. The cluster refuses a
/// larger count when it is built, and a metalog record that carries one
/// (or zero) is corrupt, so no byte on disk can make a restart build a
/// ring it cannot hold.
pub const MAX_VNODES: usize = 4096;

/// True when a ring can take `vnodes` points per shard: 1 to
/// [`MAX_VNODES`].
pub(crate) fn vnodes_in_range(vnodes: usize) -> bool {
    (1..=MAX_VNODES).contains(&vnodes)
}

/// Mix the final bits so a one-byte change avalanches across the whole
/// word (the 64-bit finalizer popularized by MurmurHash3).
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// 64-bit FNV-1a over `bytes` ([`rain_storage::name_hash`]),
/// avalanche-finalized for ring placement.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fmix64(rain_storage::name_hash(bytes))
}

/// A consistent-hash ring over a set of shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point; ties broken by shard id so
    /// construction order never matters.
    points: Vec<(u64, ShardId)>,
    /// The member shards, sorted and deduplicated.
    shards: Vec<ShardId>,
    /// Virtual nodes per shard.
    vnodes: usize,
}

impl HashRing {
    /// Build a ring over `shards` with `vnodes` points per shard.
    ///
    /// # Panics
    /// If `vnodes` is zero or above [`MAX_VNODES`].
    pub fn new(shards: &[ShardId], vnodes: usize) -> Self {
        assert!(
            vnodes_in_range(vnodes),
            "a ring needs 1 to MAX_VNODES points per shard, not {vnodes}"
        );
        let mut members: Vec<ShardId> = shards.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &s in &members {
            for v in 0..vnodes {
                points.push((fnv1a(format!("shard-{s}#vnode-{v}").as_bytes()), s));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: members,
            vnodes,
        }
    }

    /// The member shards, sorted.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// True when the ring has no members (every lookup returns `None`).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `key`: the first ring point at or after the key's
    /// hash, wrapping past the top. `None` only on an empty ring.
    pub fn lookup(&self, key: &str) -> Option<ShardId> {
        if self.points.is_empty() {
            return None;
        }
        let h = fnv1a(key.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[i % self.points.len()];
        Some(shard)
    }

    /// A ring over the same vnode count with `shard` added.
    pub fn with_shard(&self, shard: ShardId) -> HashRing {
        let mut members = self.shards.clone();
        members.push(shard);
        HashRing::new(&members, self.vnodes)
    }

    /// A ring over the same vnode count with `shard` removed.
    pub fn without_shard(&self, shard: ShardId) -> HashRing {
        let members: Vec<ShardId> = self
            .shards
            .iter()
            .copied()
            .filter(|&s| s != shard)
            .collect();
        HashRing::new(&members, self.vnodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_total_and_construction_order_free() {
        let a = HashRing::new(&[3, 1, 7], 32);
        let b = HashRing::new(&[7, 3, 1, 3], 32);
        assert_eq!(a, b, "order and duplicates must not matter");
        for i in 0..200 {
            let key = format!("key-{i}");
            let owner = a.lookup(&key).unwrap();
            assert!(a.shards().contains(&owner));
            assert_eq!(a.lookup(&key), b.lookup(&key), "lookups must be stable");
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(&[], 16);
        assert!(ring.is_empty());
        assert_eq!(ring.lookup("anything"), None);
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(&[5], 16);
        for i in 0..50 {
            assert_eq!(ring.lookup(&format!("k{i}")), Some(5));
        }
    }

    #[test]
    fn adding_a_shard_only_steals_keys() {
        let old = HashRing::new(&[0, 1, 2], 64);
        let new = old.with_shard(3);
        for i in 0..500 {
            let key = format!("obj-{i}");
            let before = old.lookup(&key).unwrap();
            let after = new.lookup(&key).unwrap();
            assert!(
                after == before || after == 3,
                "{key} moved {before} -> {after}, not to the newcomer"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_redistributes_its_keys() {
        let old = HashRing::new(&[0, 1, 2, 3], 64);
        let new = old.without_shard(2);
        for i in 0..500 {
            let key = format!("obj-{i}");
            let before = old.lookup(&key).unwrap();
            let after = new.lookup(&key).unwrap();
            if before != 2 {
                assert_eq!(before, after, "{key} moved although its owner stayed");
            } else {
                assert_ne!(after, 2);
            }
        }
    }
}
