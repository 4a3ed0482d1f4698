//! Circular ID-space arithmetic.
//!
//! The ID space has size `N = 2^bits` ("N is the maximum number of nodes
//! the overlay can accommodate, i.e. the size of ID space", §4.1); all
//! arithmetic is modulo `N` and *clockwise* means increasing IDs.
//!
//! It also holds [`IdHasher`], the deterministic integer hasher behind
//! every hot id-keyed map ([`IdMap`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A node or key identifier within an [`IdSpace`]. Stored raw; all
/// interpretation goes through the space.
pub type DhtId = u64;

/// A power-of-two circular identifier space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSpace {
    bits: u32,
}

impl IdSpace {
    /// A space of size `2^bits`.
    ///
    /// # Panics
    /// If `bits` is 0 or greater than 63.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=63).contains(&bits),
            "ID space must have between 1 and 63 bits, got {bits}"
        );
        IdSpace { bits }
    }

    /// The space just large enough to hold `n` nodes with at least the
    /// paper's sparsity (the paper's Figure 3 setup uses `N = 8192` for up
    /// to 8000 nodes; the full system uses `N ≥ 2·n` by default elsewhere).
    pub fn for_capacity(n: u64) -> Self {
        let bits = 64 - n.max(2).next_power_of_two().leading_zeros() - 1;
        IdSpace::new(bits.max(1))
    }

    /// `log₂ N` — also the number of DHT peer levels a node keeps.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The size `N` of the space.
    pub fn size(&self) -> u64 {
        1u64 << self.bits
    }

    /// Reduce an arbitrary value into the space.
    #[inline]
    pub fn wrap(&self, x: u64) -> DhtId {
        x & (self.size() - 1)
    }

    /// True if `x` is a valid ID in this space.
    #[inline]
    pub fn contains(&self, x: DhtId) -> bool {
        x < self.size()
    }

    /// The clockwise distance from `a` to `b`: how far IDs must increase
    /// (mod N) to get from `a` to `b`. Zero iff `a == b`.
    #[inline]
    pub fn clockwise_dist(&self, a: DhtId, b: DhtId) -> u64 {
        debug_assert!(self.contains(a) && self.contains(b));
        self.wrap(b.wrapping_sub(a))
    }

    /// True if `x` lies in the clockwise half-open interval `[from, to)`.
    /// The interval may wrap; `[a, a)` is empty.
    #[inline]
    pub fn in_interval(&self, x: DhtId, from: DhtId, to: DhtId) -> bool {
        if from == to {
            return false;
        }
        self.clockwise_dist(from, x) < self.clockwise_dist(from, to)
    }

    /// The level (1-based) at which node `n` would file a peer `p`:
    /// the unique `i` with `p ∈ [n + 2^(i-1), n + 2^i)`, i.e.
    /// `i = ⌊log₂(clockwise_dist(n, p))⌋ + 1`. Returns `None` for `p == n`.
    #[inline]
    pub fn level_of(&self, n: DhtId, p: DhtId) -> Option<u32> {
        let d = self.clockwise_dist(n, p);
        if d == 0 {
            None
        } else {
            Some(63 - d.leading_zeros() + 1)
        }
    }

    /// The clockwise interval `[n + 2^(i-1), n + 2^i)` of level `i`
    /// (1-based) peers of node `n`, as `(from, to)`.
    #[inline]
    pub fn level_interval(&self, n: DhtId, level: u32) -> (DhtId, DhtId) {
        assert!(
            (1..=self.bits).contains(&level),
            "level must be in 1..={}, got {level}",
            self.bits
        );
        let from = self.wrap(n.wrapping_add(1u64 << (level - 1)));
        let to = self.wrap(n.wrapping_add(1u64 << level));
        (from, to)
    }
}

/// A `HashMap` keyed by simulator-generated integers (node ids, segment
/// ids), hashed with [`IdHasher`] instead of SipHash.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A deterministic multiplicative hasher for integer keys.
///
/// Fx-style: each word is folded into the state with a rotate, xor and
/// a multiply by an odd 64-bit constant. A plain multiply leaves the low
/// bits of the hash depending only on the low bits of the key, so keys
/// that differ only in their high bits (ids on a coarse grid, say) would
/// share one bucket; `finish` therefore rotates the well-mixed middle
/// bits of the product down into the low bits the table indexes by.
///
/// Not HashDoS-resistant, and it need not be: every key it sees is
/// generated by the simulator itself. It carries no per-process seed, so
/// unlike SipHash's `RandomState` it hashes a key the same in every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    /// The odd multiplier (from the Fx family of hashers).
    const K: u64 = 0xf135_7aea_2e62_a9c5;
    /// Brings product bits 44.. down to bit 0 in `finish`. Chosen over
    /// rustc-hash's 26 for its spread of sequential keys (2714 vs 1998
    /// of 4096 buckets filled by 0..4096).
    const ROTATE: u32 = 20;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(Self::ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn id_hash(key: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn id_hasher_outputs_are_pinned() {
        // Fixed values: a per-process seed (`RandomState`) would break
        // these on the next run.
        let got: Vec<u64> = [0u64, 1, 42, 1 << 20, u64::MAX]
            .iter()
            .map(|&k| id_hash(k))
            .collect();
        assert_eq!(got, PINNED_ID_HASHES);
    }

    const PINNED_ID_HASHES: [u64; 5] = [
        0,
        12_583_873_379_513_078_615,
        12_013_847_875_640_962_146,
        7_109_430_090_572_425_774,
        5_862_870_694_197_521_576,
    ];

    /// How many of the 4096 buckets of `hash & 4095` the keys fill.
    fn buckets_filled(keys: impl Iterator<Item = u64>) -> usize {
        let mut hit = vec![false; 4096];
        for k in keys {
            hit[(id_hash(k) & 4095) as usize] = true;
        }
        hit.iter().filter(|&&h| h).count()
    }

    #[test]
    fn id_hasher_spreads_keys_sharing_low_bits() {
        // Keys whose low 20 bits are all zero: a plain multiplicative
        // hash would put every one of them in bucket 0.
        let grid = buckets_filled((0..4096u64).map(|i| i << 20));
        assert!(
            grid >= 2048,
            "i << 20 keys filled only {grid} of 4096 buckets"
        );
    }

    #[test]
    fn id_hasher_spreads_sequential_segment_ids() {
        let seq = buckets_filled(0..4096u64);
        assert!(
            seq >= 2048,
            "sequential keys filled only {seq} of 4096 buckets"
        );
    }

    #[test]
    fn id_map_round_trips() {
        let mut m: IdMap<DhtId, u32> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(i << 20, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m.get(&(i << 20)) == Some(&(i as u32))));
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn size_and_wrap() {
        let s = IdSpace::new(13);
        assert_eq!(s.size(), 8192);
        assert_eq!(s.wrap(8192), 0);
        assert_eq!(s.wrap(8193), 1);
        assert!(s.contains(8191));
        assert!(!s.contains(8192));
    }

    #[test]
    fn for_capacity_gives_enough_room() {
        assert_eq!(IdSpace::for_capacity(8000).size(), 8192);
        assert_eq!(IdSpace::for_capacity(8192).size(), 8192);
        assert_eq!(IdSpace::for_capacity(8193).size(), 16384);
        assert!(IdSpace::for_capacity(1).size() >= 2);
    }

    #[test]
    fn clockwise_distance() {
        let s = IdSpace::new(4); // N = 16
        assert_eq!(s.clockwise_dist(3, 7), 4);
        assert_eq!(s.clockwise_dist(7, 3), 12); // wraps
        assert_eq!(s.clockwise_dist(5, 5), 0);
        assert_eq!(s.clockwise_dist(15, 0), 1);
    }

    #[test]
    fn intervals() {
        let s = IdSpace::new(4);
        assert!(s.in_interval(5, 3, 8));
        assert!(!s.in_interval(8, 3, 8), "interval is half-open");
        assert!(s.in_interval(3, 3, 8), "from is included");
        // Wrapping interval [14, 2): contains 14, 15, 0, 1.
        assert!(s.in_interval(15, 14, 2));
        assert!(s.in_interval(0, 14, 2));
        assert!(!s.in_interval(2, 14, 2));
        assert!(!s.in_interval(7, 14, 2));
        // Empty interval.
        assert!(!s.in_interval(5, 5, 5));
    }

    #[test]
    fn levels_partition_the_ring() {
        // Every non-self ID must fall in exactly one level interval.
        let s = IdSpace::new(6); // N = 64
        let n = 37;
        for p in 0..s.size() {
            if p == n {
                assert_eq!(s.level_of(n, p), None);
                continue;
            }
            let level = s.level_of(n, p).unwrap();
            assert!((1..=6).contains(&level));
            let (from, to) = s.level_interval(n, level);
            assert!(
                s.in_interval(p, from, to),
                "p={p} claims level {level} with interval [{from},{to})"
            );
            // No other level contains it.
            for l in 1..=6 {
                if l != level {
                    let (f, t) = s.level_interval(n, l);
                    assert!(!s.in_interval(p, f, t));
                }
            }
        }
    }

    #[test]
    fn level_interval_matches_paper_formula() {
        let s = IdSpace::new(13); // N = 8192
        let n = 100;
        // Level 1: [n+1, n+2); level 13: [n+4096, n+8192) mod N.
        assert_eq!(s.level_interval(n, 1), (101, 102));
        assert_eq!(s.level_interval(n, 13), (4196, s.wrap(100 + 8192)));
    }

    #[test]
    fn level_interval_wraps() {
        let s = IdSpace::new(4); // N = 16
        let (from, to) = s.level_interval(14, 2); // [14+2, 14+4) = [0, 2)
        assert_eq!((from, to), (0, 2));
    }

    #[test]
    #[should_panic(expected = "level must be in")]
    fn level_out_of_range_panics() {
        let s = IdSpace::new(4);
        let _ = s.level_interval(0, 5);
    }

    #[test]
    #[should_panic(expected = "between 1 and 63")]
    fn zero_bits_panics() {
        let _ = IdSpace::new(0);
    }
}
