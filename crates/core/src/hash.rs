//! Hashing utilities: a fast FxHash-style hasher for lineage grouping and a
//! SplitMix64 bit mixer used both for group fingerprints and for the
//! pseudo-random lineage functions of Section 7.
//!
//! The default `std` hasher (SipHash 1-3) is DoS-resistant but slow for the
//! short integer keys the estimator hashes billions of times; an FxHash-style
//! multiply-xor hasher is the standard replacement in this situation (see the
//! Rust Performance Book's Hashing chapter). Implemented locally (~30 lines)
//! to stay within the approved dependency set.

use std::hash::{BuildHasherDefault, Hasher};

/// Firefox-style (Fx) hasher: wrapping multiply by a golden-ratio constant
/// with rotate-xor mixing. Not DoS-resistant; do not expose to adversarial
/// keys. All keys here are internally generated lineage fingerprints.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_word(i as u64);
        self.add_word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], for use with `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// [`FxHasher`] with the state's high half folded onto its low half at
/// `finish`. Fx's multiply leaves the low bits of the hash a function of
/// the low bits of the key alone, and `HashMap` picks its bucket from the
/// low bits — fine for fingerprints, which are uniform in every bit, but
/// the lineage tables of [`crate::MomentAccumulator`] key single relations
/// by the **raw** row or block id, and ids that share their low bits (every
/// 1024th row surviving a predicate, say) would all probe from one bucket.
#[derive(Debug, Default, Clone)]
pub struct FoldedFxHasher(FxHasher);

impl Hasher for FoldedFxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0.finish();
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0.write_u64(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.0.write_u128(i);
    }
}

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// SplitMix64 finalizer: a high-quality 64-bit bit mixer (Steele et al.).
///
/// Used to turn `(seed, lineage id)` pairs into uniform 64-bit words for the
/// pseudo-random sub-sampling functions of Section 7 ("pseudo-random
/// functions that combine seeds and lineage to provide a \[0,1\] number"), and
/// to build the 128-bit group fingerprints of the `y_S` accumulator.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The keep coin of every sampler that decides by lineage: `id` is kept iff
/// one [`splitmix64`] of `seed ^ id` falls below `p·2⁶⁴`. Under the
/// random-hash model that is Bernoulli(`p`) per id, independently across
/// ids and across seeds, and a pure function of `(seed, id)`: a row gets
/// the same decision whichever worker, scan order or chunk visits it.
/// `p ≥ 1` keeps every id, including the one whose mix is `u64::MAX`.
#[inline]
pub fn coin(seed: u64, p: f64, id: u64) -> bool {
    p >= 1.0 || splitmix64(seed ^ id) < (p * 18_446_744_073_709_551_616.0) as u64
}

/// Two independent 64-bit mixes of `(salt, id)` packed into a `u128`
/// fingerprint. With 128 bits, collision probability among `m` distinct keys
/// is ≈ `m²/2^129` — negligible for any realistic result size.
#[inline]
pub fn fingerprint128(salt: u64, id: u64) -> u128 {
    let lo = splitmix64(id ^ splitmix64(salt));
    let hi = splitmix64(id.wrapping_add(0x9e37_79b9_7f4a_7c15) ^ splitmix64(salt ^ 0xdead_beef));
    ((hi as u128) << 64) | lo as u128
}

/// Per-relation fingerprint salts, shared by every moment accumulator:
/// groupings (and hence moments) computed by [`crate::GroupedMoments`],
/// [`crate::MomentAccumulator`] and shard-local instances must agree, so
/// they all derive their salts here.
pub fn rel_salts(n: usize) -> Vec<u64> {
    (0..n).map(rel_salt).collect()
}

/// The fingerprint salt of relation `i` — one entry of [`rel_salts`].
#[inline]
pub fn rel_salt(i: usize) -> u64 {
    (i as u64).wrapping_mul(0xa076_1d64_78bd_642f)
}

/// The grouping key of subset `s`: per-relation fingerprints combined with
/// wrapping addition (commutative, so the key is set-valued; collisions stay
/// ≈ m²/2¹²⁹ because each fingerprint is already uniform).
#[inline]
pub fn subset_key(fp: &[u128], s: crate::relset::RelSet) -> u128 {
    let mut key = 0u128;
    for i in s.iter() {
        key = key.wrapping_add(fp[i]);
    }
    key
}

/// An insertion-ordered index of keys: each key maps to its **position**,
/// the order it was first inserted in, found by a 64-bit fingerprint of the
/// key with stored-key collision resolution. Keys live in one dense vector;
/// the deterministic splitmix64-finalized Fx hash of a key finds the newest
/// entry bearing that fingerprint, entries sharing one chain through each
/// other, and real key equality decides along the chain — so a fingerprint
/// collision costs one extra comparison, never correctness. A caller that
/// holds a key in another form (a row's key cells) walks the chain with a
/// fingerprint and a predicate of its own (`find`) and appends the key only
/// when it is new (`append`). The splitmix64
/// finalization matters: keys often hash f64 bit patterns whose entropy
/// sits in the high bits, which Fx's multiply-only mixing would leave out of
/// the index's bucket (low) bits.
///
/// Positions are what a progressive readout leans on: a key's position
/// never changes and growth only appends, so "the keys I have not seen yet"
/// is the tail `[known..]` of [`FpMap::iter`], and a position can index
/// per-key state kept elsewhere (an accumulator's slots).
#[derive(Debug, Clone)]
pub struct FpMap<K> {
    entries: Vec<FpEntry<K>>,
    /// Fingerprint → position of the newest entry bearing it.
    heads: FxHashMap<u64, usize>,
}

#[derive(Debug, Clone)]
struct FpEntry<K> {
    key: K,
    /// The next older entry with the same fingerprint.
    next: Option<usize>,
}

impl<K> Default for FpMap<K> {
    fn default() -> Self {
        FpMap {
            entries: Vec::new(),
            heads: FxHashMap::default(),
        }
    }
}

impl<K: Eq + std::hash::Hash> FpMap<K> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The deterministic key fingerprint (a fixed hasher, so independently
    /// built indexes — e.g. shard accumulators — bucket identically).
    #[inline]
    pub fn fingerprint(key: &K) -> u64 {
        use std::hash::BuildHasher;
        splitmix64(FxBuildHasher::default().hash_one(key))
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no key.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of the key stored under fingerprint `fp` that `is`
    /// accepts — the one chain walk: the stored key decides, not the hash.
    #[inline]
    pub(crate) fn find(&self, fp: u64, mut is: impl FnMut(&K) -> bool) -> Option<usize> {
        let mut at = self.heads.get(&fp).copied();
        while let Some(i) = at {
            if is(&self.entries[i].key) {
                return Some(i);
            }
            at = self.entries[i].next;
        }
        None
    }

    /// Append `key` under fingerprint `fp`, at position [`FpMap::len`]. The
    /// caller has just seen [`FpMap::find`] miss it under that `fp`, which
    /// must be what [`FpMap::fingerprint`] gives for `key`.
    pub(crate) fn append(&mut self, fp: u64, key: K) -> usize {
        let at = self.entries.len();
        let next = self.heads.insert(fp, at);
        self.entries.push(FpEntry { key, next });
        at
    }

    /// The position of `key`, if present.
    pub fn get(&self, key: &K) -> Option<usize> {
        self.find(Self::fingerprint(key), |k| k == key)
    }

    /// The position of `key`, appended at [`FpMap::len`] when new (the key
    /// is moved in only then — no clone on the hit path).
    pub fn insert(&mut self, key: K) -> usize {
        let fp = Self::fingerprint(&key);
        match self.find(fp, |k| *k == key) {
            Some(at) => at,
            None => self.append(fp, key),
        }
    }

    /// Iterate over the keys in insertion order: the `i`-th is at
    /// position `i`.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|e| &e.key)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// The `x` with `splitmix64(x) == y`: each step of the finalizer undone
    /// in reverse (an xor-shift by iterating it, a multiply by the odd
    /// constant's inverse mod 2⁶⁴).
    pub(crate) fn splitmix64_inverse(y: u64) -> u64 {
        let unshift = |v: u64, k: u32| (0..64 / k).fold(v, |u, _| v ^ (u >> k));
        let inverse = |m: u64| {
            (0..6).fold(m, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)))
            })
        };
        let mut x = unshift(y, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
        x = unshift(x, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
        unshift(x, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn coin_at_p_one_keeps_the_id_whose_mix_is_all_ones() {
        for seed in [7u64, 0x2545_f491_4f6c_dd1d] {
            let id = splitmix64_inverse(u64::MAX) ^ seed;
            assert_eq!(splitmix64(seed ^ id), u64::MAX, "the inverse is exact");
            assert!(coin(seed, 1.0, id), "p = 1 is not sub-sampled");
            assert!(!coin(seed, 0.999_999, id));
            assert!(!coin(seed, 0.0, splitmix64_inverse(0) ^ seed));
        }
    }

    /// 64 operator seeds × 4096 consecutive ids at three rates, each count
    /// within 5σ of what independent Bernoulli coins give: every seed's
    /// kept count, the agreement of neighbouring ids, and the joint keep
    /// rate of two seeds on one id (two samplers stacked on a relation).
    #[test]
    fn coins_are_bernoulli_per_id_across_neighbours_and_seeds() {
        const SEEDS: u64 = 64;
        const IDS: u64 = 4096;
        let within = |count: u64, n: u64, q: f64, var: f64, what: &str| {
            let (mean, sigma) = (n as f64 * q, var.sqrt());
            assert!(
                (count as f64 - mean).abs() <= 5.0 * sigma,
                "{what}: {count} against {mean:.1} ± 5·{sigma:.2}"
            );
        };
        for (p, p2) in [(0.01, 0.5), (0.5, 0.9), (0.9, 0.01)] {
            let (mut agree, mut joint) = (0u64, 0u64);
            for s in 0..SEEDS {
                let (seed, other) = (splitmix64(s), splitmix64(s + SEEDS));
                let kept: Vec<bool> = (0..IDS).map(|id| coin(seed, p, id)).collect();
                let count = kept.iter().filter(|&&k| k).count() as u64;
                within(count, IDS, p, IDS as f64 * p * (1.0 - p), "kept");
                agree += kept.windows(2).filter(|w| w[0] == w[1]).count() as u64;
                joint += (0..IDS)
                    .filter(|&id| kept[id as usize] && coin(other, p2, id))
                    .count() as u64;
            }
            // Neighbouring agreements overlap: A_i and A_{i+1} share an id,
            // so the variance carries their covariance too.
            let q = p * p + (1.0 - p) * (1.0 - p);
            let cov = p.powi(3) + (1.0 - p).powi(3) - q * q;
            let pairs = SEEDS * (IDS - 1);
            let var = pairs as f64 * q * (1.0 - q) + 2.0 * (SEEDS * (IDS - 2)) as f64 * cov;
            within(agree, pairs, q, var, "lag-1 agreement");
            let pq = p * p2;
            within(
                joint,
                SEEDS * IDS,
                pq,
                (SEEDS * IDS) as f64 * pq * (1.0 - pq),
                "joint",
            );
        }
    }

    #[test]
    fn fp_map_resolves_collisions_by_stored_key() {
        #[derive(PartialEq, Eq, Clone, Debug)]
        struct SameHash(u32);
        impl std::hash::Hash for SameHash {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(7); // every key shares one fingerprint
            }
        }
        let mut m: FpMap<SameHash> = FpMap::new();
        let at: Vec<usize> = [2u32, 0, 1, 0, 2, 2]
            .into_iter()
            .map(|k| m.insert(SameHash(k)))
            .collect();
        assert_eq!(at, vec![0, 1, 2, 1, 0, 0]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&SameHash(1)), Some(2));
        assert_eq!(m.get(&SameHash(9)), None);
        // Colliding or not, keys keep the order they first came in.
        let seen: Vec<u32> = m.iter().map(|k| k.0).collect();
        assert_eq!(seen, vec![2, 0, 1]);
    }

    #[test]
    fn fp_map_iterates_in_insertion_order_under_growth() {
        let mut m: FpMap<u64> = FpMap::new();
        let key = |i: usize| splitmix64(i as u64) % 5000;
        let mut firsts = Vec::new();
        for i in 0..20_000 {
            let before = m.len();
            let at = m.insert(key(i));
            if m.len() > before {
                assert_eq!(at, before, "a new key lands at the end");
                firsts.push(key(i));
            }
            // The prefix seen so far never moves.
            if i % 4099 == 0 {
                let got: Vec<u64> = m.iter().copied().collect();
                assert_eq!(got, firsts);
            }
        }
        assert_eq!(m.len(), firsts.len());
        for (at, k) in m.iter().enumerate() {
            assert_eq!(*k, firsts[at]);
            assert_eq!(m.get(k), Some(at));
        }
    }

    #[test]
    fn fx_hash_differs_on_different_keys() {
        let bh = FxBuildHasher::default();
        let h1 = bh.hash_one(1u64);
        let h2 = bh.hash_one(2u64);
        assert_ne!(h1, h2);
        // Deterministic.
        assert_eq!(h1, bh.hash_one(1u64));
    }

    #[test]
    fn folded_fx_spreads_ids_that_share_their_low_bits() {
        let low_bits = |bh: &dyn Fn(u64) -> u64| -> usize {
            let seen: HashSet<u64> = (0..1024u64).map(|i| bh(i << 20) & 1023).collect();
            seen.len()
        };
        let fx = FxBuildHasher::default();
        let folded = BuildHasherDefault::<FoldedFxHasher>::default();
        // Plain Fx maps every multiple of 2²⁰ to bucket 0 of a 1024-bucket
        // table; folded, they spread over most of it.
        assert_eq!(low_bits(&|id| fx.hash_one(id)), 1);
        assert!(low_bits(&|id| folded.hash_one(id)) > 512);
    }

    #[test]
    fn fx_hashmap_works() {
        let mut m: FxHashMap<u128, u32> = FxHashMap::default();
        for i in 0..1000u128 {
            m.insert(i, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 500);
    }

    #[test]
    fn splitmix_is_bijective_sampling() {
        // No collisions over a small dense range (splitmix64 is a bijection).
        let outs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn splitmix_uniformity_rough() {
        // Top bit should be set about half the time.
        let ones = (0..100_000u64)
            .map(splitmix64)
            .filter(|x| x >> 63 == 1)
            .count();
        assert!((45_000..55_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn fingerprints_distinct_across_salt_and_id() {
        let mut seen = HashSet::new();
        for salt in 0..10u64 {
            for id in 0..1000u64 {
                assert!(seen.insert(fingerprint128(salt, id)));
            }
        }
    }

    #[test]
    fn bytes_path_matches_expected_behaviour() {
        // write() must consume all bytes, including a short tail chunk.
        let bh = FxBuildHasher::default();
        let h1 = bh.hash_one([1u8, 2, 3]);
        let h2 = bh.hash_one([1u8, 2, 4]);
        assert_ne!(h1, h2);
    }
}
