//! Set-index derivation for skewed randomized caches.
//!
//! A skewed randomized cache maps each line address to one set *per skew*,
//! each through an independent keyed permutation. Following Mirage and Maya,
//! every skew gets its own PRINCE instance; the set index is the low bits of
//! the encrypted line address. Because PRINCE is a permutation of the 64-bit
//! address space, distinct addresses never alias before the truncation to
//! `log2(sets)` bits, and an attacker without the key cannot predict or
//! invert the mapping.
//!
//! # Hot-path shape
//!
//! Index derivation sits on every cache lookup, so the API is built to be
//! allocation-free and batch-friendly:
//!
//! * [`IndexFunction::set_indices_into`] writes all per-skew indices into a
//!   caller-provided slice (a stack array in the cache models) — no `Vec`
//!   per access.
//! * An optional **memo table** ([`IndexFunction::with_memo`]) caches the
//!   translations of recently seen line addresses in a hashed, 2-way
//!   set-associative table. A memo hit costs a few nanoseconds against
//!   ~100 ns for the PRINCE evaluations it replaces. Maya and Mirage derive
//!   a line's indices once per access, so their hits come from lines
//!   accessed again while still in the memo: a cache-resident working set
//!   such as Figure 8's attacker and victim lines. CEASER, ScatterCache
//!   and Threshold still derive a missing line twice (lookup, then fill),
//!   and the memo serves the second. The memo is a pure-function cache:
//!   enabling it never changes any derived index, only the work done to
//!   produce it. It is a *simulation-only* shortcut — see DESIGN.md's
//!   Performance notes — and is tied to the key epoch: re-keying (CEASER-S
//!   remaps, Maya/Mirage rekey) constructs a fresh `IndexFunction`, which
//!   starts with an empty memo.

use std::cell::Cell;

use maya_obs::{Component, ProfileHandle};

use crate::Prince;

/// Upper bound on the number of skews an [`IndexFunction`] serves.
///
/// Exists so cache models can derive all per-skew indices into a fixed
/// stack array (`[0usize; MAX_SKEWS]`) without allocating. ScatterCache
/// uses one "skew" per way (16 in the paper's geometry); 32 leaves room
/// for sensitivity studies.
pub const MAX_SKEWS: usize = 32;

/// Default memo-table slot count used by the cache models (power of two).
///
/// 2048 translations in 1024 sets of two ways: 32 KB with two skews
/// (16-byte entries). That holds Figure 8's whole working set (384
/// attacker lines and two 64-line AES victims) with room for hash
/// conflicts, so on that loop PRINCE runs only for each line's first
/// touch. A streaming LLC, where nearly every call brings a new line, gains
/// nothing from any table that fits in the host's caches: tables of ~1 MB,
/// sized for multi-core re-reference distances, evicted the models' own
/// hot lanes and measured slower end to end. The size never changes a
/// derived index, only the work done to produce it.
pub const DEFAULT_MEMO_SLOTS: usize = 2048;

/// Identifies one skew of a skewed-associative cache.
///
/// Maya and Mirage use two skews; the type supports any number so that
/// sensitivity studies can model more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SkewIndex(pub usize);

/// Ways per memo set.
const MEMO_WAYS: usize = 2;

/// Fibonacci-hashing multiplier (2^64 / golden ratio) for the memo's set
/// index.
const MEMO_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashed, 2-way set-associative cache of recent line-address translations.
///
/// An entry is `1 + ceil(skews / 2)` words: the line address, then the
/// per-skew set indices packed two to a word (even skew in the low half)
/// and stored inverted. A set is its two entries back to back, most
/// recently filled first; a miss moves way 0 to way 1 and fills way 0, so
/// it writes one set. With two skews an entry is 16 bytes and a set 32
/// bytes, and the sets start on a 64-byte boundary, so a lookup or a fill
/// touches one cache line.
///
/// An all-zero entry is empty: no filled entry has a zero first index
/// word, because its low half holds skew 0's set index inverted, and that
/// index is below `sets_per_skew <= 2^31`. So the table starts as a zeroed
/// allocation and a clear zeroes it.
///
/// Uses interior mutability (`Cell`) because translation happens on `&self`
/// paths (`probe`, `find`). This is safe single-threaded state: entries are
/// only ever *filled* with values the ciphers would recompute identically,
/// so observable behavior is independent of memo contents.
#[derive(Debug, Clone)]
struct Memo {
    words: Box<[Cell<u64>]>,
    /// Index in `words` of the first set: the first word on a 64-byte
    /// boundary. Only the layout depends on it, never a derived index (a
    /// clone keeps it, so a clone's sets may straddle cache lines).
    first: usize,
    /// Words per entry: the line address and the packed set indices.
    entry_words: usize,
    /// log2 of the number of memo sets.
    set_bits: u32,
}

impl Memo {
    fn new(slots: usize, skews: usize) -> Self {
        assert!(
            slots.is_power_of_two(),
            "memo slots must be a power of two, got {slots}"
        );
        let sets = (slots / MEMO_WAYS).max(1);
        let entry_words = 1 + skews.div_ceil(2);
        // Seven spare words let the first set start on a 64-byte boundary.
        let words = vec![Cell::new(0); sets * MEMO_WAYS * entry_words + 7].into_boxed_slice();
        let first = (words.as_ptr() as usize).wrapping_neg() % 64 / 8;
        Self {
            words,
            first,
            entry_words,
            set_bits: sets.trailing_zeros(),
        }
    }

    /// First word of the set `line_addr` hashes to. The product's top bits
    /// depend on every address bit, so address groups that differ only in
    /// high bits (a victim's tables at `1 << 30`, say) spread over the sets
    /// instead of sharing the low-bit slots of another group.
    #[inline]
    fn set_base(&self, line_addr: u64) -> usize {
        let h = line_addr.wrapping_mul(MEMO_HASH).rotate_left(self.set_bits);
        let set = (h & ((1u64 << self.set_bits) - 1)) as usize;
        self.first + set * MEMO_WAYS * self.entry_words
    }

    /// First word of the entry holding `line_addr` in the set at `base`.
    #[inline]
    fn lookup(&self, base: usize, line_addr: u64) -> Option<usize> {
        (0..MEMO_WAYS)
            .map(|way| base + way * self.entry_words)
            .find(|&e| self.words[e].get() == line_addr && self.words[e + 1].get() != 0)
    }

    /// Stores index word `pair` (skews `2 * pair` and `2 * pair + 1`) of
    /// the entry starting at word `e`.
    #[inline]
    fn set_pair(&self, e: usize, pair: usize, packed: u64) {
        self.words[e + 1 + pair].set(!packed);
    }

    /// Set index of `skew` in the entry starting at word `e`.
    #[inline]
    fn index(&self, e: usize, skew: usize) -> usize {
        (!self.words[e + 1 + skew / 2].get() >> (32 * (skew % 2))) as u32 as usize
    }

    fn clear(&self) {
        for w in self.words.iter() {
            w.set(0);
        }
    }
}

/// A keyed address-to-set mapping with one independent permutation per skew.
///
/// # Examples
///
/// ```
/// use prince_cipher::IndexFunction;
///
/// // Two skews of 16K sets each, keyed from a master seed.
/// let f = IndexFunction::from_seed(0xb1ab_e55e_d_u64, 2, 16 * 1024);
/// let set0 = f.set_index(0, 0x4_0000);
/// let set1 = f.set_index(1, 0x4_0000);
/// assert!(set0 < 16 * 1024 && set1 < 16 * 1024);
///
/// // Batch form: both skews in one call, no allocation.
/// let mut sets = [0usize; 2];
/// f.set_indices_into(0x4_0000, &mut sets);
/// assert_eq!(sets, [set0, set1]);
/// ```
#[derive(Debug, Clone)]
pub struct IndexFunction {
    ciphers: Vec<Prince>,
    sets_per_skew: usize,
    mask: u64,
    memo: Option<Memo>,
    profiler: ProfileHandle,
}

impl IndexFunction {
    /// Creates an index function from explicit per-skew 128-bit keys.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or longer than [`MAX_SKEWS`], or if
    /// `sets_per_skew` is not a power of two.
    pub fn new(keys: &[u128], sets_per_skew: usize) -> Self {
        assert!(!keys.is_empty(), "at least one skew key is required");
        assert!(
            keys.len() <= MAX_SKEWS,
            "at most {MAX_SKEWS} skews are supported, got {}",
            keys.len()
        );
        assert!(
            sets_per_skew.is_power_of_two(),
            "sets_per_skew must be a power of two, got {sets_per_skew}"
        );
        Self {
            ciphers: keys.iter().map(|&k| Prince::from_key128(k)).collect(),
            sets_per_skew,
            mask: sets_per_skew as u64 - 1,
            memo: None,
            profiler: ProfileHandle::none(),
        }
    }

    /// Derives per-skew keys deterministically from one seed.
    ///
    /// This models the boot-time key generation of the paper: the keys are
    /// unpredictable to software but fixed for a simulation run. A
    /// SplitMix64 expansion of the seed yields the four 64-bit words of the
    /// two key halves per skew.
    ///
    /// # Panics
    ///
    /// Panics if `skews` is zero or above [`MAX_SKEWS`], or if
    /// `sets_per_skew` is not a power of two.
    pub fn from_seed(seed: u64, skews: usize, sets_per_skew: usize) -> Self {
        assert!(skews > 0, "at least one skew is required");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let keys: Vec<u128> = (0..skews)
            .map(|_| (u128::from(next()) << 64) | u128::from(next()))
            .collect();
        Self::new(&keys, sets_per_skew)
    }

    /// Attaches a memo table of `slots` entries in 2-way sets, at least
    /// one set (builder style). Memoization never changes any derived
    /// index; it only avoids re-encrypting recently translated line
    /// addresses. The memo starts empty and is dropped with the function,
    /// so a re-key that constructs a fresh `IndexFunction` can never serve
    /// stale-epoch translations.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two or the set count does not
    /// fit the memo's 32-bit entries.
    pub fn with_memo(mut self, slots: usize) -> Self {
        assert!(
            u32::try_from(self.sets_per_skew).is_ok(),
            "memo entries are 32-bit; sets_per_skew {} does not fit",
            self.sets_per_skew
        );
        self.memo = Some(Memo::new(slots, self.ciphers.len()));
        self
    }

    /// Whether a memo table is attached (inspection hook for tests).
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }

    /// Attaches a span profiler (see `maya_obs::profile`): actual PRINCE
    /// encryption work — memo fills and memo-less derivations — opens a
    /// `prince` span, so memo hits are visibly free in profiles. Purely
    /// observational; derived indices never depend on the handle. A
    /// re-key that constructs a fresh `IndexFunction` must re-attach.
    pub fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.profiler = profiler;
    }

    /// Empties the memo table, if any. Exposed for explicit epoch
    /// invalidation; re-keying by constructing a new `IndexFunction` makes
    /// this unnecessary on the usual paths.
    pub fn clear_memo(&self) {
        if let Some(m) = &self.memo {
            m.clear();
        }
    }

    /// Number of skews this function serves.
    pub fn skews(&self) -> usize {
        self.ciphers.len()
    }

    /// Number of sets per skew.
    pub fn sets_per_skew(&self) -> usize {
        self.sets_per_skew
    }

    /// First word of the memo entry for `line_addr`. On a miss, encrypts
    /// `line_addr` under every skew's key and fills way 0 of its set with
    /// the translations, after moving the old way 0 to way 1.
    #[inline]
    fn memo_entry(&self, memo: &Memo, line_addr: u64) -> usize {
        let base = memo.set_base(line_addr);
        if let Some(e) = memo.lookup(base, line_addr) {
            return e;
        }
        let _prince = self.profiler.span(Component::Prince);
        let words = memo.entry_words;
        let (way0, way1) = memo.words[base..base + 2 * words].split_at(words);
        for (to, from) in way1.iter().zip(way0) {
            to.set(from.get());
        }
        memo.words[base].set(line_addr);
        // Two skews (Maya, Mirage) take the interleaved pair path: both
        // cipher chains advance in lockstep, hiding table-load latency.
        if let [c0, c1] = self.ciphers.as_slice() {
            let (e0, e1) = c0.encrypt2(c1, line_addr);
            memo.set_pair(base, 0, (e0 & self.mask) | (e1 & self.mask) << 32);
            return base;
        }
        for (pair, cs) in self.ciphers.chunks(2).enumerate() {
            let packed = cs.iter().enumerate().fold(0, |p, (half, c)| {
                p | (c.encrypt(line_addr) & self.mask) << (32 * half)
            });
            memo.set_pair(base, pair, packed);
        }
        base
    }

    /// Maps a line address to its set in the given skew.
    ///
    /// # Panics
    ///
    /// Panics if `skew` is out of range.
    #[inline]
    pub fn set_index(&self, skew: usize, line_addr: u64) -> usize {
        assert!(skew < self.ciphers.len(), "skew {skew} out of range");
        if let Some(memo) = &self.memo {
            return memo.index(self.memo_entry(memo, line_addr), skew);
        }
        let _prince = self.profiler.span(Component::Prince);
        (self.ciphers[skew].encrypt(line_addr) & self.mask) as usize
    }

    /// Maps a line address to its set in every skew at once, writing the
    /// results into `out` (index `s` receives skew `s`'s set). This is the
    /// batch form the cache models use with a stack array — no allocation
    /// per access.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`skews`](Self::skews).
    #[inline]
    pub fn set_indices_into(&self, line_addr: u64, out: &mut [usize]) {
        let skews = self.ciphers.len();
        assert_eq!(
            out.len(),
            skews,
            "output slice must hold exactly one index per skew"
        );
        if let Some(memo) = &self.memo {
            let e = self.memo_entry(memo, line_addr);
            // Two skews share one index word: read it once.
            if let [o0, o1] = out {
                let packed = !memo.words[e + 1].get();
                *o0 = packed as u32 as usize;
                *o1 = (packed >> 32) as usize;
                return;
            }
            for (skew, o) in out.iter_mut().enumerate() {
                *o = memo.index(e, skew);
            }
            return;
        }
        let _prince = self.profiler.span(Component::Prince);
        if let [c0, c1] = self.ciphers.as_slice() {
            let (e0, e1) = c0.encrypt2(c1, line_addr);
            out[0] = (e0 & self.mask) as usize;
            out[1] = (e1 & self.mask) as usize;
            return;
        }
        for (o, c) in out.iter_mut().zip(self.ciphers.iter()) {
            *o = (c.encrypt(line_addr) & self.mask) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_in_range() {
        let f = IndexFunction::from_seed(42, 2, 1024);
        for addr in 0..10_000u64 {
            for skew in 0..2 {
                assert!(f.set_index(skew, addr) < 1024);
            }
        }
    }

    #[test]
    fn skews_use_independent_mappings() {
        let f = IndexFunction::from_seed(42, 2, 1024);
        let same = (0..10_000u64)
            .filter(|&a| f.set_index(0, a) == f.set_index(1, a))
            .count();
        // Two independent uniform mappings collide on ~1/1024 of addresses.
        assert!(
            same < 50,
            "skew mappings look correlated: {same} collisions"
        );
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let sets = 256;
        let f = IndexFunction::from_seed(7, 1, sets);
        let n = 100_000u64;
        let mut counts = vec![0u64; sets];
        for a in 0..n {
            counts[f.set_index(0, a)] += 1;
        }
        let expected = n as f64 / sets as f64;
        // Chi-squared statistic for uniformity; df = 255, a value far above
        // ~400 would indicate a broken mapping.
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(
            chi2 < 400.0,
            "chi-squared {chi2} too high for uniform mapping"
        );
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let a = IndexFunction::from_seed(1, 1, 4096);
        let b = IndexFunction::from_seed(2, 1, 4096);
        let same = (0..4096u64)
            .filter(|&addr| a.set_index(0, addr) == b.set_index(0, addr))
            .count();
        assert!(same < 30);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        IndexFunction::from_seed(1, 1, 1000);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_skews_panics() {
        IndexFunction::from_seed(1, MAX_SKEWS + 1, 64);
    }

    #[test]
    fn set_indices_into_matches_per_skew_queries() {
        let f = IndexFunction::from_seed(3, 3, 512);
        for addr in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut all = [0usize; 3];
            f.set_indices_into(addr, &mut all);
            for (skew, &idx) in all.iter().enumerate() {
                assert_eq!(idx, f.set_index(skew, addr));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one index per skew")]
    fn wrong_output_length_panics() {
        let f = IndexFunction::from_seed(3, 3, 512);
        let mut out = [0usize; 2];
        f.set_indices_into(1, &mut out);
    }

    /// The memo is strictly transparent: with a tiny (conflict-heavy) memo,
    /// every query pattern returns exactly what a memo-less twin computes —
    /// including interleaved single-skew and batch queries, repeats, memo
    /// clears, and three or more lines contending for one memo set — for
    /// one skew, two (Maya, Mirage), three and 16 (ScatterCache).
    #[test]
    fn memo_is_transparent_under_conflicts() {
        for skews in [1, 2, 3, 16] {
            let plain = IndexFunction::from_seed(99, skews, 1024);
            let memoized = IndexFunction::from_seed(99, skews, 1024).with_memo(16);
            assert!(memoized.has_memo() && !plain.has_memo());
            let memo = memoized.memo.as_ref().expect("memo attached");
            let mut per_set = [0usize; 8];
            for addr in 0..48u64 {
                per_set[(memo.set_base(addr) - memo.first) / (MEMO_WAYS * memo.entry_words)] += 1;
            }
            let mut state = 0x1234u64;
            let mut a = vec![0usize; skews];
            let mut b = vec![0usize; skews];
            for i in 0..20_000u64 {
                // Mostly a random pick of 48 sequential lines, so lines are
                // displaced to way 1 and out, then asked for again; every
                // fourth query a fresh pseudo-random address.
                state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
                let addr = if i % 4 == 0 {
                    state
                } else {
                    (state >> 32) % 48
                };
                let skew = (i as usize) % skews;
                assert_eq!(memoized.set_index(skew, addr), plain.set_index(skew, addr));
                memoized.set_indices_into(addr, &mut a);
                plain.set_indices_into(addr, &mut b);
                assert_eq!(a, b);
                if i % 997 == 0 {
                    memoized.clear_memo();
                }
            }
            // The 48 pool lines share 8 memo sets of two ways.
            assert!(per_set.iter().all(|&n| n >= 3), "{per_set:?}");
        }
    }

    /// Key-epoch semantics: a re-key constructs a fresh `IndexFunction`, so
    /// a warm memo from the old epoch can never leak translations into the
    /// new one (this is the CEASER-S remap pattern).
    #[test]
    fn memo_does_not_survive_rekey() {
        let seed = 0xcea5e2u64;
        let old = IndexFunction::from_seed(seed, 2, 256).with_memo(64);
        // Warm the old epoch's memo.
        for addr in 0..1000u64 {
            old.set_index(0, addr);
        }
        // New epoch: fresh function, fresh memo (what CeaserCache does).
        let new = IndexFunction::from_seed(seed ^ (1 << 32), 2, 256).with_memo(64);
        let plain_new = IndexFunction::from_seed(seed ^ (1 << 32), 2, 256);
        let mut differs = 0;
        for addr in 0..1000u64 {
            assert_eq!(new.set_index(0, addr), plain_new.set_index(0, addr));
            assert_eq!(new.set_index(1, addr), plain_new.set_index(1, addr));
            if new.set_index(0, addr) != old.set_index(0, addr) {
                differs += 1;
            }
        }
        // And the epochs genuinely use different mappings.
        assert!(differs > 900, "re-key changed only {differs}/1000 mappings");
    }

    /// `clear_memo` empties the table without changing any result.
    #[test]
    fn clear_memo_is_invisible() {
        let f = IndexFunction::from_seed(5, 2, 128).with_memo(32);
        let before: Vec<usize> = (0..500u64).map(|a| f.set_index(0, a)).collect();
        f.clear_memo();
        let after: Vec<usize> = (0..500u64).map(|a| f.set_index(0, a)).collect();
        assert_eq!(before, after);
    }
}
