//! Fingerprint-keyed decision cache — stage A of the serving hot path.
//!
//! Production selector traffic is highly repetitive: the same matrices
//! recur, yet each request pays full representation extraction plus a
//! CNN forward pass (~0.4 ms) for a decision that depends only on the
//! matrix's *structure*. The cache keys CNN-answered [`Selection`]s by
//! a cheap structural fingerprint ([`matrix_fingerprint`]) so repeat
//! traffic resolves in microseconds on the submitting thread, without
//! ever entering the admission queue.
//!
//! Design points:
//!
//! * **Sharded LRU** — 8 shards (fewer when the capacity is below 8,
//!   rounded down to a power of two), each a lock-protected
//!   constant-time LRU (hash map into an intrusive slab list), so
//!   concurrent submitters rarely contend on one lock. The shards split
//!   the capacity between them exactly: together they hold no more
//!   than [`CacheConfig::capacity`] entries.
//! * **Generation-keyed** — every entry records the model generation
//!   that produced it; a lookup under a newer generation reports
//!   [`CacheLookup::Stale`] and drops the entry, so a hot model reload
//!   can never serve a decision from a retired model. Nothing else
//!   retires an entry but eviction: there is no expiry by age.
//! * **Only CNN answers are cached** — the serving layer inserts only
//!   rung-`Answered` selections; degraded tree/default answers (breaker
//!   open, CNN fault) stay uncached so recovery is visible immediately.
//!   That policy lives in the server; the cache stores what it is
//!   given.
//!
//! The fingerprint reads O(sample) entries, never every nonzero: exact
//! shape and nonzero count, at most [`FINGERPRINT_COORD_SAMPLE`]
//! coordinates taken from a few evenly spread windows of consecutive
//! entries (every entry for `nnz ≤ 2048`; [`fingerprint_windows`] says
//! which), and the row length at every 32nd windowed position. Windows,
//! not a stride: at 60 k nonzeros a stride of 30 lands the sample on
//! about 2 000 distinct cache lines of each index array, where the
//! windows cover about 135, so a key over a matrix that has left the
//! cache costs a few lines' fetches, not thousands.
//! Two structurally different matrices that agree on everything sampled
//! share a key, in which case the cache returns a format decision
//! computed for a look-alike — a performance approximation, never a
//! correctness hazard, exactly like the CNN's own down-sampled input
//! representations. The server checks for such an approximation: it
//! re-serves each entry's every
//! [`CACHE_AUDIT_PERIOD`](crate::server::CACHE_AUDIT_PERIOD)th hit
//! through the miss path and counts whether the fresh decision matched
//! the cached one.

use crate::service::Selection;
use dnnspmv_sparse::{CooMatrix, Scalar};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

/// Shards a cache spreads its entries over, clamped to its capacity and
/// rounded down to a power of two.
const SHARDS: usize = 8;

/// Decision-cache tuning (see module docs). The default is disabled:
/// the serving hot path is opt-in, so a deployment that wants cached
/// decisions sets a capacity explicitly (see [`CacheConfig::enabled`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheConfig {
    /// Total entries across all shards; 0 disables the cache.
    pub capacity: usize,
}

impl CacheConfig {
    /// An enabled cache of `capacity` entries.
    pub fn enabled(capacity: usize) -> Self {
        Self { capacity }
    }

    /// Whether this configuration caches anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

/// Outcome of one cache probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheLookup {
    /// A live entry from the current model generation.
    Hit(Selection),
    /// No entry under this fingerprint.
    Miss,
    /// An entry existed but was produced by a retired model generation;
    /// it has been dropped.
    Stale,
}

/// Outcome of one cache insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInsert {
    /// A new entry was added.
    Inserted,
    /// A new entry was added and the shard's LRU entry was evicted to
    /// make room.
    InsertedEvicting,
    /// An entry under this fingerprint already existed and was
    /// refreshed in place.
    Updated,
}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    fp: u64,
    generation: u64,
    sel: Selection,
    /// Hits since the fingerprint was inserted (a refresh keeps it).
    hits: u64,
    prev: usize,
    next: usize,
}

/// One shard: hash map from fingerprint to slab slot plus an intrusive
/// doubly-linked recency list over the slab (head = most recent). All
/// operations are O(1).
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Entries this shard holds before it evicts.
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            head: NIL,
            tail: NIL,
            capacity,
            ..Self::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.slab[i].fp);
        self.free.push(i);
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Sharded, generation-keyed LRU over format decisions (module docs).
#[derive(Debug)]
pub struct DecisionCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
}

impl DecisionCache {
    /// Builds a cache, or `None` when `cfg` disables caching.
    pub fn new(cfg: &CacheConfig) -> Option<Self> {
        if !cfg.is_enabled() {
            return None;
        }
        // A power of two no larger than the capacity, so every shard
        // holds at least one entry; the first `capacity % shards` shards
        // take one entry more than the rest.
        let shards = 1 << SHARDS.min(cfg.capacity).ilog2();
        let (each, extra) = (cfg.capacity / shards, cfg.capacity % shards);
        Some(Self {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(each + usize::from(i < extra))))
                .collect(),
            shard_mask: shards as u64 - 1,
        })
    }

    fn shard(&self, fp: u64) -> &Mutex<Shard> {
        // Fold the high half in so shard choice does not ride on the
        // low bits alone.
        &self.shards[((fp ^ (fp >> 32)) & self.shard_mask) as usize]
    }

    /// Probes for `fp` under the live model `generation`. A
    /// stale-generation entry is dropped on sight and reported apart
    /// from a miss so the serving layer can count it. `_now` is ignored:
    /// entries do not expire by age.
    pub fn lookup(&self, fp: u64, generation: u64, _now: u64) -> CacheLookup {
        self.lookup_counted(fp, generation).0
    }

    /// [`DecisionCache::lookup`], plus, on a hit, how many hits the entry
    /// has served since its fingerprint was inserted, this one included
    /// (0 otherwise). The server audits by this count.
    pub(crate) fn lookup_counted(&self, fp: u64, generation: u64) -> (CacheLookup, u64) {
        let mut s = self.shard(fp).lock().expect("cache shard lock");
        let Some(&i) = s.map.get(&fp) else {
            return (CacheLookup::Miss, 0);
        };
        if s.slab[i].generation != generation {
            s.remove(i);
            return (CacheLookup::Stale, 0);
        }
        s.unlink(i);
        s.push_front(i);
        s.slab[i].hits += 1;
        (CacheLookup::Hit(s.slab[i].sel), s.slab[i].hits)
    }

    /// Inserts (or refreshes) the decision for `fp` produced by model
    /// `generation`, evicting the shard's LRU entry when the shard is
    /// full. `_now` is ignored, as in [`DecisionCache::lookup`].
    pub fn insert(&self, fp: u64, generation: u64, _now: u64, sel: Selection) -> CacheInsert {
        let mut s = self.shard(fp).lock().expect("cache shard lock");
        if let Some(&i) = s.map.get(&fp) {
            s.slab[i] = Node {
                generation,
                sel,
                ..s.slab[i]
            };
            s.unlink(i);
            s.push_front(i);
            return CacheInsert::Updated;
        }
        let evicting = s.len() >= s.capacity;
        if evicting {
            let lru = s.tail;
            s.remove(lru);
        }
        let node = Node {
            fp,
            generation,
            sel,
            hits: 0,
            prev: NIL,
            next: NIL,
        };
        let i = match s.free.pop() {
            Some(i) => {
                s.slab[i] = node;
                i
            }
            None => {
                s.slab.push(node);
                s.slab.len() - 1
            }
        };
        s.map.insert(fp, i);
        s.push_front(i);
        if evicting {
            CacheInsert::InsertedEvicting
        } else {
            CacheInsert::Inserted
        }
    }

    /// Live entries across all shards (locks each shard in turn; not a
    /// hot-path call).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How many coordinates [`matrix_fingerprint`] samples: at most this
/// many `(row, col)` pairs are hashed, and every pair is hashed when
/// `nnz` is at or below it.
pub const FINGERPRINT_COORD_SAMPLE: usize = 2048;

/// How many evenly spread windows of consecutive entries the sample is
/// read from past [`FINGERPRINT_COORD_SAMPLE`] nonzeros. Fewer, longer
/// windows fetch fewer cache lines; more windows spread the sample over
/// more of the matrix. DESIGN §4.6 has the sweep this was chosen from.
const FINGERPRINT_WINDOWS: usize = 8;

/// Entries per window: the windows together hold the whole sample.
const FINGERPRINT_WINDOW_LEN: usize = FINGERPRINT_COORD_SAMPLE / FINGERPRINT_WINDOWS;

/// Every this-many windowed positions, starting at each window's first,
/// [`matrix_fingerprint`] also folds in the length of the row the entry
/// sits in.
const FINGERPRINT_RUN_EVERY: usize = 32;

/// Independent multiply chains a window's coordinates are dealt over,
/// so the multiplies of neighbouring entries overlap instead of waiting
/// on one another.
const FINGERPRINT_LANES: usize = 8;

/// Odd 64-bit multiplier (the golden-ratio constant): multiplying by it
/// is a bijection, so a lane step never merges two distinct states.
const FINGERPRINT_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The entry positions [`matrix_fingerprint`] reads of a matrix with
/// `nnz` nonzeros, as ascending, disjoint windows: the single window
/// `0..nnz` at or below [`FINGERPRINT_COORD_SAMPLE`], and past it 8
/// windows of 256 entries, window `w` starting at `w·(nnz − 256)/7`, so
/// the first starts at entry 0 and the last ends at `nnz`. Past the
/// sample size the starts are at least 256 apart, so the windows never
/// overlap and hold exactly [`FINGERPRINT_COORD_SAMPLE`] positions. The
/// key also reads the row length at every 32nd position of each window,
/// its first included.
pub fn fingerprint_windows(nnz: usize) -> impl Iterator<Item = Range<usize>> {
    let (count, len) = if nnz <= FINGERPRINT_COORD_SAMPLE {
        (1, nnz)
    } else {
        (FINGERPRINT_WINDOWS, FINGERPRINT_WINDOW_LEN)
    };
    (0..count).map(move |w| {
        let start = if count == 1 {
            0
        } else {
            w * (nnz - len) / (count - 1)
        };
        start..start + len
    })
}

/// One lane step: a bijection of the state for a fixed word and of the
/// word for a fixed state, so one differing word always leaves its lane
/// different.
#[inline]
fn fingerprint_mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FINGERPRINT_MUL).rotate_left(29)
}

/// The MurmurHash3 64-bit finaliser: a bijective avalanche, so every
/// key bit depends on every lane bit (shard choice reads low bits).
#[inline]
fn fingerprint_finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Length of the run of equal indices through position `p` of the
/// sorted `rows` — the length of that entry's row. Each end is found by
/// galloping outward from `p` to bracket it, then one `partition_point`
/// inside the bracket: O(log run) probes, all near `p`, where two
/// searches over the whole array would each miss cache O(log nnz) times.
fn row_run(rows: &[u32], p: usize) -> usize {
    let r = rows[p];
    let mut step = 1;
    while step <= p && rows[p - step] == r {
        step *= 2;
    }
    let lo = p.saturating_sub(step);
    let start = lo + rows[lo..p].partition_point(|&x| x < r);
    let mut step = 1;
    while p + step < rows.len() && rows[p + step] == r {
        step *= 2;
    }
    let end = p + rows[p..(p + step).min(rows.len())].partition_point(|&x| x == r);
    end - start
}

/// Structural fingerprint of a sparse matrix, in O(sample) time: exact
/// `(nrows, ncols, nnz)`, at most [`FINGERPRINT_COORD_SAMPLE`]
/// `(row, col)` pairs read from the windows of consecutive entries that
/// [`fingerprint_windows`] names (every pair when `nnz` is at or below
/// the sample size), and the row length at every 32nd windowed position,
/// read off the canonically row-major sorted row indices with a few
/// probes near the sample. Each pair is one 64-bit word; a window's
/// words are dealt in turn over eight independent multiply chains, and
/// the row lengths go into a ninth. Values are deliberately excluded —
/// every representation the CNN consumes depends only on the sparsity
/// pattern, so two matrices with equal structure genuinely warrant the
/// same decision.
///
/// The sample sits in 8 runs of consecutive entries rather than on a
/// stride because a key is mostly memory traffic: at 60 k nonzeros the
/// windows span about 270 cache lines of the two index arrays, where a
/// stride of 30 entries spans about 4 000.
///
/// Entries outside the windows are not read, so two matrices that agree
/// on everything sampled share a key; the server's hit audit
/// ([`CACHE_AUDIT_PERIOD`](crate::server::CACHE_AUDIT_PERIOD)) is what
/// catches such a collision.
pub fn matrix_fingerprint<S: Scalar>(m: &CooMatrix<S>) -> u64 {
    let rows = m.row_indices();
    let nnz = rows.len();
    let cols = &m.col_indices()[..nnz];
    let word = |r: u32, c: u32| (u64::from(r) << 32) | u64::from(c);
    let mut lane: [u64; FINGERPRINT_LANES] =
        std::array::from_fn(|i| FINGERPRINT_MUL.wrapping_mul(i as u64 + 1));
    lane[0] = fingerprint_mix(lane[0], m.nrows() as u64);
    lane[1] = fingerprint_mix(lane[1], m.ncols() as u64);
    lane[2] = fingerprint_mix(lane[2], nnz as u64);
    let mut runs = FINGERPRINT_MUL.wrapping_mul(FINGERPRINT_LANES as u64 + 1);
    for window in fingerprint_windows(nnz) {
        let mut window_rows = rows[window.clone()].chunks_exact(FINGERPRINT_LANES);
        let mut window_cols = cols[window.clone()].chunks_exact(FINGERPRINT_LANES);
        for (r, c) in (&mut window_rows).zip(&mut window_cols) {
            for (i, h) in lane.iter_mut().enumerate() {
                *h = fingerprint_mix(*h, word(r[i], c[i]));
            }
        }
        let tail = window_rows.remainder().iter().zip(window_cols.remainder());
        for (&r, &c) in tail {
            lane[0] = fingerprint_mix(lane[0], word(r, c));
        }
        for p in window.step_by(FINGERPRINT_RUN_EVERY) {
            runs = fingerprint_mix(runs, row_run(rows, p) as u64);
        }
    }
    lane.iter()
        .chain([&runs])
        .fold(0, |key, &h| fingerprint_finish(key ^ h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SelectionSource;
    use dnnspmv_sparse::SparseFormat;
    use proptest::prelude::*;

    fn sel(format: SparseFormat, confidence: f32) -> Selection {
        Selection {
            format,
            source: SelectionSource::Cnn,
            confidence: Some(confidence),
        }
    }

    fn small_cache(capacity: usize) -> DecisionCache {
        DecisionCache::new(&CacheConfig::enabled(capacity)).expect("enabled config")
    }

    /// Each shard's capacity, in shard order.
    fn shard_capacities(c: &DecisionCache) -> Vec<usize> {
        c.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").capacity)
            .collect()
    }

    #[test]
    fn disabled_config_builds_no_cache() {
        assert!(DecisionCache::new(&CacheConfig::default()).is_none());
        assert!(!CacheConfig::default().is_enabled());
        assert!(CacheConfig::enabled(16).is_enabled());
    }

    #[test]
    fn hit_returns_what_was_inserted() {
        let c = small_cache(8);
        let s = sel(SparseFormat::Dia, 0.9);
        assert_eq!(c.insert(7, 0, 0, s), CacheInsert::Inserted);
        assert_eq!(c.lookup(7, 0, 0), CacheLookup::Hit(s));
        assert_eq!(c.lookup(8, 0, 0), CacheLookup::Miss);
    }

    /// Hit counts are per entry: a refresh keeps the count, a fresh
    /// insert after a drop starts it again, and misses count nothing.
    #[test]
    fn hit_counts_are_per_entry_and_survive_a_refresh() {
        let c = small_cache(8);
        let s = sel(SparseFormat::Dia, 0.9);
        c.insert(1, 0, 0, s);
        c.insert(2, 0, 0, s);
        assert_eq!(c.lookup_counted(1, 0), (CacheLookup::Hit(s), 1));
        assert_eq!(c.lookup_counted(1, 0), (CacheLookup::Hit(s), 2));
        assert_eq!(c.lookup_counted(2, 0), (CacheLookup::Hit(s), 1));
        assert_eq!(c.lookup_counted(3, 0), (CacheLookup::Miss, 0));
        let t = sel(SparseFormat::Csr, 0.8);
        assert_eq!(c.insert(1, 0, 0, t), CacheInsert::Updated);
        assert_eq!(c.lookup_counted(1, 0), (CacheLookup::Hit(t), 3));
        assert_eq!(c.lookup_counted(1, 1), (CacheLookup::Stale, 0));
        c.insert(1, 1, 0, s);
        assert_eq!(c.lookup_counted(1, 1), (CacheLookup::Hit(s), 1));
    }

    #[test]
    fn generation_bump_invalidates_all_prior_entries() {
        let c = small_cache(16);
        for fp in 0..10u64 {
            c.insert(fp, 0, 0, sel(SparseFormat::Csr, 0.8));
        }
        assert_eq!(c.len(), 10);
        // Every generation-0 entry is reported stale (and dropped)
        // under generation 1 — a hot reload never serves a retired
        // model's decision.
        for fp in 0..10u64 {
            assert_eq!(c.lookup(fp, 1, 0), CacheLookup::Stale);
            assert_eq!(c.lookup(fp, 1, 0), CacheLookup::Miss);
        }
        assert!(c.is_empty());
        // Re-inserted under the new generation, hits resume.
        c.insert(3, 1, 0, sel(SparseFormat::Ell, 0.7));
        assert!(matches!(c.lookup(3, 1, 0), CacheLookup::Hit(_)));
    }

    #[test]
    fn eviction_honors_capacity_per_shard_in_lru_order() {
        let c = small_cache(4 * SHARDS);
        assert_eq!(shard_capacities(&c), vec![4; SHARDS]);
        // Multiples of the shard count all route to shard 0.
        let key = |k: u64| k * SHARDS as u64;
        for k in 0..4 {
            assert_eq!(
                c.insert(key(k), 0, 0, sel(SparseFormat::Csr, 0.5)),
                CacheInsert::Inserted
            );
        }
        // Touch 0 so 1 becomes the LRU entry.
        assert!(matches!(c.lookup(key(0), 0, 0), CacheLookup::Hit(_)));
        assert_eq!(
            c.insert(key(9), 0, 0, sel(SparseFormat::Coo, 0.6)),
            CacheInsert::InsertedEvicting
        );
        assert_eq!(c.len(), 4);
        assert_eq!(
            c.lookup(key(1), 0, 0),
            CacheLookup::Miss,
            "LRU entry evicted"
        );
        for k in [0, 2, 3, 9] {
            assert!(matches!(c.lookup(key(k), 0, 0), CacheLookup::Hit(_)), "{k}");
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_respects_capacity() {
        let c = small_cache(100);
        assert_eq!(shard_capacities(&c), [13, 13, 13, 13, 12, 12, 12, 12]);
        // A tiny capacity never spreads across more shards than
        // entries, and rounds down to a power of two.
        let c = small_cache(2);
        assert_eq!(shard_capacities(&c), [1, 1]);
        let c = small_cache(3);
        assert_eq!(shard_capacities(&c), [2, 1]);
        // The shards together hold exactly the configured capacity.
        for capacity in 1..=64 {
            let caps = shard_capacities(&small_cache(capacity));
            assert!(caps.len().is_power_of_two() && caps.len() <= SHARDS);
            assert!(caps.iter().all(|&c| c >= 1), "{capacity}: {caps:?}");
            assert_eq!(caps.iter().sum::<usize>(), capacity, "{caps:?}");
        }
    }

    fn diag(n: usize) -> CooMatrix<f32> {
        let t: Vec<_> = (0..n).map(|i| (i, i, 1.0f32)).collect();
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn fingerprint_separates_structure_and_ignores_values() {
        let a = diag(64);
        let b = diag(64);
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&b));
        // Same pattern, different values: same structural fingerprint.
        let t: Vec<_> = (0..64).map(|i| (i, i, 2.5f32)).collect();
        let c = CooMatrix::from_triplets(64, 64, &t).unwrap();
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&c));
        // Different shape, nnz, or coordinates: different fingerprints.
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&diag(65)));
        let mut t: Vec<_> = (0..64).map(|i| (i, i, 1.0f32)).collect();
        t.push((0, 63, 1.0));
        let d = CooMatrix::from_triplets(64, 64, &t).unwrap();
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&d));
        let t: Vec<_> = (0..64).map(|i| (i, 63 - i, 1.0f32)).collect();
        let e = CooMatrix::from_triplets(64, 64, &t).unwrap();
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&e));
        // A row-length change at a sampled position. Past the sample size
        // `f` and `g` agree on every windowed entry; they differ only in
        // the first entry after window 0, which the key does not read.
        // In `f` it ends the row through window 0's last row-length
        // sample, in `g` it opens the next row, so that sample alone
        // tells them apart.
        let nnz = 3000;
        let gap = fingerprint_windows(nnz).next().unwrap().end;
        let probe = gap - FINGERPRINT_RUN_EVERY;
        assert!(fingerprint_windows(nnz).all(|w| !w.contains(&gap)));
        let n = nnz - FINGERPRINT_RUN_EVERY;
        let head = |ends_the_row: bool| {
            let long = probe + FINGERPRINT_RUN_EVERY + usize::from(ends_the_row);
            let mut t: Vec<_> = (0..probe).map(|i| (i, i, 1.0f32)).collect();
            t.extend((probe..long).map(|c| (probe, c, 1.0)));
            if !ends_the_row {
                t.push((probe + 1, 0, 1.0));
            }
            t.extend((probe + 1..n).map(|i| (i, i, 1.0)));
            CooMatrix::from_triplets(n, n, &t).unwrap()
        };
        let (f, g) = (head(true), head(false));
        assert_eq!((f.nnz(), g.nnz()), (nnz, nnz));
        for p in fingerprint_windows(nnz).flatten() {
            assert_eq!(f.row_indices()[p], g.row_indices()[p]);
            assert_eq!(f.col_indices()[p], g.col_indices()[p]);
        }
        assert_ne!(f.row_indices()[gap], g.row_indices()[gap]);
        assert_ne!(
            row_run(f.row_indices(), probe),
            row_run(g.row_indices(), probe)
        );
        assert_ne!(matrix_fingerprint(&f), matrix_fingerprint(&g));
    }

    /// Digest-stability pin: the fingerprint keys persisted across
    /// serving sessions (and asserted against in benchmarks), so a
    /// refactor that changes it must be deliberate. The first matrix
    /// is read whole and its 8 entries fill one round of the lanes; the
    /// second is past the sample size, so the window starts and the
    /// row-run samples are pinned too.
    #[test]
    fn fingerprint_digest_is_stable() {
        let got = (
            matrix_fingerprint(&diag(8)),
            matrix_fingerprint(&diag(5001)),
        );
        assert_eq!(
            got,
            (0xc534_3ea8_2094_55ba, 0xd0a7_26eb_589c_f1e5),
            "{got:#x?}"
        );
    }

    /// Reference model for one shard's LRU: a Vec in recency order.
    #[derive(Clone)]
    struct ModelLru {
        /// `(fp, generation, sel, hits)`, most recent first.
        entries: Vec<(u64, u64, Selection, u64)>,
        cap: usize,
    }

    impl ModelLru {
        fn lookup(&mut self, fp: u64, generation: u64) -> (CacheLookup, u64) {
            let Some(i) = self.entries.iter().position(|e| e.0 == fp) else {
                return (CacheLookup::Miss, 0);
            };
            let mut e = self.entries.remove(i);
            if e.1 != generation {
                return (CacheLookup::Stale, 0);
            }
            e.3 += 1;
            self.entries.insert(0, e);
            (CacheLookup::Hit(e.2), e.3)
        }

        fn insert(&mut self, fp: u64, generation: u64, sel: Selection) -> CacheInsert {
            if let Some(i) = self.entries.iter().position(|e| e.0 == fp) {
                let hits = self.entries.remove(i).3;
                self.entries.insert(0, (fp, generation, sel, hits));
                return CacheInsert::Updated;
            }
            let evicting = self.entries.len() >= self.cap;
            if evicting {
                self.entries.pop();
            }
            self.entries.insert(0, (fp, generation, sel, 0));
            if evicting {
                CacheInsert::InsertedEvicting
            } else {
                CacheInsert::Inserted
            }
        }
    }

    /// Reference model for the whole cache: one plain LRU per shard,
    /// keys routed by the folded low bits of the fingerprint.
    struct ModelCache {
        shards: Vec<ModelLru>,
    }

    impl ModelCache {
        /// The largest power of two of shards that each get an entry,
        /// at most `SHARDS` of them, and the capacity dealt out to them
        /// one entry at a time.
        fn new(capacity: usize) -> Self {
            let mut n = 1;
            while n * 2 <= SHARDS && n * 2 <= capacity {
                n *= 2;
            }
            let mut shards = vec![
                ModelLru {
                    entries: Vec::new(),
                    cap: 0,
                };
                n
            ];
            for entry in 0..capacity {
                shards[entry % n].cap += 1;
            }
            Self { shards }
        }

        fn shard(&mut self, fp: u64) -> &mut ModelLru {
            let mask = self.shards.len() as u64 - 1;
            &mut self.shards[((fp ^ (fp >> 32)) & mask) as usize]
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.entries.len()).sum()
        }
    }

    proptest! {
        /// Every matrix size gets the whole sample from ascending, disjoint
        /// windows that start at entry 0 and end at `nnz`, with the row
        /// length read 64 times past the sample size.
        #[test]
        fn fingerprint_windows_hold_the_whole_sample(nnz in 0usize..2_000_000) {
            let windows: Vec<_> = fingerprint_windows(nnz).collect();
            let read: usize = windows.iter().map(|w| w.len()).sum();
            prop_assert_eq!(read, nnz.min(FINGERPRINT_COORD_SAMPLE));
            prop_assert_eq!(windows[0].start, 0);
            prop_assert_eq!(windows.last().unwrap().end, nnz);
            for pair in windows.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start, "{:?}", pair);
            }
            let runs: usize = windows
                .iter()
                .map(|w| w.clone().step_by(FINGERPRINT_RUN_EVERY).count())
                .sum();
            if nnz > FINGERPRINT_COORD_SAMPLE {
                prop_assert_eq!(windows.len(), FINGERPRINT_WINDOWS);
                prop_assert!(windows.iter().all(|w| w.len() == FINGERPRINT_WINDOW_LEN));
                prop_assert_eq!(runs, FINGERPRINT_COORD_SAMPLE / FINGERPRINT_RUN_EVERY);
            } else {
                prop_assert_eq!(runs, nnz.div_ceil(FINGERPRINT_RUN_EVERY));
            }
        }

        /// The galloping run search agrees with a linear scan at every
        /// position of arbitrary sorted row arrays.
        #[test]
        fn row_run_matches_a_linear_scan(
            lens in proptest::collection::vec(1usize..40, 1..30),
        ) {
            let rows: Vec<u32> = lens
                .iter()
                .enumerate()
                .flat_map(|(r, &len)| std::iter::repeat_n(r as u32, len))
                .collect();
            for p in 0..rows.len() {
                let len = rows.iter().filter(|&&r| r == rows[p]).count();
                prop_assert_eq!(row_run(&rows, p), len);
            }
        }

        /// The cache as it ships (8 shards, fewer below 8 entries, the
        /// capacity split between them exactly) behaves exactly like one Vec-based LRU per shard under
        /// arbitrary interleavings of lookups, inserts and generation
        /// bumps, hit counts included. Keys carry high bits, so the
        /// routing fold is exercised too.
        #[test]
        fn sharded_cache_matches_per_shard_reference_lru(
            ops in proptest::collection::vec((0u8..5, 0u64..24), 1..200),
            capacity in 1usize..20,
        ) {
            let cache = small_cache(capacity);
            let mut model = ModelCache::new(capacity);
            let model_caps: Vec<usize> = model.shards.iter().map(|s| s.cap).collect();
            prop_assert_eq!(shard_capacities(&cache), model_caps);
            let mut generation = 0u64;
            let mut fmt = 0u32;
            for (op, k) in ops {
                let fp = (k % 5) << 32 | k;
                match op {
                    0 | 1 => {
                        prop_assert_eq!(
                            cache.lookup_counted(fp, generation),
                            model.shard(fp).lookup(fp, generation)
                        );
                    }
                    2 | 3 => {
                        // Distinct payloads so a hit proves which
                        // insert it came from.
                        fmt += 1;
                        let s = sel(
                            [SparseFormat::Csr, SparseFormat::Coo, SparseFormat::Dia][fmt as usize % 3],
                            fmt as f32,
                        );
                        prop_assert_eq!(
                            cache.insert(fp, generation, 0, s),
                            model.shard(fp).insert(fp, generation, s)
                        );
                    }
                    _ => generation += 1,
                }
                prop_assert_eq!(cache.len(), model.len());
            }
        }
    }
}
