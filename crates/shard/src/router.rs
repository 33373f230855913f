//! Key → shard placement.
//!
//! `R1` is range-partitioned on its clustering/selection key. A
//! [`Router`] is `S − 1` sorted boundary keys: shard `j` owns the keys in
//! `[bounds[j − 1], bounds[j])`, the first shard open below and the last
//! open above. The split keeps key order, as every layer above it does —
//! B-tree scans, i-locks, and the front cache's invalidation index all
//! reason in key intervals — so a procedure's key window maps to the
//! contiguous run of shards it overlaps ([`Router::shards_for`]), and an
//! access needs only those.
//!
//! [`Router::split`] is a pure function of the loaded keys, the declared
//! views' key windows, and `S`: each boundary starts at the equal-count
//! quantile of the keys and moves to the nearest window start that lies
//! within a quarter of a shard's share (by rank) on either side, so a
//! view that fits in one shard is not cut. The same inputs give the same
//! boundaries on every run, process, and machine; the oracle tests and
//! the bench harness rely on a rebuild placing every tuple where the
//! previous build with the same data did.

use std::ops::Range;

use procdb_query::{Predicate, Tuple};

/// Order-preserving placement over a fixed shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    /// `S − 1` non-decreasing boundary keys; shard `j` owns
    /// `[bounds[j − 1], bounds[j])`.
    bounds: Vec<i64>,
}

impl Router {
    /// Split the key domain `shards` ways (panics on zero) over `keys`,
    /// the base rows' clustering keys in any order, duplicates counted,
    /// snapping boundaries to the starts of `windows`, the declared
    /// views' inclusive `(lo, hi)` key windows. One shard has no
    /// boundaries, so it places every key on shard 0.
    pub fn split(
        shards: usize,
        keys: impl IntoIterator<Item = i64>,
        windows: &[(i64, i64)],
    ) -> Router {
        assert!(shards > 0, "a router needs at least one shard");
        let mut keys: Vec<i64> = keys.into_iter().collect();
        keys.sort_unstable();
        let n = keys.len();
        // Rank of a key: how many loaded keys lie below it.
        let rank = |k: i64| keys.partition_point(|&x| x < k);
        let starts: Vec<(usize, i64)> = windows.iter().map(|&(lo, _)| (rank(lo), lo)).collect();
        let band = n as f64 / (4 * shards) as f64;
        let bounds: Vec<i64> = (1..shards)
            .map(|j| {
                let target = j * n / shards;
                // Nearest start by rank (ties to the smaller key), else
                // the quantile itself; with no keys every boundary is the
                // top of the domain.
                starts
                    .iter()
                    .map(|&(r, lo)| (r.abs_diff(target), lo))
                    .filter(|&(d, _)| d as f64 <= band)
                    .min()
                    .map_or_else(
                        || keys.get(target).copied().unwrap_or(i64::MAX),
                        |(_, lo)| lo,
                    )
            })
            .collect();
        // The bands of distinct quantiles never overlap, so snapping
        // cannot reorder boundaries.
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
        Router { bounds }
    }

    /// [`Router::split`] over the key windows of the views whose
    /// selections are `selections`, read on `key_field` exactly as
    /// [`Router::targets`] reads them — the placement and the pruning
    /// must agree on every window. A selection that leaves the key
    /// unbounded contributes no window.
    pub fn split_for<'a>(
        shards: usize,
        keys: impl IntoIterator<Item = i64>,
        selections: impl IntoIterator<Item = &'a Predicate>,
        key_field: usize,
    ) -> Router {
        let windows: Vec<(i64, i64)> = selections
            .into_iter()
            .filter_map(|s| s.int_bounds(key_field))
            .collect();
        Router::split(shards, keys, &windows)
    }

    /// The shards a procedure selecting `selection` must ask: those its
    /// window on `key_field` overlaps, or every shard when the selection
    /// leaves the key unbounded.
    pub fn targets(&self, selection: &Predicate, key_field: usize) -> Range<usize> {
        match selection.int_bounds(key_field) {
            Some((lo, hi)) => self.shards_for(lo, hi),
            None => 0..self.shards(),
        }
    }

    /// Number of partitions this router maps onto.
    pub fn shards(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Owning shard for a clustering-key value.
    pub fn shard_of(&self, key: i64) -> usize {
        self.bounds.partition_point(|&b| b <= key)
    }

    /// The shards a procedure over the inclusive key window `[lo, hi]`
    /// must ask: every shard the window overlaps, and at least one — an
    /// empty window (`lo > hi`) is served by `lo`'s shard alone.
    pub fn shards_for(&self, lo: i64, hi: i64) -> Range<usize> {
        self.shard_of(lo)..self.shard_of(hi.max(lo)) + 1
    }

    /// Key range `[lo, hi)` shard `shard` owns; `None` is unbounded.
    pub fn key_range(&self, shard: usize) -> (Option<i64>, Option<i64>) {
        let lo = shard.checked_sub(1).map(|j| self.bounds[j]);
        (lo, self.bounds.get(shard).copied())
    }

    /// Deal `rows` into per-shard groups by the integer key at
    /// `key_field`, preserving the relative order of rows within each
    /// group (insertion order among duplicates of a key decides which
    /// tuple a keyed delete removes — the split must not reorder them).
    pub fn partition_rows(&self, rows: Vec<Tuple>, key_field: usize) -> Vec<Vec<Tuple>> {
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); self.shards()];
        for row in rows {
            parts[self.shard_of(row[key_field].as_int())].push(row);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_query::Value;

    /// `n` distinct keys spread unevenly over a wide domain (gaps grow
    /// with the key), in a scrambled order.
    fn scattered_keys(n: i64) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let p = (i * 7919) % n;
                p + p * p / 7
            })
            .collect()
    }

    fn counts(router: &Router, keys: &[i64]) -> Vec<usize> {
        let mut c = vec![0usize; router.shards()];
        for &k in keys {
            c[router.shard_of(k)] += 1;
        }
        c
    }

    #[test]
    fn placement_is_stable_and_total() {
        let keys = scattered_keys(500);
        let windows = [(10, 90), (700, 760), (-5, 3000)];
        for shards in 1..=8 {
            let a = Router::split(shards, keys.iter().copied(), &windows);
            let b = Router::split(shards, keys.iter().rev().copied(), &windows);
            assert_eq!(a, b, "same keys, windows and S give the same boundaries");
            assert_eq!(a.shards(), shards);
            for key in -1000i64..2000 {
                assert!(a.shard_of(key) < shards);
            }
        }
    }

    #[test]
    fn placement_keeps_key_order() {
        let keys = scattered_keys(300);
        let mut probes: Vec<i64> = keys.iter().flat_map(|&k| [k - 1, k, k + 1]).collect();
        probes.extend([i64::MIN, i64::MAX]);
        probes.sort_unstable();
        for shards in 1..=6 {
            let r = Router::split(shards, keys.iter().copied(), &[(100, 200), (4500, 4600)]);
            for pair in probes.windows(2) {
                assert!(
                    r.shard_of(pair[0]) <= r.shard_of(pair[1]),
                    "S={shards} {pair:?}"
                );
            }
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        // 840 is divisible by every S below, so n/S is exact.
        let keys = scattered_keys(840);
        let windows: Vec<(i64, i64)> = (0..40).map(|w| (w * 2500, w * 2500 + 900)).collect();
        for shards in 1..=8 {
            let r = Router::split(shards, keys.iter().copied(), &windows);
            let fair = 840 / shards;
            for &c in &counts(&r, &keys) {
                assert!(
                    c.abs_diff(fair) * 2 <= fair,
                    "S={shards}: {:?} strays beyond ±50 % of {fair}",
                    counts(&r, &keys)
                );
            }
        }
    }

    #[test]
    fn a_window_start_inside_the_quarter_share_band_becomes_a_boundary() {
        let keys: Vec<i64> = (0..100).collect();
        // S = 2: the quantile is key 50 and the band is ±12.5 ranks.
        let plain = Router::split(2, keys.iter().copied(), &[]);
        assert_eq!(plain.key_range(1), (Some(50), None));
        let snapped = Router::split(2, keys.iter().copied(), &[(41, 58), (0, 9)]);
        assert_eq!(snapped.key_range(0), (None, Some(41)));
        assert_eq!(snapped.shards_for(41, 58), 1..2, "the view is not cut");
        // The nearest start wins; one outside the band is ignored.
        let nearest = Router::split(2, keys.iter().copied(), &[(40, 45), (53, 60), (20, 90)]);
        assert_eq!(nearest.key_range(1), (Some(53), None));
        let outside = Router::split(2, keys.iter().copied(), &[(37, 45), (63, 70)]);
        assert_eq!(outside.key_range(1), (Some(50), None));
    }

    #[test]
    fn shards_for_covers_exactly_the_overlapped_shards() {
        let keys: Vec<i64> = (0..300).collect();
        let r = Router::split(3, keys.iter().copied(), &[]);
        assert_eq!(
            (r.key_range(1), r.key_range(2)),
            ((Some(100), Some(200)), (Some(200), None))
        );
        assert_eq!(r.shards_for(120, 180), 1..2, "inside one shard");
        assert_eq!(r.shards_for(100, 199), 1..2, "exactly one shard's range");
        assert_eq!(r.shards_for(150, 250), 1..3, "across a boundary");
        assert_eq!(r.shards_for(i64::MIN, i64::MAX), 0..3, "unbounded");
        assert_eq!(r.shards_for(-500, -1), 0..1, "past the low end");
        assert_eq!(r.shards_for(900, 1000), 2..3, "past the high end");
        assert_eq!(r.shards_for(250, 120), 2..3, "empty: one shard");
        assert_eq!(r.shards_for(5, 4).len(), 1);
    }

    #[test]
    fn split_for_and_targets_read_the_same_windows() {
        let keys: Vec<i64> = (0..100).collect();
        let inside = Predicate::int_range(0, 44, 60);
        let unbounded = Predicate::int_range(1, 0, 5);
        let r = Router::split_for(2, keys.iter().copied(), [&inside, &unbounded], 0);
        assert_eq!(r, Router::split(2, keys.iter().copied(), &[(44, 60)]));
        assert_eq!(r.targets(&inside, 0), 1..2, "snapped: one shard");
        assert_eq!(r.targets(&unbounded, 0), 0..2, "no key bound: every shard");
        assert_eq!(r.targets(&Predicate::int_range(0, 10, 90), 0), 0..2);
    }

    #[test]
    fn degenerate_inputs_build_without_panicking() {
        for shards in 1..=5 {
            let empty = Router::split(shards, std::iter::empty(), &[(3, 9)]);
            assert_eq!(empty.shards(), shards);
            assert!(empty.shard_of(42) < shards);
            // More shards than distinct keys: some shards stay empty.
            let few = Router::split(shards, [7, 7, 7, 2], &[(0, 1)]);
            assert_eq!(few.shards(), shards);
            assert!(few.shard_of(2) <= few.shard_of(7));
            assert_eq!(few.shards_for(1, 0).len(), 1);
        }
    }

    #[test]
    fn partition_preserves_relative_order() {
        // Keys repeat: every copy of a key lands on one shard, in the
        // order the rows were given.
        let rows: Vec<Tuple> = (0..30)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
            .collect();
        let router = Router::split(3, rows.iter().map(|r| r[0].as_int()), &[]);
        let parts = router.partition_rows(rows.clone(), 0);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), rows.len());
        for key in 0..5 {
            let holders: Vec<usize> = (0..3)
                .filter(|&s| parts[s].iter().any(|r| r[0] == Value::Int(key)))
                .collect();
            assert_eq!(holders, vec![router.shard_of(key)], "key {key}");
        }
        for part in &parts {
            for pair in part.windows(2) {
                if pair[0][0] == pair[1][0] {
                    assert!(pair[0][1].as_int() < pair[1][1].as_int());
                }
            }
        }
    }
}
