//! Key → shard placement.
//!
//! `R1` is hash-partitioned on its clustering/selection key. The hash is
//! a fixed splitmix64 finalizer — *not* the process-seeded `DefaultHasher`
//! — so placement is stable across runs, processes, and machines; the
//! equivalence property test and the bench harness both rely on a run
//! with `S` shards placing every tuple exactly where the previous run
//! did.

use procdb_query::Tuple;

/// Owning shard for a clustering-key value under an `shards`-way
/// partitioning. Pure and deterministic; `shards` must be non-zero.
pub fn shard_of(key: i64, shards: usize) -> usize {
    assert!(shards > 0, "shard_of needs at least one shard");
    // splitmix64 finalizer: cheap, well-mixed, and stable.
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Placement policy for a fixed shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Router {
    shards: usize,
}

impl Router {
    /// A router over `shards` partitions (panics on zero).
    pub fn new(shards: usize) -> Router {
        assert!(shards > 0, "a router needs at least one shard");
        Router { shards }
    }

    /// Number of partitions this router maps onto.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Owning shard for a clustering-key value.
    pub fn shard_of(&self, key: i64) -> usize {
        shard_of(key, self.shards)
    }

    /// Deal `rows` into per-shard groups by the integer key at
    /// `key_field`, preserving the relative order of rows within each
    /// group (insertion order among duplicates of a key decides which
    /// tuple a keyed delete removes — the split must not reorder them).
    pub fn partition_rows(&self, rows: Vec<Tuple>, key_field: usize) -> Vec<Vec<Tuple>> {
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); self.shards];
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

    #[test]
    fn placement_is_stable_and_total() {
        for shards in 1..=8 {
            for key in -1000i64..1000 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "must be deterministic");
            }
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for key in 0i64..10_000 {
            counts[shard_of(key, shards)] += 1;
        }
        for &c in &counts {
            // Within ±25% of the fair share for a uniform key range.
            assert!(
                (1875..=3125).contains(&c),
                "skewed partitioning: {counts:?}"
            );
        }
    }

    #[test]
    fn partition_preserves_relative_order() {
        let router = Router::new(3);
        let rows: Vec<Tuple> = (0..30)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
            .collect();
        let parts = router.partition_rows(rows.clone(), 0);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), rows.len());
        for part in &parts {
            for pair in part.windows(2) {
                if pair[0][0] == pair[1][0] {
                    assert!(pair[0][1].as_int() < pair[1][1].as_int());
                }
            }
        }
    }
}
