//! Property tests: the B+-tree against a `BTreeMap` multiset model and
//! the hash file against a `HashMap` model, under arbitrary operation
//! sequences.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use procdb_index::{BTreeFile, HashFile};
use procdb_storage::{AccountingMode, Pager, PagerConfig};

fn pager() -> std::sync::Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 256, // tiny pages force deep trees and many splits
        buffer_capacity: 4096,
        mode: AccountingMode::Logical,
    })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u8),
    DeleteOne(i64),
    Range(i64, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => ((-50i64..50), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (-50i64..50).prop_map(Op::DeleteOne),
        1 => ((-60i64..60), (-60i64..60)).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// B+-tree ≡ BTreeMap<key, multiset of values> under random
    /// insert / delete-one / range-scan sequences, with invariants
    /// checked at the end.
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(op(), 1..120)) {
        let mut tree = BTreeFile::create(pager()).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for o in ops {
            match o {
                Op::Insert(k, v) => {
                    tree.insert(k, &[v; 24]).unwrap();
                    model.entry(k).or_default().push(v);
                }
                Op::DeleteOne(k) => {
                    let expect = model.get(&k).map(|vs| !vs.is_empty()).unwrap_or(false);
                    let got = tree.delete_where(k, |_| true).unwrap();
                    prop_assert_eq!(got.is_some(), expect, "delete({})", k);
                    if let Some((_, bytes)) = got {
                        let vs = model.get_mut(&k).unwrap();
                        let pos = vs.iter().position(|v| *v == bytes[0]).expect("value known");
                        vs.remove(pos);
                        if vs.is_empty() {
                            model.remove(&k);
                        }
                    }
                }
                Op::Range(lo, hi) => {
                    let mut got: Vec<(i64, u8)> = Vec::new();
                    tree.scan_range(lo, hi, |k, _, v| got.push((k, v[0]))).unwrap();
                    let mut expect: Vec<(i64, u8)> = model
                        .range(lo..=hi)
                        .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                        .collect();
                    // Both sides sorted by key; values within a key may be
                    // in any order — normalize.
                    got.sort_unstable();
                    expect.sort_unstable();
                    prop_assert_eq!(got, expect, "range [{}, {}]", lo, hi);
                }
            }
        }
        let total: u64 = model.values().map(|v| v.len() as u64).sum();
        prop_assert_eq!(tree.len(), total);
        tree.check_invariants().unwrap();
        // Full scan is globally key-ordered.
        let mut last = i64::MIN;
        tree.scan_all(|k, _, _| {
            assert!(k >= last);
            last = k;
        })
        .unwrap();
    }

    /// Hash file ≡ HashMap<key, multiset> under random ops.
    #[test]
    fn hash_matches_model(
        ops in proptest::collection::vec(
            prop_oneof![
                3 => ((-30i64..30), any::<u8>()).prop_map(|(k, v)| (0u8, k, v)),
                1 => (-30i64..30).prop_map(|k| (1u8, k, 0)),
                1 => (-30i64..30).prop_map(|k| (2u8, k, 0)),
            ],
            1..100,
        ),
        buckets in 1usize..16,
    ) {
        let mut file = HashFile::create(pager(), buckets).unwrap();
        let mut model: HashMap<i64, Vec<u8>> = HashMap::new();
        for (kind, k, v) in ops {
            match kind {
                0 => {
                    file.insert(k, &[v; 16]).unwrap();
                    model.entry(k).or_default().push(v);
                }
                1 => {
                    let expect = model.get(&k).map(|vs| !vs.is_empty()).unwrap_or(false);
                    let got = file.delete_where(k, |_| true).unwrap();
                    prop_assert_eq!(got.is_some(), expect);
                    if let Some(bytes) = got {
                        let vs = model.get_mut(&k).unwrap();
                        let pos = vs.iter().position(|v| *v == bytes[0]).unwrap();
                        vs.remove(pos);
                    }
                }
                _ => {
                    let mut got: Vec<u8> = Vec::new();
                    file.probe(k, |bytes| got.push(bytes[0])).unwrap();
                    got.sort_unstable();
                    let mut expect = model.get(&k).cloned().unwrap_or_default();
                    expect.sort_unstable();
                    prop_assert_eq!(got, expect, "probe({})", k);
                }
            }
        }
        let total: u64 = model.values().map(|v| v.len() as u64).sum();
        prop_assert_eq!(file.len(), total);
    }
}
