//! Ledger parity: a seeded mix of B-tree inserts (crossing leaf and root
//! splits), deletes, in-place updates and range scans, plus hash inserts,
//! probes and deletes, charges the page reads and writes pinned below in
//! both accounting modes and scans back what a `BTreeMap` model holds. The
//! counts are the paper's currency for this sequence: how pages are held
//! or edited must not move them.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use procdb_index::{BTreeFile, HashFile};
use procdb_query::{
    execute, Catalog, CompOp, FieldType, Organization, Plan, Predicate, Schema, Table, Term, Value,
};
use procdb_storage::{AccountingMode, CostSnapshot, Pager, PagerConfig};

/// splitmix64, so the sequence does not depend on a crate's RNG version.
fn below(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

fn pager(mode: AccountingMode) -> Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 256,
        // Small enough that `Physical` mode evicts dirty pages mid-run.
        buffer_capacity: 12,
        mode,
    })
}

fn value(tag: u64) -> Vec<u8> {
    (0..24).map(|i| (tag as u8).wrapping_add(i)).collect()
}

/// Run the seeded sequence; returns the ledger totals after a final flush.
fn run_sequence(mode: AccountingMode) -> CostSnapshot {
    let pager = pager(mode);
    let mut tree = BTreeFile::create(pager.clone()).unwrap();
    let mut hash = HashFile::create(pager.clone(), 3).unwrap();
    let mut model: BTreeMap<(i64, u64), Vec<u8>> = BTreeMap::new();
    let mut hash_model: HashMap<i64, Vec<Vec<u8>>> = HashMap::new();
    let rng = &mut 0x5EED;
    let mut heights = vec![tree.height()];
    for step in 0..900u64 {
        match below(rng, 16) {
            0..=7 => {
                let key = below(rng, 300) as i64;
                let seq = tree.insert(key, &value(step)).unwrap();
                model.insert((key, seq), value(step));
                if heights.last() != Some(&tree.height()) {
                    heights.push(tree.height());
                }
            }
            8..=10 if !model.is_empty() => {
                let nth = below(rng, model.len() as u64) as usize;
                let (&(key, seq), _) = model.iter().nth(nth).unwrap();
                if step % 3 == 0 {
                    let v = value(step + 7);
                    assert!(tree.update_value(key, seq, &v).unwrap());
                    assert!(!tree.update_value(key, seq, b"wrong length").unwrap());
                    model.insert((key, seq), v);
                } else {
                    assert_eq!(tree.delete(key, seq).unwrap(), model.remove(&(key, seq)));
                    assert_eq!(tree.delete(key, seq).unwrap(), None, "double delete");
                }
            }
            11 | 12 => {
                let a = below(rng, 320) as i64 - 10;
                let b = a + below(rng, 60) as i64;
                let mut got = Vec::new();
                tree.scan_range(a, b, |k, s, v| got.push(((k, s), v.to_vec())))
                    .unwrap();
                let want: Vec<_> = model
                    .range((a, 0)..=(b, u64::MAX))
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                assert_eq!(got, want, "scan [{a}, {b}] at step {step}");
            }
            13 => {
                let key = below(rng, 40) as i64;
                hash.insert(key, &value(step)).unwrap();
                hash_model.entry(key).or_default().push(value(step));
            }
            14 => {
                let key = below(rng, 40) as i64;
                let want = hash_model.get(&key).cloned().unwrap_or_default();
                assert_eq!(hash.get_all(key).unwrap(), want);
            }
            _ => {
                let key = below(rng, 40) as i64;
                let want = hash_model
                    .get_mut(&key)
                    .and_then(|vs| (!vs.is_empty()).then(|| vs.remove(0)));
                assert_eq!(hash.delete_where(key, |_| true).unwrap(), want);
            }
        }
    }
    assert_eq!(heights, vec![1, 2, 3], "leaf splits and two root splits");
    pager.flush().unwrap();
    let totals = pager.ledger().snapshot();
    tree.check_invariants().unwrap();
    let mut all = Vec::new();
    tree.scan_all(|k, s, v| all.push(((k, s), v.to_vec())))
        .unwrap();
    assert_eq!(all, model.into_iter().collect::<Vec<_>>());
    let mut hashed = 0;
    hash.scan_all(|_, _| hashed += 1).unwrap();
    assert_eq!(hashed, hash.len());
    totals
}

#[test]
fn logical_ledger_matches_pinned_counts() {
    let got = run_sequence(AccountingMode::Logical);
    assert_eq!(
        (got.page_reads, got.page_writes, got.screens),
        (4582, 942, 0)
    );
}

#[test]
fn physical_ledger_matches_pinned_counts() {
    let got = run_sequence(AccountingMode::Physical);
    assert_eq!(
        (got.page_reads, got.page_writes, got.screens),
        (1657, 749, 0)
    );
}

/// A `BTreeSelect` over `EMP(eid, grp, pad)`, B-tree on `eid`, with a
/// non-key term: the `grp` term still filters, and every scanned tuple
/// still counts one screen.
#[test]
fn btree_select_tests_the_open_term_and_screens_every_scanned_tuple() {
    let pager = pager(AccountingMode::Logical);
    let schema = Schema::new(vec![
        ("eid", FieldType::Int),
        ("grp", FieldType::Int),
        ("pad", FieldType::Bytes(16)),
    ]);
    let org = Organization::BTree { key_field: 0 };
    let mut t = Table::create(pager.clone(), "EMP", schema, org, 0).unwrap();
    for eid in 0..400i64 {
        let pad = Value::Bytes(vec![eid as u8; 16]);
        t.insert(&vec![Value::Int(eid), Value::Int(eid % 7), pad])
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(t);
    let pred = Predicate::int_range(0, 100, 249).and(Term::new(1, CompOp::Eq, 3i64));
    let before = pager.ledger().snapshot();
    let rows = execute(&Plan::select("EMP", pred), &cat).unwrap();
    let d = pager.ledger().snapshot().since(&before);
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_int()).collect();
    assert_eq!(got, (100..=249).filter(|e| e % 7 == 3).collect::<Vec<_>>());
    assert!(rows.iter().all(|r| r[1] == Value::Int(3)));
    assert_eq!(d.screens, 150, "one screen per scanned tuple");
    assert_eq!((d.page_reads, d.page_writes), (81, 0));
}
