//! A Rete memory's store (`StoredRows`) against a multiset model, on random insert/remove
//! sequences: few probe keys (so hundreds of tuples share one), a small
//! value domain (so duplicate tuples are common), and removes of tuples
//! that are not stored.
//!
//! After every step `scan_all` equals the model as a multiset and
//! `probe(key)` equals the model's tuples with that key in insertion
//! order. The ledger moves by exactly one read–modify–write per
//! successful remove and by nothing for an absent tuple.
//!
//! The same sequences then run with a fingerprint hasher that gives every
//! tuple the same fingerprint, so every remove must fall back to comparing
//! page bytes: contents stay exact, and each remove pays one charged write
//! per candidate it compares, newest first.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use procdb_query::{FieldType, Schema, StoredRows, Tuple, Value};
use procdb_storage::{AccountingMode, Pager, PagerConfig};

/// Every tuple fingerprints to 0.
#[derive(Default)]
struct Collide;

impl Hasher for Collide {
    fn finish(&self) -> u64 {
        0
    }
    fn write(&mut self, _: &[u8]) {}
}

type SameFingerprint = BuildHasherDefault<Collide>;

const KEYS: i64 = 3;
const VALUES: i64 = 6;
const STEPS: usize = 600;

fn pager() -> Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 256,
        buffer_capacity: 4096,
        mode: AccountingMode::Logical,
    })
}

fn schema() -> Schema {
    Schema::new(vec![
        ("k", FieldType::Int),
        ("v", FieldType::Int),
        ("tag", FieldType::Bytes(3)),
    ])
}

fn random_tuple(rng: &mut StdRng) -> Tuple {
    // Key 0 is hot, so it collects well over a hundred tuples.
    let k = if rng.gen_bool(0.7) {
        0
    } else {
        rng.gen_range(1..KEYS)
    };
    let v = rng.gen_range(0..VALUES);
    vec![
        Value::Int(k),
        Value::Int(v),
        Value::Bytes(vec![b'a' + (v % 2) as u8, b'x', b'y']),
    ]
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    let schema = schema();
    rows.sort_by_cached_key(|t| schema.encode(t));
    rows
}

/// Run one random sequence. `collide` says every tuple shares one
/// fingerprint, which changes only what a remove is expected to charge.
fn run<S: BuildHasher>(seed: u64, mut store: StoredRows<S>, pager: &Pager, collide: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Stored tuples in insertion order; a remove takes the newest match.
    let mut model: Vec<Tuple> = Vec::new();
    let mut peak = 0;
    for step in 0..STEPS {
        // Grow for two thirds of the run, then churn.
        let insert = rng.gen_bool(if step < STEPS * 2 / 3 { 0.85 } else { 0.4 });
        let t = if !insert && !model.is_empty() && rng.gen_bool(0.6) {
            model[rng.gen_range(0..model.len())].clone()
        } else {
            random_tuple(&mut rng)
        };
        let before = pager.ledger().snapshot();
        if insert {
            store.insert(&t).unwrap();
            model.push(t);
        } else {
            let same_key: Vec<&Tuple> = model.iter().filter(|m| m[0] == t[0]).collect();
            let newest = same_key.iter().rposition(|m| **m == t);
            // Candidates compared, newest first, until the match.
            let compared = match newest {
                Some(j) => same_key.len() - j,
                None => same_key.len(),
            } as u64;
            let removed = store.remove(&t).unwrap();
            assert_eq!(removed, newest.is_some(), "seed {seed} step {step}");
            let d = pager.ledger().snapshot().since(&before);
            let writes = match (collide, removed) {
                (true, _) => compared,
                (false, true) => 1,
                (false, false) => 0,
            };
            assert_eq!(
                (d.page_reads, d.page_writes, d.screens, d.delta_tuples),
                (writes, writes, 0, 0),
                "seed {seed} step {step}: ledger"
            );
            if removed {
                let at = model.iter().rposition(|m| *m == t).unwrap();
                model.remove(at);
            }
        }
        assert_eq!(store.len(), model.len() as u64);
        assert_eq!(
            sorted(store.scan_all().unwrap()),
            sorted(model.clone()),
            "seed {seed} step {step}: scan_all"
        );
        for k in 0..KEYS {
            let want: Vec<Tuple> = model
                .iter()
                .filter(|m| m[0] == Value::Int(k))
                .cloned()
                .collect();
            peak = peak.max(want.len());
            assert_eq!(
                store.probe(k).unwrap(),
                want,
                "seed {seed} step {step}: probe({k})"
            );
        }
    }
    assert!(peak >= 150, "seed {seed}: one key peaked at only {peak}");
}

#[test]
fn memory_store_matches_multiset_model() {
    for seed in 0..4 {
        let pg = pager();
        let store = StoredRows::with_hasher(pg.clone(), schema(), 0, RandomState::new());
        run(seed, store, &pg, false);
    }
}

#[test]
fn memory_store_matches_model_when_every_fingerprint_collides() {
    for seed in 0..4 {
        let pg = pager();
        let store = StoredRows::with_hasher(pg.clone(), schema(), 0, SameFingerprint::default());
        run(seed, store, &pg, true);
    }
}
