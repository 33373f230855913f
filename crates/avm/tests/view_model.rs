//! `MaterializedView`'s stored copy against a multiset model, on random
//! delta sequences: a small tuple domain (so duplicate view tuples are
//! common) and deletes of tuples the view does not hold.
//!
//! The view is a bare selection that keeps every row, so each inserted
//! delta tuple is one stored tuple and each deleted one is one delete.
//! After every step `read_all` equals the model as a multiset; a delete
//! moves the page ledger by exactly one read–modify–write when the tuple
//! is stored and by nothing when it is not.
//!
//! The same sequences then run with a fingerprint hasher that gives every
//! tuple the same fingerprint, so every delete must fall back to comparing
//! page bytes: contents stay exact, and each delete pays one charged write
//! per candidate it compares — the stored tuples with its key (the view
//! is indexed on `R1`'s key field), newest first.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use procdb_avm::{Delta, MaterializedView, ViewDef};
use procdb_query::{Catalog, FieldType, Organization, Predicate, Schema, Table, Tuple, Value};
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

const STEPS: usize = 500;

fn pager() -> Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 256,
        buffer_capacity: 4096,
        mode: AccountingMode::Logical,
    })
}

fn schema() -> Schema {
    Schema::new(vec![("k", FieldType::Int), ("v", FieldType::Int)])
}

fn catalog(pg: &Arc<Pager>) -> Catalog {
    let r1 = Table::create(
        pg.clone(),
        "R1",
        schema(),
        Organization::BTree { key_field: 0 },
        0,
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.add(r1);
    cat
}

fn def() -> ViewDef {
    ViewDef {
        base: "R1".into(),
        selection: Predicate::always(),
        joins: vec![],
    }
}

fn random_tuple(rng: &mut StdRng) -> Tuple {
    vec![
        Value::Int(rng.gen_range(0..4)),
        Value::Int(rng.gen_range(0..4)),
    ]
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    let schema = schema();
    rows.sort_by_cached_key(|t| schema.encode(t));
    rows
}

/// Run one random sequence. `collide` says every tuple shares one
/// fingerprint, which changes only what a delete is expected to charge.
fn run<S: BuildHasher>(
    seed: u64,
    mut view: MaterializedView<S>,
    cat: &Catalog,
    pager: &Pager,
    collide: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Stored tuples in insertion order; a delete takes the newest match.
    let mut model: Vec<Tuple> = Vec::new();
    for step in 0..STEPS {
        let insert = rng.gen_bool(if step < STEPS / 2 { 0.8 } else { 0.45 });
        let t = if !insert && !model.is_empty() && rng.gen_bool(0.6) {
            model[rng.gen_range(0..model.len())].clone()
        } else {
            random_tuple(&mut rng)
        };
        if insert {
            let delta = Delta {
                inserted: vec![t.clone()],
                deleted: vec![],
            };
            assert_eq!(view.apply_delta(&delta, cat).unwrap().view_inserted, 1);
            model.push(t);
        } else {
            let newest = model.iter().rposition(|m| *m == t);
            let same_key: Vec<&Tuple> = model.iter().filter(|m| m[0] == t[0]).collect();
            let compared = match same_key.iter().rposition(|m| **m == t) {
                Some(j) => same_key.len() - j,
                None => same_key.len(),
            } as u64;
            let delta = Delta {
                inserted: vec![],
                deleted: vec![t],
            };
            let before = pager.ledger().snapshot();
            let stats = view.apply_delta(&delta, cat).unwrap();
            let d = pager.ledger().snapshot().since(&before);
            assert_eq!(
                stats.view_deleted,
                usize::from(newest.is_some()),
                "seed {seed} step {step}"
            );
            let writes = match (collide, newest) {
                (true, _) => compared,
                (false, Some(_)) => 1,
                (false, None) => 0,
            };
            assert_eq!(
                (d.page_reads, d.page_writes),
                (writes, writes),
                "seed {seed} step {step}: ledger"
            );
            if let Some(j) = newest {
                model.remove(j);
            }
        }
        assert_eq!(view.len(), model.len() as u64);
        assert_eq!(
            sorted(view.read_all().unwrap()),
            sorted(model.clone()),
            "seed {seed} step {step}: read_all"
        );
    }
}

#[test]
fn view_matches_multiset_model() {
    for seed in 0..4 {
        let pg = pager();
        let cat = catalog(&pg);
        let view = MaterializedView::with_hasher(pg.clone(), def(), &cat, RandomState::new());
        run(seed, view, &cat, &pg, false);
    }
}

#[test]
fn view_matches_model_when_every_fingerprint_collides() {
    for seed in 0..4 {
        let pg = pager();
        let cat = catalog(&pg);
        let view =
            MaterializedView::with_hasher(pg.clone(), def(), &cat, SameFingerprint::default());
        run(seed, view, &cat, &pg, true);
    }
}
