//! Synthetic database construction: the paper's `R1`, `R2`, `R3` with
//! their prescribed access methods.
//!
//! | relation | schema | organization |
//! |----------|--------|--------------|
//! | `R1(skey, a, pad)` | selection key, join key into `R2`, padding to `S` | clustered B-tree on `skey` |
//! | `R2(b, c, f2sel, pad)` | join key from `R1`, join key into `R3`, restriction attribute | hash on `b` |
//! | `R3(d, pad)` | join key from `R2` | hash on `d` |
//!
//! Key distributions make the paper's cardinality expectations exact:
//! `skey` and `b`/`d` are dense and distinct, `a` and `c` are uniform over
//! the target relation's key domain, so each probe joins exactly one
//! tuple in expectation, and a selectivity-`f` key range holds `f·N`
//! tuples in expectation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use procdb_query::{Catalog, FieldType, Organization, Schema, Table, Value};
use procdb_storage::{Pager, Result};

use crate::config::{SimConfig, F2_DOMAIN};

/// Field indexes of `R1`.
pub mod r1 {
    /// Selection key (clustering key).
    pub const SKEY: usize = 0;
    /// Join key into `R2`.
    pub const A: usize = 1;
    /// Padding.
    pub const PAD: usize = 2;
    /// Arity.
    pub const ARITY: usize = 3;
}

/// Field indexes of `R2`.
pub mod r2 {
    /// Hash key (joined from `R1.a`).
    pub const B: usize = 0;
    /// Join key into `R3`.
    pub const C: usize = 1;
    /// Restriction attribute for `C_f2`.
    pub const F2SEL: usize = 2;
    /// Padding.
    pub const PAD: usize = 3;
    /// Arity.
    pub const ARITY: usize = 4;
}

/// Field indexes of `R3`.
pub mod r3 {
    /// Hash key (joined from `R2.c`).
    pub const D: usize = 0;
    /// Padding.
    pub const PAD: usize = 1;
}

/// `R1`'s schema for a config (padded to `S` bytes).
pub fn r1_schema(c: &SimConfig) -> Schema {
    Schema::new(vec![
        ("skey", FieldType::Int),
        ("a", FieldType::Int),
        ("pad", FieldType::Bytes(c.s.saturating_sub(16).max(1))),
    ])
}

/// `R2`'s schema for a config.
pub fn r2_schema(c: &SimConfig) -> Schema {
    Schema::new(vec![
        ("b", FieldType::Int),
        ("c", FieldType::Int),
        ("f2sel", FieldType::Int),
        ("pad", FieldType::Bytes(c.s.saturating_sub(24).max(1))),
    ])
}

/// `R3`'s schema for a config.
pub fn r3_schema(c: &SimConfig) -> Schema {
    Schema::new(vec![
        ("d", FieldType::Int),
        ("pad", FieldType::Bytes(c.s.saturating_sub(8).max(1))),
    ])
}

/// Build and load the three base relations (uncharged). Returns the
/// catalog; the pager's ledger is left at zero.
pub fn build_database(pager: Arc<Pager>, c: &SimConfig) -> Result<Catalog> {
    let uncharged = pager.uncharged();
    let mut rng = StdRng::seed_from_u64(c.seed);
    let n_r2 = c.n_r2() as i64;
    let n_r3 = c.n_r3() as i64;

    let mut t1 = Table::create(
        pager.clone(),
        "R1",
        r1_schema(c),
        Organization::BTree {
            key_field: r1::SKEY,
        },
        c.n,
    )?;
    let pad1 = vec![0u8; 1];
    for i in 0..c.n as i64 {
        t1.insert(&vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..n_r2)),
            Value::Bytes(pad1.clone()),
        ])?;
    }

    let mut t2 = Table::create(
        pager.clone(),
        "R2",
        r2_schema(c),
        Organization::Hash { key_field: r2::B },
        c.n_r2(),
    )?;
    for j in 0..n_r2 {
        t2.insert(&vec![
            Value::Int(j),
            Value::Int(rng.gen_range(0..n_r3)),
            Value::Int(rng.gen_range(0..F2_DOMAIN)),
            Value::Bytes(pad1.clone()),
        ])?;
    }

    let mut t3 = Table::create(
        pager.clone(),
        "R3",
        r3_schema(c),
        Organization::Hash { key_field: r3::D },
        c.n_r3(),
    )?;
    for k in 0..n_r3 {
        t3.insert(&vec![Value::Int(k), Value::Bytes(pad1.clone())])?;
    }

    let mut cat = Catalog::new();
    cat.add(t1);
    cat.add(t2);
    cat.add(t3);
    pager.ledger().reset();
    drop(uncharged);
    pager.clear_buffer()?;
    Ok(cat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_storage::{AccountingMode, PagerConfig};

    fn small() -> SimConfig {
        let mut c = SimConfig::default().scaled_down(100); // N = 1000
        c.seed = 42;
        c
    }

    fn pager(c: &SimConfig) -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: c.page_size,
            buffer_capacity: 4096,
            mode: AccountingMode::Logical,
        })
    }

    #[test]
    fn builds_all_three_relations() {
        let c = small();
        let cat = build_database(pager(&c), &c).unwrap();
        assert_eq!(cat.get("R1").unwrap().len(), 1000);
        assert_eq!(cat.get("R2").unwrap().len(), 100);
        assert_eq!(cat.get("R3").unwrap().len(), 100);
    }

    #[test]
    fn loading_is_uncharged() {
        let c = small();
        let p = pager(&c);
        let _ = build_database(p.clone(), &c).unwrap();
        assert_eq!(p.ledger().snapshot().page_ios(), 0);
    }

    #[test]
    fn r1_blocking_factor_matches_model() {
        // b = N·S/B: with S=100, B=4000 → 40 tuples/page; the clustered
        // B-tree leaf holds a bit fewer due to per-entry overhead, but the
        // same order.
        let c = small();
        let cat = build_database(pager(&c), &c).unwrap();
        let r1 = cat.get("R1").unwrap();
        let pages = r1.page_count() as f64;
        let model_pages = (c.n * c.s) as f64 / c.page_size as f64;
        // B+-tree leaves are 50–70% full after random splits and carry
        // per-entry key overhead, so the real file is ~2–2.5× the model's
        // idealized packing — same order, shape preserved.
        assert!(
            pages >= model_pages && pages <= 3.0 * model_pages,
            "pages = {pages}, model = {model_pages}"
        );
    }

    #[test]
    fn joins_are_one_to_one_in_expectation() {
        let c = small();
        let cat = build_database(pager(&c), &c).unwrap();
        let r2 = cat.get("R2").unwrap();
        // Every b in [0, n_r2) occurs exactly once.
        for b in [0i64, 17, 99] {
            assert_eq!(r2.key_count(b).unwrap(), 1, "b = {b}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let c = small();
        let cat1 = build_database(pager(&c), &c).unwrap();
        let cat2 = build_database(pager(&c), &c).unwrap();
        let rows1 = cat1.get("R2").unwrap().scan_all().unwrap();
        let rows2 = cat2.get("R2").unwrap().scan_all().unwrap();
        assert_eq!(rows1, rows2);
    }
}
