//! Property test: an AVM-maintained view equals a from-scratch recompute
//! after any random modification stream — the differential identity
//! `V(R1 ∪ a − d, B) = V(R1, B) ∪ V(a, B) − V(d, B)` realized in storage.

use proptest::prelude::*;

use procdb_avm::{Delta, JoinStep, MaterializedView, ViewDef};
use procdb_query::{
    Catalog, CompOp, FieldType, Organization, Predicate, Schema, Table, Term, Value,
};
use procdb_storage::{AccountingMode, Pager, PagerConfig};

fn pager() -> std::sync::Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 512,
        buffer_capacity: 2048,
        mode: AccountingMode::Logical,
    })
}

fn setup(pg: &std::sync::Arc<Pager>) -> Catalog {
    let r1s = Schema::new(vec![("skey", FieldType::Int), ("a", FieldType::Int)]);
    let r2s = Schema::new(vec![("b", FieldType::Int), ("tag", FieldType::Int)]);
    let mut r1 = Table::create(
        pg.clone(),
        "R1",
        r1s,
        Organization::BTree { key_field: 0 },
        0,
    )
    .unwrap();
    let mut r2 = Table::create(
        pg.clone(),
        "R2",
        r2s,
        Organization::Hash { key_field: 0 },
        8,
    )
    .unwrap();
    for i in 0..50i64 {
        r1.insert(&vec![Value::Int(i), Value::Int(i % 6)]).unwrap();
    }
    for j in 0..6i64 {
        r2.insert(&vec![Value::Int(j), Value::Int(j % 2)]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(r1);
    cat.add(r2);
    cat
}

fn def(lo: i64, hi: i64, with_join: bool) -> ViewDef {
    ViewDef {
        base: "R1".into(),
        selection: Predicate::int_range(0, lo, hi),
        joins: if with_join {
            vec![JoinStep {
                inner: "R2".into(),
                outer_key_field: 1,
                residual: Predicate {
                    terms: vec![Term::new(3, CompOp::Eq, 0i64)],
                },
            }]
        } else {
            vec![]
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental maintenance ≡ recompute, selection-only and join views.
    #[test]
    fn avm_equals_recompute(
        window in ((0i64..50), (0i64..50)),
        with_join in any::<bool>(),
        moves in proptest::collection::vec(((0i64..50), (0i64..50)), 0..20),
    ) {
        let (x, y) = window;
        let (lo, hi) = (x.min(y), x.max(y));
        let pg = pager();
        let mut cat = setup(&pg);
        let d = def(lo, hi, with_join);
        let mut view = MaterializedView::new(pg.clone(), "v", d.clone(), &cat);
        view.recompute_full(&cat).unwrap();
        for (victim, new_key) in moves {
            let r1 = cat.get_mut("R1").unwrap();
            let Some(old) = r1.delete_where(victim, |_| true).unwrap() else { continue };
            let mut new = old.clone();
            new[0] = Value::Int(new_key);
            r1.insert(&new).unwrap();
            view.apply_delta(&Delta::from_modifications([(old, new)]), &cat).unwrap();
        }
        let mut fresh = MaterializedView::new(pg, "fresh", d, &cat);
        fresh.recompute_full(&cat).unwrap();
        prop_assert_eq!(
            view.contents_normalized().unwrap(),
            fresh.contents_normalized().unwrap()
        );
    }

    /// Applying a consistent delta and then its inverse restores the exact
    /// contents. The old value is taken from the real base relation — a
    /// delta must describe tuples that actually existed.
    #[test]
    fn delta_inverse_is_identity(
        window in ((0i64..50), (0i64..50)),
        key in 0i64..50,
        new_key in 0i64..50,
    ) {
        check_delta_inverse_is_identity(window, key, new_key)?;
    }

    /// Aggregate maintenance ≡ aggregate recompute under random streams.
    #[test]
    fn aggregate_equals_recompute(
        window in ((0i64..50), (0i64..50)),
        moves in proptest::collection::vec(((0i64..50), (0i64..50)), 0..20),
    ) {
        use procdb_avm::{AggFn, AggregateView};
        let (x, y) = window;
        let (lo, hi) = (x.min(y), x.max(y));
        let pg = pager();
        let mut cat = setup(&pg);
        // Group by the 'a' field (index 1), count per group.
        let mut agg = AggregateView::new(pg.clone(), "agg", def(lo, hi, false), 1, AggFn::Count);
        agg.recompute_full(&cat).unwrap();
        for (victim, new_key) in moves {
            let r1 = cat.get_mut("R1").unwrap();
            let Some(old) = r1.delete_where(victim, |_| true).unwrap() else { continue };
            let mut new = old.clone();
            new[0] = Value::Int(new_key);
            r1.insert(&new).unwrap();
            agg.apply_delta(&Delta::from_modifications([(old, new)]), &cat).unwrap();
        }
        let mut fresh = AggregateView::new(pg, "fresh", def(lo, hi, false), 1, AggFn::Count);
        fresh.recompute_full(&cat).unwrap();
        prop_assert_eq!(agg.read_all().unwrap(), fresh.read_all().unwrap());
        // Group counts always sum to the window population.
        let total: i64 = agg.read_all().unwrap().iter().map(|g| g.count).sum();
        let mut expect = 0i64;
        cat.get("R1").unwrap().range_scan(lo, hi, |_| expect += 1).unwrap();
        prop_assert_eq!(total, expect);
    }

    /// Maintenance work scales with the delta, not the view: an irrelevant
    /// delta (outside the selection window) touches no pages.
    #[test]
    fn irrelevant_delta_is_free(
        key in 40i64..50,
        new_key in 40i64..50,
    ) {
        let pg = pager();
        let cat = setup(&pg);
        let mut view = MaterializedView::new(pg.clone(), "v", def(0, 9, true), &cat);
        view.recompute_full(&cat).unwrap();
        let s0 = pg.ledger().snapshot();
        let old = vec![Value::Int(key), Value::Int(key % 6)];
        let new = vec![Value::Int(new_key), Value::Int(key % 6)];
        view.apply_delta(&Delta::from_modifications([(old, new)]), &cat).unwrap();
        let d = pg.ledger().snapshot().since(&s0);
        prop_assert_eq!(d.page_ios(), 0, "no pages should be touched");
        prop_assert_eq!(d.screens, 2, "both tuple values screened");
    }
}

/// The body of `delta_inverse_is_identity`.
fn check_delta_inverse_is_identity(window: (i64, i64), key: i64, new_key: i64) -> TestCaseResult {
    let (x, y) = window;
    let (lo, hi) = (x.min(y), x.max(y));
    let pg = pager();
    let cat = setup(&pg);
    let mut view = MaterializedView::new(pg, "v", def(lo, hi, true), &cat);
    view.recompute_full(&cat).unwrap();
    let before = view.contents_normalized().unwrap();
    // A real R1 tuple (the pipeline only consults R2, so the base
    // relation need not actually change for this identity check).
    let mut old = None;
    cat.get("R1")
        .unwrap()
        .range_scan(key, key, |t| old = Some(t))
        .unwrap();
    let Some(old) = old else { return Ok(()) };
    let mut new = old.clone();
    new[0] = Value::Int(new_key);
    view.apply_delta(
        &Delta::from_modifications([(old.clone(), new.clone())]),
        &cat,
    )
    .unwrap();
    view.apply_delta(&Delta::from_modifications([(new, old)]), &cat)
        .unwrap();
    prop_assert_eq!(view.contents_normalized().unwrap(), before);
    Ok(())
}

/// A case `delta_inverse_is_identity` once failed on, replayed on every
/// run (its saved `a` parameter no longer exists).
#[test]
fn delta_inverse_is_identity_saved_case() {
    check_delta_inverse_is_identity((32, 0), 1, 0).unwrap();
}
