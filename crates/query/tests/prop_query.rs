//! Property tests for the relational layer: tuple codec roundtrips,
//! predicate/bounds consistency, and executor agreement with a naive
//! in-memory evaluation.

use proptest::prelude::*;

use procdb_query::{
    execute, Catalog, CompOp, FieldType, Organization, Plan, Predicate, Schema, Table, Term, Tuple,
    Value,
};
use procdb_storage::{AccountingMode, Pager, PagerConfig};

fn pager() -> std::sync::Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 512,
        buffer_capacity: 1024,
        mode: AccountingMode::Logical,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode is the identity (modulo byte-field padding).
    #[test]
    fn tuple_codec_roundtrip(
        ints in proptest::collection::vec(any::<i64>(), 0..5),
        bytes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..3),
    ) {
        let mut fields: Vec<(String, FieldType)> = Vec::new();
        let mut tuple: Tuple = Vec::new();
        for (i, v) in ints.iter().enumerate() {
            fields.push((format!("i{i}"), FieldType::Int));
            tuple.push(Value::Int(*v));
        }
        for (i, b) in bytes.iter().enumerate() {
            fields.push((format!("b{i}"), FieldType::Bytes(12)));
            tuple.push(Value::Bytes(b.clone()));
        }
        if fields.is_empty() {
            return Ok(());
        }
        let schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
        let decoded = schema.decode(&schema.encode(&tuple));
        for (got, orig) in decoded.iter().zip(&tuple) {
            match (got, orig) {
                (Value::Int(a), Value::Int(b)) => prop_assert_eq!(a, b),
                (Value::Bytes(a), Value::Bytes(b)) => {
                    prop_assert_eq!(&a[..b.len()], &b[..]);
                    prop_assert!(a[b.len()..].iter().all(|x| *x == 0), "padding must be zero");
                }
                _ => prop_assert!(false, "type changed in roundtrip"),
            }
        }
    }

    /// The key range from `int_bounds` plus the `residual` terms accept
    /// exactly the rows the whole predicate accepts, and the residual
    /// keeps no key term the range captures.
    #[test]
    fn int_bounds_agrees_with_eval(
        terms in proptest::collection::vec(
            (0usize..2, prop_oneof![
                -100i64..100,
                Just(i64::MIN),
                Just(i64::MAX),
            ], prop_oneof![
                Just(CompOp::Lt), Just(CompOp::Le), Just(CompOp::Eq),
                Just(CompOp::Ne), Just(CompOp::Ge), Just(CompOp::Gt),
            ]),
            0..5,
        ),
        probes in proptest::collection::vec(
            (prop_oneof![-120i64..120, Just(i64::MIN), Just(i64::MAX)], -120i64..120),
            1..30,
        ),
    ) {
        let pred = Predicate {
            terms: terms
                .iter()
                .map(|(f, c, op)| Term::new(*f, *op, *c))
                .collect(),
        };
        let (lo, hi) = pred.int_bounds(0).unwrap_or((i64::MIN, i64::MAX));
        let residual = pred.residual(0);
        if pred.int_bounds(0).is_some() {
            // Only `> MAX` and `< MIN` stay open on the key field.
            let extreme = [Value::Int(i64::MIN), Value::Int(i64::MAX)];
            prop_assert!(residual
                .terms
                .iter()
                .all(|t| t.field == 1 || extreme.contains(&t.constant)));
        }
        for (k, g) in probes {
            let tuple: Tuple = vec![Value::Int(k), Value::Int(g)];
            prop_assert_eq!(
                pred.eval(&tuple),
                k >= lo && k <= hi && residual.eval(&tuple),
                "k = {}, g = {}, bounds = [{}, {}]", k, g, lo, hi
            );
        }
    }

    /// The executor agrees with a naive nested-loop evaluation over the
    /// same data, for the paper's select + probe-join plan shape.
    #[test]
    fn executor_matches_naive_join(
        r1_rows in proptest::collection::vec(((0i64..40), (0i64..8)), 0..60),
        r2_rows in proptest::collection::vec(((0i64..8), (0i64..3)), 0..20),
        window in ((0i64..40), (0i64..40)),
        tag in 0i64..3,
    ) {
        let (a, b) = window;
        let (lo, hi) = (a.min(b), a.max(b));
        let pg = pager();
        let r1s = Schema::new(vec![("skey", FieldType::Int), ("a", FieldType::Int)]);
        let r2s = Schema::new(vec![("b", FieldType::Int), ("tag", FieldType::Int)]);
        let mut r1 = Table::create(pg.clone(), "R1", r1s, Organization::BTree { key_field: 0 }, 0).unwrap();
        let mut r2 = Table::create(pg, "R2", r2s, Organization::Hash { key_field: 0 }, 16).unwrap();
        for (k, av) in &r1_rows {
            r1.insert(&vec![Value::Int(*k), Value::Int(*av)]).unwrap();
        }
        for (bv, tv) in &r2_rows {
            r2.insert(&vec![Value::Int(*bv), Value::Int(*tv)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(r1);
        cat.add(r2);

        let plan = Plan::select("R1", Predicate::int_range(0, lo, hi))
            .hash_join("R2", 1, Predicate::single(3, CompOp::Eq, tag));
        let mut got: Vec<(i64, i64, i64, i64)> = execute(&plan, &cat)
            .unwrap()
            .iter()
            .map(|t| (t[0].as_int(), t[1].as_int(), t[2].as_int(), t[3].as_int()))
            .collect();
        got.sort_unstable();

        let mut expect: Vec<(i64, i64, i64, i64)> = Vec::new();
        for (k, av) in &r1_rows {
            if *k < lo || *k > hi {
                continue;
            }
            for (bv, tv) in &r2_rows {
                if av == bv && *tv == tag {
                    expect.push((*k, *av, *bv, *tv));
                }
            }
        }
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
