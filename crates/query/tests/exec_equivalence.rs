//! The executor against a naive reference, on random schemas, rows and
//! plans: `execute` must return the reference's rows in the reference's
//! order, and charge exactly the screens and page reads the reference
//! predicts.
//!
//! The reference decodes everything: `Table::scan_all` plus
//! `Predicate::eval` for the selection, and a nested loop over the inner
//! table's rows (in insertion order, which is probe order) for each join.
//! Small pages (256–512 bytes) make every scan cross many leaves; small
//! key and value domains make duplicate keys, duplicate rows, and
//! predicates that both pass and fail.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use procdb_query::{
    execute, Catalog, CompOp, FieldType, Organization, Plan, Predicate, Schema, Table, Term, Tuple,
    Value,
};
use procdb_storage::{AccountingMode, Pager, PagerConfig};

const OPS: [CompOp; 6] = [
    CompOp::Lt,
    CompOp::Le,
    CompOp::Eq,
    CompOp::Ne,
    CompOp::Ge,
    CompOp::Gt,
];

/// Field 0 is the `Int` key; one to three more `Int` or `Bytes(1..=5)`.
fn random_schema(rng: &mut StdRng, prefix: &str) -> Schema {
    let mut fields = vec![(format!("{prefix}0"), FieldType::Int)];
    for i in 1..=rng.gen_range(1..=3usize) {
        let ty = if rng.gen_bool(0.5) {
            FieldType::Int
        } else {
            FieldType::Bytes(rng.gen_range(1..=5usize))
        };
        fields.push((format!("{prefix}{i}"), ty));
    }
    Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect())
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    (0..rng.gen_range(0..=max_len))
        .map(|_| [0u8, b'a', b'b'][rng.gen_range(0..3usize)])
        .collect()
}

fn random_value(rng: &mut StdRng, ty: FieldType) -> Value {
    match ty {
        FieldType::Int => Value::Int(rng.gen_range(0..6i64)),
        FieldType::Bytes(n) => Value::Bytes(random_bytes(rng, n)),
    }
}

fn random_row(rng: &mut StdRng, schema: &Schema, keys: i64) -> Tuple {
    let mut row: Tuple = schema
        .fields()
        .iter()
        .map(|f| random_value(rng, f.ty))
        .collect();
    row[0] = Value::Int(rng.gen_range(0..keys));
    row
}

/// A term on a random field of `schema`; one in eight compares across
/// types, and `Bytes` constants may be shorter or longer than the field.
fn random_term(rng: &mut StdRng, schema: &Schema) -> Term {
    let field = rng.gen_range(0..schema.arity());
    let op = OPS[rng.gen_range(0..OPS.len())];
    let ty = schema.fields()[field].ty;
    let constant = match (ty, rng.gen_range(0..8u32)) {
        (FieldType::Int, 0) => Value::Bytes(random_bytes(rng, 3)),
        (FieldType::Bytes(_), 0) => Value::Int(rng.gen_range(0..6i64)),
        (FieldType::Int, _) => Value::Int(rng.gen_range(-1..7i64)),
        (FieldType::Bytes(n), _) => Value::Bytes(random_bytes(rng, n + 1)),
    };
    Term::new(field, op, constant)
}

/// A selection on the key field (a window, one bound, an equality or
/// none) plus zero to two random terms.
fn random_selection(rng: &mut StdRng, schema: &Schema, keys: i64) -> Predicate {
    let a = rng.gen_range(-2..keys + 2);
    let b = rng.gen_range(-2..keys + 2);
    let mut pred = match rng.gen_range(0..4u32) {
        0 => Predicate::int_range(0, a.min(b), a.max(b)),
        1 => Predicate::single(0, OPS[rng.gen_range(0..OPS.len())], a),
        2 => Predicate::int_range(0, a, b), // may be empty (a > b)
        _ => Predicate::always(),
    };
    for _ in 0..rng.gen_range(0..=2u32) {
        pred = pred.and(random_term(rng, schema));
    }
    pred
}

fn random_residual(rng: &mut StdRng, schema: &Schema) -> Predicate {
    let mut pred = Predicate::always();
    for _ in 0..rng.gen_range(0..=2u32) {
        pred = pred.and(random_term(rng, schema));
    }
    pred
}

fn int_fields(schema: &Schema) -> Vec<usize> {
    (0..schema.arity())
        .filter(|&i| schema.fields()[i].ty == FieldType::Int)
        .collect()
}

/// What the reference expects `execute` to return and charge.
struct Expected {
    rows: Vec<Tuple>,
    screens: u64,
    page_reads: u64,
}

/// Page reads of `f`, measured on the pager's ledger.
fn reads_of(pager: &Pager, f: impl FnOnce()) -> u64 {
    let before = pager.ledger().snapshot();
    f();
    pager.ledger().snapshot().since(&before).page_reads
}

/// The nested-loop reference. `r2_rows` are the inner table's rows in
/// insertion order. Page reads are predicted as those of the bare index
/// accesses the plan needs: one range scan, then one probe per outer row
/// and join.
fn reference(
    plan: &Plan,
    cat: &Catalog,
    pager: &Pager,
    r2_rows: &[Tuple],
    r2_schema: &Schema,
) -> Expected {
    match plan {
        Plan::BTreeSelect { table, predicate } => {
            let t = cat.get(table).unwrap();
            let (lo, hi) = predicate.int_bounds(0).unwrap_or((i64::MIN, i64::MAX));
            let page_reads = reads_of(pager, || t.range_scan(lo, hi, |_| {}).unwrap());
            let window: Vec<Tuple> = t
                .scan_all()
                .unwrap()
                .into_iter()
                .filter(|row| (lo..=hi).contains(&row[0].as_int()))
                .collect();
            Expected {
                screens: window.len() as u64,
                rows: window.into_iter().filter(|r| predicate.eval(r)).collect(),
                page_reads,
            }
        }
        Plan::HashJoin {
            outer,
            inner,
            outer_key_field,
            residual,
        } => {
            let outer = reference(outer, cat, pager, r2_rows, r2_schema);
            let t = cat.get(inner).unwrap();
            let mut out = Expected {
                rows: Vec::new(),
                ..outer
            };
            for row in &outer.rows {
                let key = row[*outer_key_field].as_int();
                out.page_reads += reads_of(pager, || t.probe(key, |_| {}).unwrap());
                for inner_row in r2_rows.iter().filter(|r| r[0].as_int() == key) {
                    out.screens += 1;
                    let mut combined = row.clone();
                    combined.extend(r2_schema.normalize(inner_row));
                    if residual.eval(&combined) {
                        out.rows.push(combined);
                    }
                }
            }
            out
        }
        Plan::Project { input, fields } => {
            let input = reference(input, cat, pager, r2_rows, r2_schema);
            Expected {
                rows: input
                    .rows
                    .iter()
                    .map(|r| fields.iter().map(|&i| r[i].clone()).collect())
                    .collect(),
                ..input
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn executor_matches_reference_rows_and_charges(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pager = Pager::new(PagerConfig {
            page_size: [256, 384, 512][rng.gen_range(0..3usize)],
            buffer_capacity: 1024,
            mode: AccountingMode::Logical,
        });
        let keys = rng.gen_range(1..30i64);
        let r1_schema = random_schema(&mut rng, "a");
        let r2_schema = random_schema(&mut rng, "b");
        let mut r1 = Table::create(
            pager.clone(), "R1", r1_schema.clone(), Organization::BTree { key_field: 0 }, 0,
        ).unwrap();
        let r2_len = rng.gen_range(0..40usize);
        let mut r2 = Table::create(
            pager.clone(), "R2", r2_schema.clone(), Organization::Hash { key_field: 0 }, r2_len,
        ).unwrap();
        let mut r1_rows = Vec::new();
        for _ in 0..rng.gen_range(0..200usize) {
            let row = random_row(&mut rng, &r1_schema, keys);
            r1.insert(&row).unwrap();
            r1_rows.push(r1_schema.normalize(&row));
        }
        let r2_rows: Vec<Tuple> =
            (0..r2_len).map(|_| random_row(&mut rng, &r2_schema, 6)).collect();
        for row in &r2_rows {
            r2.insert(row).unwrap();
        }
        // The B-tree returns rows in key order, duplicates in insert order.
        r1_rows.sort_by_key(|r| r[0].as_int());
        prop_assert_eq!(&r1.scan_all().unwrap(), &r1_rows);
        let mut cat = Catalog::new();
        cat.add(r1);
        cat.add(r2);

        let mut plan = Plan::select("R1", random_selection(&mut rng, &r1_schema, keys));
        let mut schema = r1_schema.clone();
        for _ in 0..rng.gen_range(0..=2u32) {
            let key_fields = int_fields(&schema);
            let key_field = key_fields[rng.gen_range(0..key_fields.len())];
            schema = schema.concat(&r2_schema);
            let residual = random_residual(&mut rng, &schema);
            plan = plan.hash_join("R2", key_field, residual);
        }
        if rng.gen_bool(0.3) {
            let fields: Vec<usize> = (0..rng.gen_range(0..=4usize))
                .map(|_| rng.gen_range(0..schema.arity()))
                .collect();
            plan = plan.project(fields);
        }

        let expect = reference(&plan, &cat, &pager, &r2_rows, &r2_schema);
        let before = pager.ledger().snapshot();
        let got = execute(&plan, &cat).unwrap();
        let charged = pager.ledger().snapshot().since(&before);
        prop_assert_eq!(got, expect.rows, "plan:\n{}", plan.explain());
        prop_assert_eq!(charged.screens, expect.screens);
        prop_assert_eq!(charged.page_reads, expect.page_reads);
        prop_assert_eq!(charged.page_writes, 0);
    }
}
