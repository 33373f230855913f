//! Rete initialization ≡ the decoded full-scan algorithm it replaced.
//!
//! The oracle below is that algorithm, kept only here: every base row is
//! decoded by a full `Table::scan`, tested with `Predicate::eval`, and
//! the survivors are re-encoded into a fresh memory; a join memory
//! decodes its left memory and probes its right one tuple by tuple. On
//! seeded catalogs every memory of an initialized network must hold the
//! oracle's rows at the oracle's rids, in the same order, with the same
//! probe index — and a rebuild after a crash must reproduce a fresh
//! build exactly.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use procdb_query::{
    Catalog, CompOp, FieldType, Organization, Predicate, Schema, StoredRows, Table, Term, Tuple,
    Value,
};
use procdb_rete::{Rete, ReteSpec, Token};
use procdb_storage::{AccountingMode, Pager, PagerConfig, Rid};

fn pager() -> Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 512,
        buffer_capacity: 4096,
        mode: AccountingMode::Logical,
    })
}

fn r1_schema() -> Schema {
    Schema::new(vec![
        ("skey", FieldType::Int),
        ("a", FieldType::Int),
        ("tag", FieldType::Bytes(4)),
    ])
}

fn r2_schema() -> Schema {
    Schema::new(vec![("b", FieldType::Int), ("c", FieldType::Int)])
}

fn r3_schema() -> Schema {
    Schema::new(vec![("d", FieldType::Int), ("w", FieldType::Int)])
}

/// `R1` is a B-tree on `skey` whose keys repeat across leaves, `R2` is
/// hashed on `b` with repeated keys, `R3` is an unordered heap.
fn catalog(pg: &Arc<Pager>, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r1 = Table::create(
        pg.clone(),
        "R1",
        r1_schema(),
        Organization::BTree { key_field: 0 },
        0,
    )
    .unwrap();
    let mut r2 = Table::create(
        pg.clone(),
        "R2",
        r2_schema(),
        Organization::Hash { key_field: 0 },
        16,
    )
    .unwrap();
    let mut r3 = Table::create(pg.clone(), "R3", r3_schema(), Organization::Heap, 0).unwrap();
    for _ in 0..400 {
        let tag = [b'a' + rng.gen_range(0..3u8)];
        r1.insert(&vec![
            Value::Int(rng.gen_range(0..60)),
            Value::Int(rng.gen_range(0..12)),
            Value::Bytes(tag.to_vec()),
        ])
        .unwrap();
    }
    for _ in 0..40 {
        r2.insert(&vec![
            Value::Int(rng.gen_range(0..12)),
            Value::Int(rng.gen_range(0..5)),
        ])
        .unwrap();
    }
    for _ in 0..30 {
        r3.insert(&vec![
            Value::Int(rng.gen_range(0..5)),
            Value::Int(rng.gen_range(0..100)),
        ])
        .unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(r1);
    cat.add(r2);
    cat.add(r3);
    cat
}

fn select(relation: &str, schema: Schema, predicate: Predicate, probe_field: usize) -> ReteSpec {
    ReteSpec::Select {
        relation: relation.into(),
        schema,
        predicate,
        probe_field,
        dispatch_field: (relation == "R1").then_some(0),
    }
}

fn r1_select(predicate: Predicate) -> ReteSpec {
    select("R1", r1_schema(), predicate, 1)
}

fn join(left: ReteSpec, right: ReteSpec, lf: usize, rf: usize, probe: usize) -> ReteSpec {
    ReteSpec::Join {
        left: Box::new(left),
        right: Box::new(right),
        left_field: lf,
        right_field: rf,
        probe_field: probe,
    }
}

fn tag(t: &[u8]) -> Value {
    Value::Bytes(t.to_vec())
}

/// Every case the encoded selection distinguishes, plus joins over them.
fn specs() -> Vec<ReteSpec> {
    let bounded = Predicate::int_range(0, 10, 29);
    let half_open = Predicate::single(0, CompOp::Gt, 44i64);
    let below = Predicate::single(0, CompOp::Lt, 7i64);
    let unbounded = Predicate::single(1, CompOp::Le, 3i64);
    let mixed = Predicate::int_range(0, 5, 50)
        .and(Term::new(1, CompOp::Ne, 4i64))
        .and(Term::new(2, CompOp::Eq, tag(b"b\0\0\0")));
    let key_ne = Predicate::single(0, CompOp::Ne, 20i64).and(Term::new(1, CompOp::Ge, 6i64));
    let point = Predicate::single(0, CompOp::Eq, 33i64);
    let empty = Predicate::int_range(0, 40, 30);
    let r2_alpha = select("R2", r2_schema(), Predicate::single(1, CompOp::Ne, 2i64), 0);
    let r2_keyed = select("R2", r2_schema(), Predicate::int_range(0, 2, 8), 1);
    let r3_alpha = select(
        "R3",
        r3_schema(),
        Predicate::single(1, CompOp::Lt, 60i64),
        0,
    );
    vec![
        r1_select(bounded.clone()),
        r1_select(half_open.clone()),
        r1_select(below),
        r1_select(unbounded.clone()),
        r1_select(mixed.clone()),
        r1_select(key_ne),
        r1_select(point),
        r1_select(empty.clone()),
        r1_select(Predicate::always()),
        r2_keyed.clone(),
        r3_alpha.clone(),
        // σ(R1) ⋈ σ(R2) probing R2's memory on its probe field.
        join(r1_select(bounded.clone()), r2_alpha.clone(), 1, 0, 0),
        // ... and on another field (the scan fallback).
        join(r1_select(half_open), r2_keyed.clone(), 1, 0, 3),
        // σ(R1) ⋈ (σ(R2) ⋈ σ(R3)): a β-memory as a join input.
        join(
            r1_select(mixed),
            join(r2_alpha.clone(), r3_alpha.clone(), 1, 0, 0),
            1,
            0,
            1,
        ),
        join(r1_select(unbounded), r2_alpha, 1, 0, 4),
        join(r1_select(empty), r2_keyed, 1, 0, 0),
    ]
}

/// The replaced initialization of one memory and its inputs: decode a
/// full scan, `eval` every tuple, re-encode the survivors; join by
/// decoding the left memory and probing the right one.
fn oracle(spec: &ReteSpec, cat: &Catalog, pg: &Arc<Pager>) -> StoredRows {
    match spec {
        ReteSpec::Select {
            relation,
            schema,
            predicate,
            probe_field,
            ..
        } => {
            let mut rows: Vec<Tuple> = Vec::new();
            cat.get(relation)
                .unwrap()
                .scan(|t| {
                    if predicate.eval(&t) {
                        rows.push(t);
                    }
                })
                .unwrap();
            let mut m = StoredRows::new(pg.clone(), schema.clone(), *probe_field);
            for row in &rows {
                m.insert(row).unwrap();
            }
            m
        }
        ReteSpec::Join {
            left,
            right,
            left_field,
            right_field,
            probe_field,
        } => {
            let (l, r) = (oracle(left, cat, pg), oracle(right, cat, pg));
            let schema = l.schema().concat(r.schema());
            let mut m = StoredRows::new(pg.clone(), schema, *probe_field);
            for lt in l.scan_all().unwrap() {
                for rt in r
                    .probe_by_field(*right_field, lt[*left_field].as_int())
                    .unwrap()
                {
                    let mut c = lt.clone();
                    c.extend(rt);
                    m.insert(&c).unwrap();
                }
            }
            m
        }
    }
}

/// `spec` and every spec nested in it.
fn subspecs(spec: &ReteSpec, out: &mut Vec<ReteSpec>) {
    out.push(spec.clone());
    if let ReteSpec::Join { left, right, .. } = spec {
        subspecs(left, out);
        subspecs(right, out);
    }
}

/// A memory's rows at their rids, and its probe index: the rows under
/// every probe key present, in index order.
type Layout = (Vec<(Rid, Vec<u8>)>, Vec<Vec<Tuple>>);

fn layout(m: &StoredRows) -> Layout {
    let rows = m.rows_with_rids().unwrap();
    let mut keys: Vec<i64> = rows
        .iter()
        .map(|(_, b)| m.schema().int_field(b, m.key_field()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let probes = keys.iter().map(|&k| m.probe(k).unwrap()).collect();
    (rows, probes)
}

fn network(pg: &Arc<Pager>, specs: &[ReteSpec], cat: &Catalog) -> Rete {
    let mut rete = Rete::new(pg.clone());
    for s in specs {
        rete.add_view(s);
    }
    rete.initialize(cat).unwrap();
    rete
}

/// Every memory of `rete` (views and their inputs) has `expect`'s layout.
fn assert_matches(rete: &Rete, expect: impl Fn(&ReteSpec) -> Layout, ctx: &str) {
    let mut all = Vec::new();
    for s in specs() {
        subspecs(&s, &mut all);
    }
    for s in &all {
        let got = rete.memory(rete.lookup(s).expect("spec is in the network"));
        assert_eq!(layout(got), expect(s), "{ctx}: {s:?}");
    }
}

#[test]
fn initialize_matches_decoded_full_scan() {
    for seed in 1..=6 {
        let pg = pager();
        let cat = catalog(&pg, seed);
        let rete = network(&pg, &specs(), &cat);
        let view = rete.lookup(&specs()[11]).unwrap();
        assert!(
            !rete.memory(view).is_empty(),
            "seed {seed}: the join holds rows"
        );
        assert_matches(
            &rete,
            |s| layout(&oracle(s, &cat, &pg)),
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn rebuild_after_crash_equals_fresh_build() {
    for seed in 1..=4 {
        let pg = pager();
        let mut cat = catalog(&pg, seed);
        let mut rete = network(&pg, &specs(), &cat);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        for _ in 0..30 {
            let r1 = cat.get_mut("R1").unwrap();
            let Some(old) = r1.delete_where(rng.gen_range(0..60), |_| true).unwrap() else {
                continue;
            };
            let mut new = old.clone();
            new[0] = Value::Int(rng.gen_range(0..60));
            r1.insert(&new).unwrap();
            rete.submit("R1", Token::minus(old)).unwrap();
            rete.submit("R1", Token::plus(new)).unwrap();
        }
        // The base writes are durable; the memories' unflushed pages are
        // lost with the frames.
        pg.flush().unwrap();
        for _ in 0..5 {
            rete.submit(
                "R1",
                Token::plus(vec![Value::Int(12), Value::Int(3), tag(b"a")]),
            )
            .unwrap();
        }
        pg.drop_frames();
        rete.initialize(&cat).unwrap();
        let fresh = network(&pg, &specs(), &cat);
        let ctx = format!("seed {seed}");
        assert_matches(
            &rete,
            |s| layout(fresh.memory(fresh.lookup(s).unwrap())),
            &ctx,
        );
        assert_matches(&rete, |s| layout(&oracle(s, &cat, &pg)), &ctx);
    }
}
