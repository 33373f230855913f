//! Allocation guards.
//!
//! * The in-RAM indexes over stored tuples: a Rete memory and an AVM view
//!   keep rids and fingerprints, not a copy of each tuple, so filling
//!   either with N tuples under distinct keys adds far fewer than N live
//!   heap blocks (pages and the index's table are a few blocks each).
//! * The access path: an access carries its rows as one encoded batch to
//!   the renderer, which decodes only the rows it prints, so reading and
//!   rendering 4,000 rows costs about as many allocation calls as 100.
//!
//! A counting global allocator tracks live blocks and allocation calls
//! per thread, so the harness's own threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use procdb::avm::{MaterializedView, ViewDef};
use procdb::core::StrategyKind;
use procdb::query::{
    Catalog, FieldType, Organization, Predicate, Schema, StoredRows, Table, Tuple, Value,
};
use procdb::storage::{AccountingMode, Pager, PagerConfig};
use procdb_server::Session;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn bump(by: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get() + by));
}

fn count_call() {
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1);
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1);
        count_call();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(-1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_blocks() -> isize {
    LIVE.with(Cell::get)
}

fn alloc_calls() -> usize {
    CALLS.with(Cell::get)
}

const N: i64 = 10_000;

fn pager() -> Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: 4000,
        buffer_capacity: 64,
        mode: AccountingMode::Logical,
    })
}

fn schema() -> Schema {
    Schema::new(vec![("k", FieldType::Int), ("v", FieldType::Int)])
}

fn row(i: i64) -> Tuple {
    vec![Value::Int(i), Value::Int(i * 7)]
}

#[test]
fn indexes_add_far_fewer_blocks_than_tuples() {
    // Rete memory: N tuples, N distinct probe keys.
    let mut memory = StoredRows::new(pager(), schema(), 0);
    let before = live_blocks();
    for i in 0..N {
        memory.insert(&row(i)).unwrap();
    }
    let grown = live_blocks() - before;
    assert_eq!(memory.len(), N as u64);
    assert!(
        grown < (N / 10) as isize,
        "StoredRows: {grown} live blocks for {N} tuples"
    );

    // AVM view: a selection keeping all N distinct base rows.
    let pg = pager();
    let mut r1 = Table::create(
        pg.clone(),
        "R1",
        schema(),
        Organization::BTree { key_field: 0 },
        0,
    )
    .unwrap();
    for i in 0..N {
        r1.insert(&row(i)).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(r1);
    let def = ViewDef {
        base: "R1".into(),
        selection: Predicate::always(),
        joins: vec![],
    };
    let mut view = MaterializedView::new(pg, def, &cat);
    let before = live_blocks();
    view.recompute_full(&cat).unwrap();
    let grown = live_blocks() - before;
    assert_eq!(view.len(), N as u64);
    assert!(
        grown < (N / 10) as isize,
        "MaterializedView: {grown} live blocks for {N} tuples"
    );
}

/// A one-shard session (its shard job runs inline, on this thread) over
/// `EMP(eid, grp, name bytes 8)` with views `BIG` (4,000 rows) and
/// `SMALL` (100 rows), engine built.
fn access_session(kind: StrategyKind) -> Session {
    let mut s = Session::new();
    s.create_table(
        "EMP",
        Schema::new(vec![
            ("eid", FieldType::Int),
            ("grp", FieldType::Int),
            ("name", FieldType::Bytes(8)),
        ]),
        Organization::BTree { key_field: 0 },
    )
    .unwrap();
    for i in 0..4_100 {
        s.insert(
            "EMP",
            vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Bytes(b"emp".to_vec()),
            ],
        )
        .unwrap();
    }
    s.define_view("define view BIG (EMP.all) where EMP.eid >= 0 and EMP.eid <= 3999")
        .unwrap();
    s.define_view("define view SMALL (EMP.all) where EMP.eid >= 0 and EMP.eid <= 99")
        .unwrap();
    s.set_strategy(kind).unwrap();
    s.prepare().unwrap();
    s
}

/// Allocation calls one access plus its rendered response makes, and
/// the rows it read.
fn access_calls(s: &Session, view: &str) -> (usize, usize) {
    let before = alloc_calls();
    let (rows, ms) = s.access_shared(view).unwrap().expect("engine is live");
    let body = s.render_access(&rows, ms);
    let calls = alloc_calls() - before;
    assert!(body.ends_with("more"), "{body}");
    (calls, rows.len())
}

#[test]
fn an_access_allocates_per_batch_not_per_row() {
    for kind in StrategyKind::ALL {
        let s = access_session(kind);
        // First reads warm what is created once (metric handles, frames).
        access_calls(&s, "BIG");
        access_calls(&s, "SMALL");
        let (big, big_rows) = access_calls(&s, "BIG");
        let (small, small_rows) = access_calls(&s, "SMALL");
        assert_eq!((big_rows, small_rows), (4_000, 100), "{kind}");
        assert!(
            big <= small + 200,
            "{kind}: 4,000 rows took {big} allocation calls, 100 rows {small}"
        );
    }
}
