//! Allocation guard for the in-RAM indexes over stored tuples: a Rete
//! memory and an AVM view keep rids and fingerprints, not a copy of each
//! tuple, so filling either with N tuples under distinct keys adds far
//! fewer than N live heap blocks (pages and the index's table are a few
//! blocks each).
//!
//! A counting global allocator tracks live blocks per thread, so the
//! harness's own threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use procdb::avm::{MaterializedView, ViewDef};
use procdb::query::{Catalog, FieldType, Organization, Predicate, Schema, Table, Tuple, Value};
use procdb::rete::MemoryStore;
use procdb::storage::{AccountingMode, Pager, PagerConfig};

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn bump(by: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get() + by));
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(-1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_blocks() -> isize {
    LIVE.with(Cell::get)
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
    let mut memory = MemoryStore::new(pager(), "mem", schema(), 0);
    let before = live_blocks();
    for i in 0..N {
        memory.insert(&row(i)).unwrap();
    }
    let grown = live_blocks() - before;
    assert_eq!(memory.len(), N as u64);
    assert!(
        grown < (N / 10) as isize,
        "MemoryStore: {grown} live blocks for {N} tuples"
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
    let mut view = MaterializedView::new(pg, "v", def, &cat);
    let before = live_blocks();
    view.recompute_full(&cat).unwrap();
    let grown = live_blocks() - before;
    assert_eq!(view.len(), N as u64);
    assert!(
        grown < (N / 10) as isize,
        "MaterializedView: {grown} live blocks for {N} tuples"
    );
}
