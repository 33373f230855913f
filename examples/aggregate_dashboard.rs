//! Aggregation through database procedures — the paper's motivating use
//! case (5): a continuously maintained per-department headcount and
//! payroll dashboard.
//!
//! The dashboard is an [`AggregateView`] over an employee relation.
//! Self-maintainable aggregates (COUNT/SUM) make every refresh a
//! single-page patch; reading the dashboard is one page, regardless of
//! how many employees exist.
//!
//! ```text
//! cargo run --release --example aggregate_dashboard
//! ```

use procdb::avm::{AggFn, AggregateView, Delta, ViewDef};
use procdb::query::{Catalog, FieldType, Organization, Predicate, Schema, Table, Value};
use procdb::storage::{CostConstants, Pager};

fn main() {
    let pager = Pager::new_default();
    pager.set_charging(false);
    // EMP(emp_id, dept, salary)
    let schema = Schema::new(vec![
        ("emp_id", FieldType::Int),
        ("dept", FieldType::Int),
        ("salary", FieldType::Int),
    ]);
    let mut emp = Table::create(
        pager.clone(),
        "EMP",
        schema,
        Organization::BTree { key_field: 0 },
        0,
    )
    .unwrap();
    for i in 0..5_000i64 {
        emp.insert(&vec![
            Value::Int(i),
            Value::Int(i % 8),
            Value::Int(40_000 + (i * 97) % 60_000),
        ])
        .unwrap();
    }
    pager.ledger().reset();
    pager.set_charging(true);
    let mut catalog = Catalog::new();
    catalog.add(emp);

    // The stored procedure: per-department COUNT(*) and SUM(salary).
    let def = ViewDef {
        base: "EMP".into(),
        selection: Predicate::always(),
        joins: vec![],
    };
    let mut dash = AggregateView::new(pager.clone(), def, 1, AggFn::CountAndSum { field: 2 });
    pager.set_charging(false);
    dash.recompute_full(&catalog).unwrap();
    pager.set_charging(true);
    pager.ledger().reset();

    let constants = CostConstants::default();

    // Reading the dashboard: one page, not a 5000-tuple aggregation.
    let s0 = pager.ledger().snapshot();
    let rows = dash.read_all().unwrap();
    let read_ms = pager.ledger().snapshot().since(&s0).priced(&constants);
    println!(
        "dashboard ({} departments, read cost {read_ms:.0} ms):",
        rows.len()
    );
    println!(
        "{:>6} {:>10} {:>14} {:>12}",
        "dept", "headcount", "payroll", "avg salary"
    );
    for g in &rows {
        println!(
            "{:>6} {:>10} {:>14} {:>12.0}",
            g.group,
            g.count,
            g.sum,
            g.sum as f64 / g.count as f64
        );
    }

    // An employee transfers from dept 3 to dept 5: two single-page patches.
    let moved = {
        let emp = catalog.get_mut("EMP").unwrap();
        let old = emp.delete_where(123, |_| true).unwrap().unwrap();
        let mut new = old.clone();
        new[1] = Value::Int(5);
        emp.insert(&new).unwrap();
        Delta::from_modifications([(old, new)])
    };
    let s1 = pager.ledger().snapshot();
    dash.apply_delta(&moved, &catalog).unwrap();
    let maint = pager.ledger().snapshot().since(&s1);
    println!(
        "\nemployee #123 transferred dept 3 → 5: maintenance cost {:.0} ms \
         ({} page writes, {} screens)",
        maint.priced(&constants),
        maint.page_writes,
        maint.screens
    );
    let d3 = dash.get(3).unwrap();
    let d5 = dash.get(5).unwrap();
    println!(
        "dept 3 now {} heads; dept 5 now {} heads",
        d3.count, d5.count
    );
    assert_eq!(d3.count + d5.count, 1250);
}
