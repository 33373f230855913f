//! Differentially maintained **aggregate** views — the paper's motivating
//! use case (5): database procedures supporting "aggregation and
//! generalization" \[SmS77\].
//!
//! An [`AggregateView`] materializes `SELECT group, COUNT(*), SUM(field)
//! FROM <view pipeline> GROUP BY group`. Counts and sums are
//! *self-maintainable*: an inserted view row adds to its group, a deleted
//! row subtracts, and a group whose count reaches zero disappears — no
//! base access is ever needed beyond the underlying pipeline's delta
//! evaluation. Each changed group costs one read–modify–write of its
//! stored page, mirroring how the paper prices refreshing any stored
//! object.

use std::collections::HashMap;
use std::sync::Arc;

use procdb_query::{execute, Catalog, FieldType, Schema, Tuple, Value};
use procdb_storage::{HeapFile, Pager, Result, Rid};

use crate::delta::Delta;
use crate::view::ViewDef;

/// Aggregate functions over the (optional) aggregated field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(*)` only.
    Count,
    /// `COUNT(*)` and `SUM(field)`.
    CountAndSum {
        /// Field of the pipeline's output tuple to sum.
        field: usize,
    },
}

/// One materialized group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRow {
    /// Group key value.
    pub group: i64,
    /// `COUNT(*)` of the group.
    pub count: i64,
    /// `SUM(field)` of the group (0 under [`AggFn::Count`]).
    pub sum: i64,
}

/// A differentially maintained grouped aggregate over a view pipeline.
pub struct AggregateView {
    def: ViewDef,
    group_field: usize,
    agg: AggFn,
    storage_schema: Schema,
    heap: HeapFile,
    /// group key → (rid of its stored row, current values).
    groups: HashMap<i64, (Rid, GroupRow)>,
}

impl AggregateView {
    /// Create an empty aggregate view grouping the pipeline's output on
    /// `group_field`.
    ///
    /// Both `group_field` and any summed field must be `Int` fields of the
    /// pipeline's output tuple; grouping on a byte field panics at fold
    /// time (fixed-width byte keys have no aggregate semantics here).
    pub fn new(pager: Arc<Pager>, def: ViewDef, group_field: usize, agg: AggFn) -> AggregateView {
        AggregateView {
            def,
            group_field,
            agg,
            storage_schema: Schema::new(vec![
                ("group", FieldType::Int),
                ("count", FieldType::Int),
                ("sum", FieldType::Int),
            ]),
            heap: HeapFile::create(pager),
            groups: HashMap::new(),
        }
    }

    /// The underlying view definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Pages of the stored aggregate.
    pub fn page_count(&self) -> u32 {
        self.heap.page_count()
    }

    fn encode(&self, row: &GroupRow) -> Vec<u8> {
        self.storage_schema.encode(&vec![
            Value::Int(row.group),
            Value::Int(row.count),
            Value::Int(row.sum),
        ])
    }

    fn measure(&self, tuple: &Tuple) -> (i64, i64) {
        let group = tuple[self.group_field].as_int();
        let amount = match self.agg {
            AggFn::Count => 0,
            AggFn::CountAndSum { field } => tuple[field].as_int(),
        };
        (group, amount)
    }

    fn fold(&mut self, tuple: &Tuple, sign: i64) -> Result<()> {
        let (group, amount) = self.measure(tuple);
        match self.groups.get(&group).copied() {
            Some((rid, mut row)) => {
                row.count += sign;
                row.sum += sign * amount;
                if row.count == 0 {
                    self.groups.remove(&group);
                    self.heap.delete(rid)?;
                } else {
                    let encoded = self.encode(&row);
                    self.heap.update_in_place(rid, &encoded)?;
                    self.groups.insert(group, (rid, row));
                }
            }
            None => {
                debug_assert!(sign > 0, "deleting from a non-existent group");
                let row = GroupRow {
                    group,
                    count: sign,
                    sum: sign * amount,
                };
                let rid = self.heap.insert(&self.encode(&row))?;
                self.groups.insert(group, (rid, row));
            }
        }
        Ok(())
    }

    /// Discard and recompute the aggregate from the base relations.
    pub fn recompute_full(&mut self, catalog: &Catalog) -> Result<()> {
        self.heap.clear()?;
        self.groups.clear();
        let rows = execute(&self.def.to_plan(), catalog)?;
        for row in &rows {
            self.fold(row, 1)?;
        }
        Ok(())
    }

    /// Apply one base-relation delta: run the pipeline's delta evaluation
    /// and fold the resulting view-row changes into the groups.
    pub fn apply_delta(&mut self, delta: &Delta, catalog: &Catalog) -> Result<()> {
        let pager = self.heap.pager().clone();
        let inserted = self.def.delta_rows(&delta.inserted, catalog, &pager)?;
        let deleted = self.def.delta_rows(&delta.deleted, catalog, &pager)?;
        for row in &deleted {
            self.fold(row, -1)?;
        }
        for row in &inserted {
            self.fold(row, 1)?;
        }
        Ok(())
    }

    /// Current value of one group (`None` if the group is empty).
    pub fn get(&self, group: i64) -> Option<GroupRow> {
        self.groups.get(&group).map(|(_, row)| *row)
    }

    /// Read the full aggregate (charges one page read per stored page),
    /// sorted by group key.
    pub fn read_all(&self) -> Result<Vec<GroupRow>> {
        let mut out = Vec::with_capacity(self.groups.len());
        self.heap.scan(|_, bytes| {
            let t = self.storage_schema.decode(bytes);
            out.push(GroupRow {
                group: t[0].as_int(),
                count: t[1].as_int(),
                sum: t[2].as_int(),
            });
        })?;
        out.sort_by_key(|r| r.group);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::JoinStep;
    use procdb_query::{CompOp, Organization, Predicate, Table, Term};
    use procdb_storage::{AccountingMode, PagerConfig};

    fn pager() -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 1024,
            mode: AccountingMode::Logical,
        })
    }

    /// R1(skey, dept, salary)
    fn setup(pg: &Arc<Pager>) -> Catalog {
        let schema = Schema::new(vec![
            ("skey", FieldType::Int),
            ("dept", FieldType::Int),
            ("salary", FieldType::Int),
        ]);
        let mut r1 = Table::create(
            pg.clone(),
            "R1",
            schema,
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        for i in 0..60i64 {
            r1.insert(&vec![Value::Int(i), Value::Int(i % 4), Value::Int(100 + i)])
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(r1);
        cat
    }

    fn headcount_def(lo: i64, hi: i64) -> ViewDef {
        ViewDef {
            base: "R1".into(),
            selection: Predicate::int_range(0, lo, hi),
            joins: vec![],
        }
    }

    fn modify(cat: &mut Catalog, old_key: i64, new_key: i64) -> Delta {
        let r1 = cat.get_mut("R1").unwrap();
        let old = r1.delete_where(old_key, |_| true).unwrap().unwrap();
        let mut new = old.clone();
        new[0] = Value::Int(new_key);
        r1.insert(&new).unwrap();
        Delta::from_modifications([(old, new)])
    }

    #[test]
    fn initial_groups_and_sums() {
        let pg = pager();
        let cat = setup(&pg);
        let mut agg =
            AggregateView::new(pg, headcount_def(0, 39), 1, AggFn::CountAndSum { field: 2 });
        agg.recompute_full(&cat).unwrap();
        assert_eq!(agg.group_count(), 4);
        let g0 = agg.get(0).unwrap();
        assert_eq!(g0.count, 10); // skeys 0,4,...,36
        assert_eq!(g0.sum, (0..40).step_by(4).map(|i| 100 + i).sum::<i64>());
    }

    #[test]
    fn delta_maintenance_equals_recompute() {
        let pg = pager();
        let mut cat = setup(&pg);
        let mut agg = AggregateView::new(
            pg.clone(),
            headcount_def(0, 39),
            1,
            AggFn::CountAndSum { field: 2 },
        );
        agg.recompute_full(&cat).unwrap();
        for (a, b) in [(5i64, 50i64), (50, 12), (38, 3), (0, 59)] {
            let d = modify(&mut cat, a, b);
            agg.apply_delta(&d, &cat).unwrap();
            let mut fresh = AggregateView::new(
                pg.clone(),
                headcount_def(0, 39),
                1,
                AggFn::CountAndSum { field: 2 },
            );
            fresh.recompute_full(&cat).unwrap();
            assert_eq!(
                agg.read_all().unwrap(),
                fresh.read_all().unwrap(),
                "diverged after {a}→{b}"
            );
        }
    }

    #[test]
    fn group_vanishes_at_zero_count() {
        let pg = pager();
        let mut cat = setup(&pg);
        // Window with exactly one tuple per group 0..3 (skeys 0..3).
        let mut agg = AggregateView::new(pg, headcount_def(0, 3), 1, AggFn::Count);
        agg.recompute_full(&cat).unwrap();
        assert_eq!(agg.group_count(), 4);
        let d = modify(&mut cat, 2, 50); // dept 2's only member leaves
        agg.apply_delta(&d, &cat).unwrap();
        assert_eq!(agg.group_count(), 3);
        assert!(agg.get(2).is_none());
        // And comes back.
        let d = modify(&mut cat, 50, 2);
        agg.apply_delta(&d, &cat).unwrap();
        assert_eq!(agg.get(2).unwrap().count, 1);
    }

    #[test]
    fn aggregate_over_join_pipeline() {
        let pg = pager();
        let mut cat = setup(&pg);
        // Add a DEPT(dept_id, floor) relation and count per floor.
        let dschema = Schema::new(vec![("dept_id", FieldType::Int), ("floor", FieldType::Int)]);
        let mut dept = Table::create(
            pg.clone(),
            "DEPT",
            dschema,
            Organization::Hash { key_field: 0 },
            8,
        )
        .unwrap();
        for d in 0..4i64 {
            dept.insert(&vec![Value::Int(d), Value::Int(d % 2)])
                .unwrap();
        }
        cat.add(dept);
        let def = ViewDef {
            base: "R1".into(),
            selection: Predicate::int_range(0, 0, 39),
            joins: vec![JoinStep {
                inner: "DEPT".into(),
                outer_key_field: 1,
                residual: Predicate {
                    terms: vec![Term::new(4, CompOp::Ge, 0i64)], // trivial but screened
                },
            }],
        };
        // Combined tuple: (skey, dept, salary, dept_id, floor) — group on floor.
        let mut agg = AggregateView::new(pg, def, 4, AggFn::Count);
        agg.recompute_full(&cat).unwrap();
        assert_eq!(agg.group_count(), 2);
        assert_eq!(agg.get(0).unwrap().count, 20);
        assert_eq!(agg.get(1).unwrap().count, 20);
        let d = modify(&mut cat, 4, 55); // dept 0 (floor 0) loses a member
        agg.apply_delta(&d, &cat).unwrap();
        assert_eq!(agg.get(0).unwrap().count, 19);
    }

    #[test]
    fn maintenance_touches_only_changed_group_pages() {
        let pg = pager();
        let mut cat = setup(&pg);
        let mut agg = AggregateView::new(pg.clone(), headcount_def(0, 39), 1, AggFn::Count);
        agg.recompute_full(&cat).unwrap();
        let d = modify(&mut cat, 5, 50); // one group changes
        let s0 = pg.ledger().snapshot();
        agg.apply_delta(&d, &cat).unwrap();
        let w = pg.ledger().snapshot().since(&s0);
        // One group row updated in place: 1 page RMW (+ the screens/C3
        // for the two delta tuples).
        assert_eq!(w.page_writes, 1, "{w:?}");
        assert_eq!(w.screens, 2);
    }
}
