//! View definitions and materialized views maintained by algebraic
//! (non-shared) differential evaluation.
//!
//! For a view `V(R1, R2, …)` where a transaction changed only `R1` by
//! appending `a` and deleting `d` (\[BLT86\]):
//!
//! ```text
//! V(R1 ∪ a − d, R2, …) = V(R1, R2, …) ∪ V(a, R2, …) − V(d, R2, …)
//! ```
//!
//! `V(R1, …)` is the stored copy; only the small delta expressions are
//! evaluated — screen the delta tuples against the selection, pipe the
//! survivors through the view's join steps (hash probes into `R2`/`R3`),
//! and patch the stored copy.
//!
//! The stored copy is a [`StoredRows`] keyed on `R1`'s key field (a view
//! has no projection, so every output row carries it): a delete reads
//! only the page holding its victim, and a full recompute is one fill.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

use procdb_query::{
    execute, execute_encoded, Catalog, EncodedRows, FieldType, Organization, Plan, Predicate,
    Schema, StoredRows, Tuple,
};
use procdb_storage::{Pager, Result};

use crate::delta::Delta;

fn delta_applications_counter() -> &'static procdb_obs::Counter {
    static C: OnceLock<procdb_obs::Counter> = OnceLock::new();
    C.get_or_init(|| procdb_obs::global().counter("procdb_avm_delta_applications_total", &[]))
}

fn delta_tuples_counter() -> &'static procdb_obs::Counter {
    static C: OnceLock<procdb_obs::Counter> = OnceLock::new();
    C.get_or_init(|| procdb_obs::global().counter("procdb_avm_delta_tuples_total", &[]))
}

/// One join step of a linear view pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Inner hash table name.
    pub inner: String,
    /// Field of the running (combined) tuple providing the probe key.
    pub outer_key_field: usize,
    /// Residual predicate over the combined tuple.
    pub residual: Predicate,
}

/// A view definition: a selection on the (only updatable) base relation,
/// followed by zero or more hash-join steps — the paper's `P1` (no joins),
/// Model-1 `P2` (one join), and Model-2 `P2` (two joins).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// The updatable base relation (`R1`).
    pub base: String,
    /// Selection predicate `C_f(R1)`.
    pub selection: Predicate,
    /// Join pipeline.
    pub joins: Vec<JoinStep>,
}

impl ViewDef {
    /// The full recompute plan for this view.
    pub fn to_plan(&self) -> Plan {
        self.prefix_plan(self.joins.len())
    }

    /// The plan computing the pipeline prefix: the base selection plus the
    /// first `upto` join steps.
    fn prefix_plan(&self, upto: usize) -> Plan {
        let mut plan = Plan::select(&self.base, self.selection.clone());
        for j in &self.joins[..upto] {
            plan = plan.hash_join(&j.inner, j.outer_key_field, j.residual.clone());
        }
        plan
    }

    /// Output schema of the view.
    pub fn output_schema(&self, catalog: &Catalog) -> Schema {
        self.to_plan().output_schema(catalog)
    }

    /// Run the delta pipeline: screen `r1_tuples` against the selection
    /// (charging `C1` per screen and `C3` per delta tuple), then extend the
    /// survivors through every join step. Returns the view-tuple delta.
    pub fn delta_rows(
        &self,
        r1_tuples: &[Tuple],
        catalog: &Catalog,
        pager: &Arc<Pager>,
    ) -> Result<Vec<Tuple>> {
        let ledger = pager.ledger();
        let charging = pager.is_charging();
        let mut rows: Vec<Tuple> = Vec::new();
        for t in r1_tuples {
            if charging {
                // A_net/D_net bookkeeping (C3) + predicate screen (C1).
                ledger.add_delta_tuples(1);
                ledger.add_screens(1);
            }
            if self.selection.eval(t) {
                rows.push(t.clone());
            }
        }
        extend(rows, &self.joins, catalog, pager)
    }
}

/// Extend `rows` through `steps`: probe each step's inner hash table on
/// the running tuple's key field and keep each combination passing the
/// step's residual, charging `C1` per probed inner tuple.
fn extend(
    mut rows: Vec<Tuple>,
    steps: &[JoinStep],
    catalog: &Catalog,
    pager: &Pager,
) -> Result<Vec<Tuple>> {
    let charging = pager.is_charging();
    for step in steps {
        let inner = catalog
            .get(&step.inner)
            .unwrap_or_else(|| panic!("unknown table {}", step.inner));
        let mut next = Vec::new();
        for row in &rows {
            inner.probe(row[step.outer_key_field].as_int(), |inner_row| {
                if charging {
                    pager.ledger().add_screens(1);
                }
                let mut combined = row.clone();
                combined.extend(inner_row);
                if step.residual.eval(&combined) {
                    next.push(combined);
                }
            })?;
        }
        rows = next;
    }
    Ok(rows)
}

/// Statistics from one maintenance step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Base delta tuples processed.
    pub base_tuples: usize,
    /// View tuples inserted into the stored copy.
    pub view_inserted: usize,
    /// View tuples deleted from the stored copy.
    pub view_deleted: usize,
}

/// A stored view kept current by AVM. `S` makes the row fingerprints;
/// the default keys them at random per view, so tuples cannot be crafted
/// to collide.
pub struct MaterializedView<S = RandomState> {
    def: ViewDef,
    rows: StoredRows<S>,
}

impl MaterializedView {
    /// Create an empty materialized view.
    pub fn new(pager: Arc<Pager>, def: ViewDef, catalog: &Catalog) -> MaterializedView {
        MaterializedView::with_hasher(pager, def, catalog, RandomState::new())
    }
}

impl<S: BuildHasher> MaterializedView<S> {
    /// [`MaterializedView::new`] fingerprinting tuples with `fingerprint`.
    pub fn with_hasher(
        pager: Arc<Pager>,
        def: ViewDef,
        catalog: &Catalog,
        fingerprint: S,
    ) -> MaterializedView<S> {
        let schema = def.output_schema(catalog);
        // The base relation's key, or its first integer field for a heap.
        let key_field = match catalog.get(&def.base).map(|t| t.organization()) {
            Some(Organization::BTree { key_field } | Organization::Hash { key_field }) => key_field,
            _ => schema
                .fields()
                .iter()
                .position(|f| f.ty == FieldType::Int)
                .expect("a view's base relation has an integer field"),
        };
        MaterializedView {
            def,
            rows: StoredRows::with_hasher(pager, schema, key_field, fingerprint),
        }
    }

    /// The view definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The view's output schema.
    pub fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    /// Number of tuples currently materialized.
    pub fn len(&self) -> u64 {
        self.rows.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pages of the stored copy.
    pub fn page_count(&self) -> u32 {
        self.rows.page_count()
    }

    /// Drop the stored copy's file, freeing its pages.
    pub fn destroy(self) -> Result<()> {
        self.rows.destroy()
    }

    /// Recompute the stored copy from the base relations and fill it in
    /// one pass (view creation and every rebuild; one read-modify-write
    /// per page, [`StoredRows::fill`]).
    pub fn recompute_full(&mut self, catalog: &Catalog) -> Result<()> {
        let rows = execute_encoded(&self.def.to_plan(), catalog)?;
        self.rows.fill(&rows)
    }

    /// Patch the stored copy: deletes first, since an in-place key
    /// modification may re-insert an identical tuple, and
    /// delete-then-insert keeps the multiset exact.
    fn patch(
        &mut self,
        to_delete: &[Tuple],
        to_insert: &[Tuple],
        stats: &mut MaintStats,
    ) -> Result<()> {
        for row in to_delete {
            if self.rows.remove(row)? {
                stats.view_deleted += 1;
            }
        }
        for row in to_insert {
            self.rows.insert(row)?;
            stats.view_inserted += 1;
        }
        Ok(())
    }

    /// Apply one transaction's (pre-filtered) base-relation delta: evaluate
    /// `V(a, …)` and `V(d, …)` and patch the stored copy.
    pub fn apply_delta(&mut self, delta: &Delta, catalog: &Catalog) -> Result<MaintStats> {
        delta_applications_counter().inc();
        delta_tuples_counter().add(delta.len() as u64);
        let pager = self.rows.pager().clone();
        let to_insert = self.def.delta_rows(&delta.inserted, catalog, &pager)?;
        let to_delete = self.def.delta_rows(&delta.deleted, catalog, &pager)?;
        let mut stats = MaintStats {
            base_tuples: delta.len(),
            ..MaintStats::default()
        };
        self.patch(&to_delete, &to_insert, &mut stats)?;
        Ok(stats)
    }

    /// Apply a delta to the **inner relation** of join step `step_idx`
    /// (e.g. an update to `R2` or `R3`). The paper's models never update
    /// the inner relations — §8 flags relative update frequencies as
    /// unanalyzed future work — but a view maintenance engine must handle
    /// it; this is the non-shared counterpart of the Rete network's
    /// right-side activation.
    ///
    /// Differential identity, for `V = P ⋈ R` with prefix `P` unchanged:
    /// `V(P, R ∪ a − d) = V(P, R) ∪ (P ⋈ a) − (P ⋈ d)`, each term then
    /// extended through the remaining join steps.
    pub fn apply_inner_delta(
        &mut self,
        step_idx: usize,
        delta: &Delta,
        catalog: &Catalog,
    ) -> Result<MaintStats> {
        assert!(step_idx < self.def.joins.len(), "no such join step");
        delta_applications_counter().inc();
        delta_tuples_counter().add(delta.len() as u64);
        let pager = self.rows.pager().clone();
        let ledger = pager.ledger();
        let charging = pager.is_charging();
        // The prefix is re-evaluated: the static plan for inner deltas.
        let prefix_rows = execute(&self.def.prefix_plan(step_idx), catalog)?;
        let step = &self.def.joins[step_idx];
        let inner_key_field = match catalog
            .get(&step.inner)
            .unwrap_or_else(|| panic!("unknown table {}", step.inner))
            .organization()
        {
            Organization::Hash { key_field } => key_field,
            _ => 0,
        };
        let join = |side: &[Tuple]| -> Result<Vec<Tuple>> {
            // Join prefix rows with the delta tuples of this step...
            let mut rows: Vec<Tuple> = Vec::new();
            for t in side {
                if charging {
                    ledger.add_delta_tuples(1);
                }
                let key = t[inner_key_field].as_int();
                for p in &prefix_rows {
                    if charging {
                        ledger.add_screens(1);
                    }
                    if p[step.outer_key_field].as_int() != key {
                        continue;
                    }
                    let mut combined = p.clone();
                    combined.extend(t.iter().cloned());
                    if step.residual.eval(&combined) {
                        rows.push(combined);
                    }
                }
            }
            // ...then extend through the remaining steps as usual.
            extend(rows, &self.def.joins[step_idx + 1..], catalog, &pager)
        };
        let to_insert = join(&delta.inserted)?;
        let to_delete = join(&delta.deleted)?;
        let mut stats = MaintStats {
            base_tuples: delta.len(),
            ..MaintStats::default()
        };
        self.patch(&to_delete, &to_insert, &mut stats)?;
        Ok(stats)
    }

    /// Indexes of the join steps whose inner relation is `table`.
    pub fn steps_on(&self, table: &str) -> Vec<usize> {
        self.def
            .joins
            .iter()
            .enumerate()
            .filter(|(_, j)| j.inner == table)
            .map(|(i, _)| i)
            .collect()
    }

    /// Read the full stored value as stored, without decoding it (the
    /// per-access `C_read` cost: one page read per page of the stored
    /// copy).
    pub fn read_encoded(&self) -> Result<EncodedRows> {
        self.rows.scan_encoded()
    }

    /// [`MaterializedView::read_encoded`], decoded.
    pub fn read_all(&self) -> Result<Vec<Tuple>> {
        self.rows.scan_all()
    }

    /// Sorted encoded contents — multiset equality checks in tests.
    pub fn contents_normalized(&self) -> Result<Vec<Vec<u8>>> {
        self.rows.contents_normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_query::{CompOp, FieldType, Organization, Table, Term, Value};
    use procdb_storage::{AccountingMode, PagerConfig};

    fn pager() -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 512,
            mode: AccountingMode::Logical,
        })
    }

    /// R1(skey, a); R2(b, tag)
    fn setup(pager: &Arc<Pager>) -> Catalog {
        let r1s = Schema::new(vec![("skey", FieldType::Int), ("a", FieldType::Int)]);
        let r2s = Schema::new(vec![("b", FieldType::Int), ("tag", FieldType::Int)]);
        let mut r1 = Table::create(
            pager.clone(),
            "R1",
            r1s,
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        let mut r2 = Table::create(
            pager.clone(),
            "R2",
            r2s,
            Organization::Hash { key_field: 0 },
            32,
        )
        .unwrap();
        for i in 0..50i64 {
            r1.insert(&vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        for j in 0..5i64 {
            r2.insert(&vec![Value::Int(j), Value::Int(j % 2)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(r1);
        cat.add(r2);
        cat
    }

    fn p1_def() -> ViewDef {
        ViewDef {
            base: "R1".into(),
            selection: Predicate::int_range(0, 10, 19),
            joins: vec![],
        }
    }

    fn p2_def() -> ViewDef {
        ViewDef {
            base: "R1".into(),
            selection: Predicate::int_range(0, 10, 19),
            joins: vec![JoinStep {
                inner: "R2".into(),
                outer_key_field: 1,
                residual: Predicate {
                    terms: vec![Term::new(3, CompOp::Eq, 0i64)], // tag = 0
                },
            }],
        }
    }

    fn modify(cat: &mut Catalog, old_key: i64, new_key: i64) -> Delta {
        let r1 = cat.get_mut("R1").unwrap();
        let old = r1
            .delete_where(old_key, |_| true)
            .unwrap()
            .expect("tuple exists");
        let mut new = old.clone();
        new[0] = Value::Int(new_key);
        r1.insert(&new).unwrap();
        Delta::from_modifications([(old, new)])
    }

    #[test]
    fn selection_view_initial_compute() {
        let p = pager();
        let cat = setup(&p);
        let mut v = MaterializedView::new(p, p1_def(), &cat);
        v.recompute_full(&cat).unwrap();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn selection_view_tracks_modifications() {
        let p = pager();
        let mut cat = setup(&p);
        let mut v = MaterializedView::new(p, p1_def(), &cat);
        v.recompute_full(&cat).unwrap();

        // Move a tuple out of the view's range.
        let d = modify(&mut cat, 15, 99);
        let stats = v.apply_delta(&d, &cat).unwrap();
        assert_eq!(stats.view_deleted, 1);
        assert_eq!(stats.view_inserted, 0);
        assert_eq!(v.len(), 9);

        // Move one in.
        let d = modify(&mut cat, 30, 12);
        let stats = v.apply_delta(&d, &cat).unwrap();
        assert_eq!(stats.view_inserted, 1);
        assert_eq!(v.len(), 10);

        // Irrelevant modification.
        let d = modify(&mut cat, 40, 41);
        let stats = v.apply_delta(&d, &cat).unwrap();
        assert_eq!((stats.view_inserted, stats.view_deleted), (0, 0));
    }

    #[test]
    fn delta_maintenance_equals_recompute() {
        let p = pager();
        let mut cat = setup(&p);
        let mut v = MaterializedView::new(p.clone(), p2_def(), &cat);
        v.recompute_full(&cat).unwrap();
        for (old_k, new_k) in [(15, 3), (3, 16), (12, 13), (19, 45), (45, 18)] {
            let d = modify(&mut cat, old_k, new_k);
            v.apply_delta(&d, &cat).unwrap();
            let mut fresh = MaterializedView::new(p.clone(), p2_def(), &cat);
            fresh.recompute_full(&cat).unwrap();
            assert_eq!(
                v.contents_normalized().unwrap(),
                fresh.contents_normalized().unwrap(),
                "diverged after moving {old_k}→{new_k}"
            );
        }
    }

    #[test]
    fn join_view_respects_residual() {
        let p = pager();
        let cat = setup(&p);
        let mut v = MaterializedView::new(p, p2_def(), &cat);
        v.recompute_full(&cat).unwrap();
        // skey 10..=19, join a=b, keep tag=0 (b even): a ∈ {0,2,4} → 6 rows.
        assert_eq!(v.len(), 6);
        for row in v.read_all().unwrap() {
            assert_eq!(row[1], row[2], "join key");
            assert_eq!(row[3].as_int(), 0, "residual");
        }
    }

    #[test]
    fn maintenance_charges_screens_and_deltas() {
        let p = pager();
        let mut cat = setup(&p);
        let mut v = MaterializedView::new(p.clone(), p1_def(), &cat);
        v.recompute_full(&cat).unwrap();
        let d = modify(&mut cat, 15, 99);
        let before = p.ledger().snapshot();
        v.apply_delta(&d, &cat).unwrap();
        let got = p.ledger().snapshot().since(&before);
        assert_eq!(got.screens, 2, "old + new value screened");
        assert_eq!(got.delta_tuples, 2, "C3 bookkeeping for both values");
        assert!(got.page_writes >= 1, "view page refreshed");
    }

    #[test]
    fn inner_delta_tracks_r2_changes() {
        let p = pager();
        let mut cat = setup(&p);
        let mut v = MaterializedView::new(p.clone(), p2_def(), &cat);
        v.recompute_full(&cat).unwrap();
        assert_eq!(v.steps_on("R2"), vec![0]);
        assert!(v.steps_on("R1").is_empty());

        // Move R2 tuple b=0 (tag 0) to b=9: rows joining a=0 disappear.
        let old = {
            let r2 = cat.get_mut("R2").unwrap();
            let old = r2.delete_where(0, |_| true).unwrap().unwrap();
            let mut new = old.clone();
            new[0] = Value::Int(9);
            r2.insert(&new).unwrap();
            Delta::from_modifications([(old, new)])
        };
        v.apply_inner_delta(0, &old, &cat).unwrap();
        let mut fresh = MaterializedView::new(p.clone(), p2_def(), &cat);
        fresh.recompute_full(&cat).unwrap();
        assert_eq!(
            v.contents_normalized().unwrap(),
            fresh.contents_normalized().unwrap()
        );

        // And move it back.
        let back = {
            let r2 = cat.get_mut("R2").unwrap();
            let old = r2.delete_where(9, |_| true).unwrap().unwrap();
            let mut new = old.clone();
            new[0] = Value::Int(0);
            r2.insert(&new).unwrap();
            Delta::from_modifications([(old, new)])
        };
        v.apply_inner_delta(0, &back, &cat).unwrap();
        let mut fresh2 = MaterializedView::new(p.clone(), p2_def(), &cat);
        fresh2.recompute_full(&cat).unwrap();
        assert_eq!(
            v.contents_normalized().unwrap(),
            fresh2.contents_normalized().unwrap()
        );
    }

    #[test]
    fn failed_delete_write_leaves_tuple_removable() {
        let p = pager();
        let cat = setup(&p);
        let mut v = MaterializedView::new(p.clone(), p1_def(), &cat);
        v.recompute_full(&cat).unwrap();
        let victim = vec![Value::Int(15), Value::Int(0)];
        let d = Delta {
            inserted: vec![],
            deleted: vec![victim.clone()],
        };
        // Evict the page so the delete's write must fault it in, then fail
        // that transfer.
        p.clear_buffer().unwrap();
        p.install_faults(procdb_storage::FaultPlan::new(1).fail_window(1, 2));
        assert!(v.apply_delta(&d, &cat).is_err());
        p.clear_faults();
        assert_eq!(v.len(), 10, "tuple survives");
        assert_eq!(v.apply_delta(&d, &cat).unwrap().view_deleted, 1);
        assert_eq!(v.len(), 9);
        assert!(!v.read_all().unwrap().contains(&victim));
    }

    #[test]
    fn duplicate_view_tuples_maintained_as_multiset() {
        let p = pager();
        let mut cat = setup(&p);
        // Two R1 tuples with the same payload → duplicate view rows.
        {
            let r1 = cat.get_mut("R1").unwrap();
            r1.insert(&vec![Value::Int(12), Value::Int(9)]).unwrap();
            r1.insert(&vec![Value::Int(12), Value::Int(9)]).unwrap();
        }
        let mut v = MaterializedView::new(p, p1_def(), &cat);
        v.recompute_full(&cat).unwrap();
        assert_eq!(v.len(), 12);
        // Delete one of the duplicates.
        let d = modify(&mut cat, 12, 80); // removes *a* tuple with key 12
        v.apply_delta(&d, &cat).unwrap();
        assert_eq!(v.len(), 11);
    }
}
