//! Precompiled query plans and the cost-accounted executor.
//!
//! The paper's procedures store an *optimized execution plan compiled in
//! advance* ("there is no compilation overhead at run time"). [`Plan`] is
//! that stored artifact: a tree of the two operators the paper's
//! procedures need —
//!
//! * **B-tree selection** on `R1` (descend `H1` pages, read qualifying
//!   leaves, screen each tuple at `C1`);
//! * **hash-join probe** into `R2`/`R3` (one bucket-chain read per outer
//!   tuple, screen each joined tuple at `C1`).
//!
//! Every predicate screen is charged to the pager's [`CostLedger`]
//! (`C1` each); page I/O is charged by the storage layer underneath.
//!
//! Rows stay encoded from the page to the last operator: a selection
//! screens each leaf row in place — testing only the terms its key range
//! leaves open ([`Predicate::residual`]), though every scanned row still
//! counts one screen — and appends survivors to one buffer
//! ([`EncodedRows`]), a join lays `outer ++ inner` down at the end of its
//! output buffer and keeps it only if the residual holds, and a projection
//! copies byte ranges. Screens are counted per operator and charged to
//! the ledger once when the operator ends, failed or not. The selection
//! is also public on its own, for any table organization
//! ([`select_encoded`]): Rete builds its α-memories with it. [`execute`]
//! decodes the rows that qualified, once; [`execute_encoded`] hands them
//! over as bytes. A procedure's answer travels on as a [`RowBatch`] —
//! those bytes plus the schema that decodes them — so a caller decodes
//! only the rows it shows.
//!
//! [`CostLedger`]: procdb_storage::CostLedger

use std::borrow::Cow;
use std::sync::Arc;

use crate::predicate::Predicate;
use crate::table::{Catalog, Organization, Table};
use crate::value::{Schema, Tuple};
use procdb_storage::{HeapFile, Result};

/// A precompiled, statically optimized execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Range-scan a clustered B-tree table; the key range is derived from
    /// `predicate`'s bounds on the clustering key, and the terms that
    /// range does not capture are screened per tuple.
    BTreeSelect {
        /// Table to scan (must be B-tree organized).
        table: String,
        /// Selection predicate (`C_f(R1)`).
        predicate: Predicate,
    },
    /// For each outer tuple, probe a hash table on the join key and emit
    /// `outer ++ inner` tuples that pass `residual`.
    HashJoin {
        /// Outer (probing) input plan.
        outer: Box<Plan>,
        /// Inner hash table (must be hash organized on the join key).
        inner: String,
        /// Field of the *outer output tuple* providing the probe key.
        outer_key_field: usize,
        /// Residual predicate over the combined tuple (`C_f2(R2)` etc.).
        residual: Predicate,
    },
    /// Keep only the listed fields of the input, in the listed order
    /// (`retrieve (R1.name, R2.floor)`-style target lists).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Field indexes of the input's output tuple to keep.
        fields: Vec<usize>,
    },
}

impl Plan {
    /// Convenience constructor for a selection.
    pub fn select(table: &str, predicate: Predicate) -> Plan {
        Plan::BTreeSelect {
            table: table.to_string(),
            predicate,
        }
    }

    /// Convenience constructor for a probe join on top of `self`.
    pub fn hash_join(self, inner: &str, outer_key_field: usize, residual: Predicate) -> Plan {
        Plan::HashJoin {
            outer: Box::new(self),
            inner: inner.to_string(),
            outer_key_field,
            residual,
        }
    }

    /// Convenience constructor for a projection on top of `self`.
    pub fn project(self, fields: Vec<usize>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            fields,
        }
    }

    /// Output schema of the plan.
    pub fn output_schema(&self, catalog: &Catalog) -> Schema {
        match self {
            Plan::BTreeSelect { table: name, .. } => table(catalog, name).schema().clone(),
            Plan::HashJoin { outer, inner, .. } => outer
                .output_schema(catalog)
                .concat(table(catalog, inner).schema()),
            Plan::Project { input, fields } => input.output_schema(catalog).project(fields),
        }
    }

    /// One-line-per-operator plan rendering (EXPLAIN-style).
    pub fn explain(&self) -> String {
        fn go(plan: &Plan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match plan {
                Plan::BTreeSelect { table, predicate } => {
                    out.push_str(&format!(
                        "{pad}BTreeSelect {table} ({} terms)\n",
                        predicate.terms.len()
                    ));
                }
                Plan::HashJoin {
                    outer,
                    inner,
                    outer_key_field,
                    residual,
                } => {
                    out.push_str(&format!(
                        "{pad}HashJoin probe={inner} key=outer[{outer_key_field}] ({} residual terms)\n",
                        residual.terms.len()
                    ));
                    go(outer, depth + 1, out);
                }
                Plan::Project { input, fields } => {
                    out.push_str(&format!("{pad}Project {fields:?}\n"));
                    go(input, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

/// A plan's result rows, encoded at the output schema's fixed width and
/// stored back to back in one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRows {
    width: usize,
    len: usize,
    bytes: Vec<u8>,
}

impl EncodedRows {
    /// An empty buffer for rows `width` bytes wide.
    pub fn new(width: usize) -> EncodedRows {
        EncodedRows::with_capacity(width, 0)
    }

    /// An empty buffer with room for `rows` rows `width` bytes wide.
    pub(crate) fn with_capacity(width: usize, rows: usize) -> EncodedRows {
        EncodedRows {
            width,
            len: 0,
            bytes: Vec::with_capacity(width * rows),
        }
    }

    /// Every live record of `heap`, in scan order (one page read charged
    /// per page). Each record must be one `width`-byte row.
    pub fn read_heap(heap: &HeapFile, width: usize) -> Result<EncodedRows> {
        let mut out = EncodedRows::with_capacity(width, heap.len() as usize);
        heap.scan(|_, row| out.push(row))?;
        Ok(out)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.width..(i + 1) * self.width]
    }

    /// The encoded rows, in result order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Decode every row with `schema` (the plan's output schema).
    pub fn decode(&self, schema: &Schema) -> Vec<Tuple> {
        self.iter().map(|row| schema.decode(row)).collect()
    }

    /// Append one row (exactly `width` bytes).
    pub fn push(&mut self, row: &[u8]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.bytes.extend_from_slice(row);
        self.len += 1;
    }

    /// Encode `tuple` with `schema` straight onto the end of the buffer
    /// (`Bytes` fields zero-padded). Panics on a schema mismatch, like
    /// [`Schema::encode`].
    pub fn push_tuple(&mut self, schema: &Schema, tuple: &Tuple) {
        assert_eq!(schema.tuple_width(), self.width, "row width mismatch");
        schema.encode_into(tuple, &mut self.bytes);
        self.len += 1;
    }

    /// The rows of `parts`, concatenated and sorted by their bytes.
    /// Allocates the output and one index per row, never per-row
    /// buffers.
    fn concat_sorted(parts: &[EncodedRows]) -> EncodedRows {
        let width = parts.first().map_or(0, |p| p.width);
        assert!(parts.iter().all(|p| p.width == width), "row width mismatch");
        let mut order: Vec<(usize, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(p, part)| (0..part.len).map(move |i| (p, i)))
            .collect();
        order.sort_unstable_by(|&(pa, a), &(pb, b)| parts[pa].get(a).cmp(parts[pb].get(b)));
        let mut out = EncodedRows::with_capacity(width, order.len());
        for (p, i) in order {
            out.push(parts[p].get(i));
        }
        out
    }
}

/// A procedure's answer as one fixed-width batch: the encoded rows and
/// the schema that decodes them. Rows stay bytes until a caller asks for
/// [`Value`](crate::Value)s, and then only the rows it asks for are
/// decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBatch {
    schema: Arc<Schema>,
    rows: EncodedRows,
}

impl RowBatch {
    /// Pair `rows` with the schema they were encoded by.
    pub fn new(schema: Arc<Schema>, rows: EncodedRows) -> RowBatch {
        assert_eq!(
            schema.tuple_width(),
            rows.width,
            "batch width does not match its schema"
        );
        RowBatch { schema, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i`, decoded.
    pub fn tuple(&self, i: usize) -> Tuple {
        self.schema.decode(self.rows.get(i))
    }

    /// Every row, decoded, in batch order.
    pub fn decode(&self) -> Vec<Tuple> {
        self.rows.decode(&self.schema)
    }

    /// The encoded rows, without their schema.
    pub fn into_rows(self) -> EncodedRows {
        self.rows
    }

    /// The rows' bytes, sorted: equal for two batches exactly when they
    /// hold the same multiset of rows.
    pub fn normalized(&self) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = self.rows.iter().map(<[u8]>::to_vec).collect();
        out.sort_unstable();
        out
    }

    /// Merge partial answers over disjoint inputs: a lone part is
    /// returned as is, in the order it came; several are concatenated
    /// and sorted by their bytes, so the order does not depend on which
    /// part arrived first. Every part must share one schema.
    pub fn merge(mut parts: Vec<RowBatch>) -> RowBatch {
        assert!(!parts.is_empty(), "merge needs at least one part");
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let schema = Arc::clone(&parts[0].schema);
        debug_assert!(
            parts.iter().all(|p| p.schema == schema),
            "merged parts must share one schema"
        );
        let rows: Vec<EncodedRows> = parts.into_iter().map(|p| p.rows).collect();
        RowBatch::new(schema, EncodedRows::concat_sorted(&rows))
    }
}

/// Execute a plan against the catalog, returning the result tuples.
/// Page I/O and predicate screens are charged to the tables' ledger.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<Vec<Tuple>> {
    let (schema, rows) = run(plan, catalog)?;
    Ok(rows.decode(&schema))
}

/// [`execute`] without the final decode: the result rows as encoded by
/// the plan's output schema, charged identically.
pub fn execute_encoded(plan: &Plan, catalog: &Catalog) -> Result<EncodedRows> {
    Ok(run(plan, catalog)?.1)
}

fn table<'c>(catalog: &'c Catalog, name: &str) -> &'c Table {
    catalog
        .get(name)
        .unwrap_or_else(|| panic!("unknown table {name}"))
}

/// Charge one operator's `screens` (`C1` each) to `t`'s ledger.
fn charge_screens(t: &Table, screens: u64) {
    if t.pager().is_charging() {
        t.pager().ledger().add_screens(screens);
    }
}

/// `σ_predicate(t)`: the rows of `t` that satisfy `predicate`, encoded,
/// in storage order, for any organization. A B-tree table range-scans
/// the predicate's bounds on its key and tests each scanned row in place
/// only on the terms that range leaves open ([`Predicate::residual`]) —
/// the [`Plan::BTreeSelect`] operator. A hash or heap table tests every
/// row in place. Each scanned row is one screen (`C1`), charged to `t`'s
/// ledger once when the scan ends, failed or not.
pub fn select_encoded(t: &Table, predicate: &Predicate) -> Result<EncodedRows> {
    let schema = t.schema();
    let mut out = EncodedRows::new(schema.tuple_width());
    let mut screens = 0;
    let mut screen = |test: &Predicate, row: &[u8]| {
        screens += 1;
        if test.eval_encoded(schema, row) {
            out.push(row);
        }
    };
    let scanned = match t.organization() {
        Organization::BTree { key_field } => {
            let (lo, hi) = predicate
                .int_bounds(key_field)
                .unwrap_or((i64::MIN, i64::MAX));
            let residual = predicate.residual(key_field);
            t.range_scan_encoded(lo, hi, |row| screen(&residual, row))
        }
        Organization::Hash { .. } | Organization::Heap => {
            t.scan_in_place(|row| screen(predicate, row))
        }
    };
    charge_screens(t, screens);
    scanned?;
    Ok(out)
}

/// Run `plan`, returning its output schema and encoded rows.
fn run<'c>(plan: &Plan, catalog: &'c Catalog) -> Result<(Cow<'c, Schema>, EncodedRows)> {
    match plan {
        Plan::BTreeSelect {
            table: name,
            predicate,
        } => {
            let t = table(catalog, name);
            assert!(
                matches!(t.organization(), Organization::BTree { .. }),
                "BTreeSelect on non-btree table {name}"
            );
            Ok((Cow::Borrowed(t.schema()), select_encoded(t, predicate)?))
        }
        Plan::HashJoin {
            outer,
            inner,
            outer_key_field,
            residual,
        } => {
            let (outer_schema, outer_rows) = run(outer, catalog)?;
            let t = table(catalog, inner);
            let schema = outer_schema.concat(t.schema());
            let mut out = EncodedRows::new(schema.tuple_width());
            let mut screens = 0;
            let probed = outer_rows.iter().try_for_each(|outer_row| {
                let key = outer_schema.field(outer_row, *outer_key_field).as_int();
                t.probe_encoded(key, |inner_row| {
                    screens += 1;
                    // Build `outer ++ inner` as the output's next row; drop
                    // it again if the residual rejects it.
                    let start = out.bytes.len();
                    out.bytes.extend_from_slice(outer_row);
                    out.bytes.extend_from_slice(inner_row);
                    if residual.eval_encoded(&schema, &out.bytes[start..]) {
                        out.len += 1;
                    } else {
                        out.bytes.truncate(start);
                    }
                })
            });
            charge_screens(t, screens);
            probed?;
            Ok((Cow::Owned(schema), out))
        }
        Plan::Project { input, fields } => {
            let (in_schema, in_rows) = run(input, catalog)?;
            let schema = in_schema.project(fields);
            let ranges: Vec<_> = fields.iter().map(|&i| in_schema.field_range(i)).collect();
            let mut out = EncodedRows::new(schema.tuple_width());
            out.bytes.reserve(in_rows.len * out.width);
            for row in in_rows.iter() {
                for r in &ranges {
                    out.bytes.extend_from_slice(&row[r.clone()]);
                }
                out.len += 1;
            }
            Ok((Cow::Owned(schema), out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompOp, Predicate, Term};
    use crate::table::{Catalog, Organization, Table};
    use crate::value::{FieldType, Schema, Value};
    use std::sync::Arc;

    use procdb_storage::{AccountingMode, FaultPlan, Pager, PagerConfig};

    fn pager() -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 512,
            mode: AccountingMode::Logical,
        })
    }

    /// R1(skey, a, id); R2(b, f2key, id2)
    fn setup(pager: Arc<Pager>) -> Catalog {
        let r1_schema = Schema::new(vec![
            ("skey", FieldType::Int),
            ("a", FieldType::Int),
            ("id", FieldType::Int),
        ]);
        let r2_schema = Schema::new(vec![
            ("b", FieldType::Int),
            ("f2key", FieldType::Int),
            ("id2", FieldType::Int),
        ]);
        let mut r1 = Table::create(
            pager.clone(),
            "R1",
            r1_schema,
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        let mut r2 = Table::create(
            pager,
            "R2",
            r2_schema,
            Organization::Hash { key_field: 0 },
            64,
        )
        .unwrap();
        for i in 0..100i64 {
            r1.insert(&vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)])
                .unwrap();
        }
        for j in 0..10i64 {
            r2.insert(&vec![
                Value::Int(j),
                Value::Int(j % 2),
                Value::Int(1000 + j),
            ])
            .unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(r1);
        cat.add(r2);
        cat
    }

    #[test]
    fn select_by_range() {
        let cat = setup(pager());
        let plan = Plan::select("R1", Predicate::int_range(0, 10, 19));
        let rows = execute(&plan, &cat).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| (10..=19).contains(&r[0].as_int())));
    }

    #[test]
    fn select_with_residual() {
        let cat = setup(pager());
        let pred = Predicate::int_range(0, 0, 49).and(Term::new(1, CompOp::Eq, 3i64));
        let plan = Plan::select("R1", pred);
        let rows = execute(&plan, &cat).unwrap();
        // skey in 0..=49 with skey % 10 == 3 → 5 rows.
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn join_produces_combined_tuples() {
        let cat = setup(pager());
        // P2 shape: select R1 range, join R1.a = R2.b, screen R2.f2key = 0.
        let plan = Plan::select("R1", Predicate::int_range(0, 0, 19)).hash_join(
            "R2",
            1,
            Predicate::single(4, CompOp::Eq, 0i64), // f2key is field 4 of combined
        );
        let rows = execute(&plan, &cat).unwrap();
        // 20 outer rows; each joins exactly one R2 row (a = skey%10 = b);
        // f2key = b%2 = 0 keeps even b → 10 rows.
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert_eq!(r.len(), 6);
            assert_eq!(r[1], r[3], "join key equality");
            assert_eq!(r[4].as_int(), 0);
        }
    }

    #[test]
    fn screens_are_charged() {
        let p = pager();
        let cat = setup(p.clone());
        let before = p.ledger().snapshot();
        let plan = Plan::select("R1", Predicate::int_range(0, 0, 9));
        execute(&plan, &cat).unwrap();
        let d = p.ledger().snapshot().since(&before);
        assert_eq!(d.screens, 10, "one screen per scanned tuple");
        assert!(d.page_reads > 0);
    }

    #[test]
    fn join_screens_counted_per_probe_result() {
        let p = pager();
        let cat = setup(p.clone());
        let before = p.ledger().snapshot();
        let plan = Plan::select("R1", Predicate::int_range(0, 0, 19)).hash_join(
            "R2",
            1,
            Predicate::always(),
        );
        let rows = execute(&plan, &cat).unwrap();
        assert_eq!(rows.len(), 20);
        let d = p.ledger().snapshot().since(&before);
        // 20 outer screens + 20 probe-result screens.
        assert_eq!(d.screens, 40);
    }

    #[test]
    fn screens_are_charged_when_a_scan_fails() {
        let p = pager();
        let cat = setup(p.clone());
        // Start cold, and fail the fourth disk read: past the descent and
        // the first leaves, so some rows were screened before the error.
        let fail_fourth_read = || {
            p.clear_buffer().unwrap();
            p.install_faults(FaultPlan::new(1).fail_window(4, 5));
        };
        fail_fourth_read();
        let mut visited = 0;
        let scanned = cat
            .get("R1")
            .unwrap()
            .range_scan_encoded(i64::MIN, i64::MAX, |_| visited += 1);
        assert!(scanned.is_err());
        assert!(visited > 0 && visited < 100, "visited = {visited}");
        fail_fourth_read();
        let before = p.ledger().snapshot();
        assert!(execute(&Plan::select("R1", Predicate::always()), &cat).is_err());
        assert_eq!(p.ledger().snapshot().since(&before).screens, visited);
    }

    #[test]
    fn uncharged_execution_when_loading() {
        let p = pager();
        let cat = setup(p.clone());
        p.set_charging(false);
        let before = p.ledger().snapshot();
        execute(&Plan::select("R1", Predicate::int_range(0, 0, 9)), &cat).unwrap();
        assert_eq!(p.ledger().snapshot(), before);
    }

    #[test]
    fn output_schema_and_explain() {
        let cat = setup(pager());
        let plan = Plan::select("R1", Predicate::always()).hash_join("R2", 1, Predicate::always());
        let schema = plan.output_schema(&cat);
        assert_eq!(schema.arity(), 6);
        assert_eq!(schema.field_index("f2key"), Some(4));
        let text = plan.explain();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("BTreeSelect"));
    }

    #[test]
    fn projection_keeps_selected_fields_in_order() {
        let cat = setup(pager());
        // Join, then keep (R2.id2, R1.skey) — reversed order on purpose.
        let plan = Plan::select("R1", Predicate::int_range(0, 0, 9))
            .hash_join("R2", 1, Predicate::always())
            .project(vec![5, 0]);
        let schema = plan.output_schema(&cat);
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.field_index("id2"), Some(0));
        assert_eq!(schema.field_index("skey"), Some(1));
        let rows = execute(&plan, &cat).unwrap();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert_eq!(r.len(), 2);
            assert!(r[0].as_int() >= 1000, "id2 field");
            assert!((0..10).contains(&r[1].as_int()), "skey field");
        }
        assert!(plan.explain().contains("Project"));
    }

    #[test]
    fn projection_can_duplicate_fields() {
        let cat = setup(pager());
        let plan = Plan::select("R1", Predicate::int_range(0, 3, 3)).project(vec![0, 0, 2]);
        let rows = execute(&plan, &cat).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int(3), Value::Int(3), Value::Int(3)]]
        );
    }

    #[test]
    fn empty_range_yields_nothing() {
        let cat = setup(pager());
        let rows = execute(&Plan::select("R1", Predicate::int_range(0, 50, 40)), &cat).unwrap();
        assert!(rows.is_empty());
    }
}
