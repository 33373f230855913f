//! The Rete discrimination network: root dispatch, t-const nodes, α/β
//! memories, and-nodes, ±-tagged token propagation, and shared-
//! subexpression construction.
//!
//! Statically built (the paper's *statically optimized* algorithm): views
//! are added once, common subexpressions are unified by structural
//! memoization, and no planning happens at run time.
//!
//! **Root dispatch.** A textbook Rete broadcasts every token to every
//! t-const node. The paper instead charges each procedure only for the
//! `2fl` tuples that broke its i-locks — i.e. the root discriminates on
//! the t-const conditions' key intervals before any charged screening
//! happens (this is exactly the "rule indexing" of \[SSH86\]). The root
//! here keeps an interval table per relation: a token is delivered (and
//! its screen charged at `C1`) only to t-const nodes whose key interval
//! contains it; unbounded t-consts receive everything.
//!
//! **Initialization.** Memories are built from encoded rows, never from
//! decoded tuples. An α-memory is filled by the compiled selection
//! ([`procdb_query::select_encoded`]): on a B-tree relation a range scan
//! of the t-const chain's key bounds, testing only the remaining terms in
//! place; on a hash or heap relation a scan testing every row in place. A
//! β-memory is filled by walking its left memory's rows in heap order and
//! appending each right-memory row under the join key. Each memory takes
//! its rows in one [`StoredRows::fill`]. Rebuilding (crash recovery, or a
//! failed maintenance pass) is the same call, so a rebuilt network holds
//! the same rows at the same rids as a fresh one, and it is priced like a
//! plan run plus a refresh: the pages read, one screen per scanned base
//! row, and one read-modify-write per memory page.
//!
//! **Propagation.** A token is encoded once, by the α-memory whose
//! t-const passes it; from there every and-node concatenates encoded
//! rows (`left ++ right`, the same join initialization runs) and every
//! memory inserts or removes them as bytes.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use procdb_query::{select_encoded, Catalog, EncodedRows, Predicate, Schema, StoredRows, Tuple};
use procdb_storage::{Pager, Result};

fn tokens_counter() -> &'static procdb_obs::Counter {
    static C: OnceLock<procdb_obs::Counter> = OnceLock::new();
    C.get_or_init(|| procdb_obs::global().counter("procdb_rete_tokens_total", &[]))
}

/// Index of a node in the network.
pub type NodeId = usize;

/// Token tag: insertion or deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// `+`: tuple inserted.
    Plus,
    /// `−`: tuple deleted.
    Minus,
}

/// A change token flowing through the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Insertion or deletion.
    pub sign: Sign,
    /// The changed tuple.
    pub tuple: Tuple,
}

impl Token {
    /// An insertion token.
    pub fn plus(tuple: Tuple) -> Token {
        Token {
            sign: Sign::Plus,
            tuple,
        }
    }
    /// A deletion token.
    pub fn minus(tuple: Tuple) -> Token {
        Token {
            sign: Sign::Minus,
            tuple,
        }
    }
}

/// Which input of an and-node a memory feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Left input.
    Left,
    /// Right input.
    Right,
}

/// Declarative network spec for one view; structurally equal specs share
/// nodes when added to the same [`Rete`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReteSpec {
    /// `σ_predicate(relation)` materialized in an α-memory.
    Select {
        /// Base relation name.
        relation: String,
        /// Base relation schema.
        schema: Schema,
        /// The t-const condition chain (a conjunction).
        predicate: Predicate,
        /// Field the α-memory is organized on (its future join key).
        probe_field: usize,
        /// Field used for root interval dispatch (the relation's key),
        /// `None` to receive every token of the relation.
        dispatch_field: Option<usize>,
    },
    /// `left ⋈_{left_field = right_field} right` materialized in a
    /// β-memory.
    Join {
        /// Left input subnetwork.
        left: Box<ReteSpec>,
        /// Right input subnetwork.
        right: Box<ReteSpec>,
        /// Join field (index into the left memory's tuples).
        left_field: usize,
        /// Join field (index into the right memory's tuples).
        right_field: usize,
        /// Field of the *combined* tuple the β-memory is organized on.
        probe_field: usize,
    },
}

/// How a memory node's initial contents are computed.
enum MemSource {
    Select {
        relation: String,
        predicate: Predicate,
    },
    Join {
        and: NodeId,
    },
}

// Memory nodes dwarf the other variants; boxing the store keeps the node
// vector dense.
enum Node {
    TConst {
        predicate: Predicate,
        memory: NodeId,
    },
    Memory {
        store: Box<StoredRows>,
        source: MemSource,
        outputs: Vec<(NodeId, Side)>,
    },
    And {
        left: NodeId,
        right: NodeId,
        left_field: usize,
        right_field: usize,
        out: NodeId,
    },
}

struct DispatchEntry {
    tconst: NodeId,
    field: Option<usize>,
    bounds: Option<(i64, i64)>,
}

/// A statically built, shared Rete network maintaining many views.
pub struct Rete {
    pager: Arc<Pager>,
    nodes: Vec<Node>,
    dispatch: HashMap<String, Vec<DispatchEntry>>,
    memo: HashMap<ReteSpec, NodeId>,
    shared_hits: usize,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReteStats {
    /// t-const nodes.
    pub tconst_nodes: usize,
    /// Memory nodes (α + β).
    pub memory_nodes: usize,
    /// and-nodes.
    pub and_nodes: usize,
    /// Views whose spec was structurally shared with an earlier view.
    pub shared_hits: usize,
}

impl Rete {
    /// Empty network over `pager`.
    pub fn new(pager: Arc<Pager>) -> Rete {
        Rete {
            pager,
            nodes: Vec::new(),
            dispatch: HashMap::new(),
            memo: HashMap::new(),
            shared_hits: 0,
        }
    }

    /// Add a view to the network (sharing structurally equal
    /// subexpressions) and return the id of its output memory node.
    pub fn add_view(&mut self, spec: &ReteSpec) -> NodeId {
        if let Some(&id) = self.memo.get(spec) {
            self.shared_hits += 1;
            return id;
        }
        let id = match spec {
            ReteSpec::Select {
                relation,
                schema,
                predicate,
                probe_field,
                dispatch_field,
            } => {
                let mem_id = self.nodes.len();
                let store = StoredRows::new(self.pager.clone(), schema.clone(), *probe_field);
                self.nodes.push(Node::Memory {
                    store: Box::new(store),
                    source: MemSource::Select {
                        relation: relation.clone(),
                        predicate: predicate.clone(),
                    },
                    outputs: Vec::new(),
                });
                let tconst_id = self.nodes.len();
                self.nodes.push(Node::TConst {
                    predicate: predicate.clone(),
                    memory: mem_id,
                });
                let bounds = dispatch_field.and_then(|f| predicate.int_bounds(f));
                self.dispatch
                    .entry(relation.clone())
                    .or_default()
                    .push(DispatchEntry {
                        tconst: tconst_id,
                        field: *dispatch_field,
                        bounds,
                    });
                mem_id
            }
            ReteSpec::Join {
                left,
                right,
                left_field,
                right_field,
                probe_field,
            } => {
                let left_id = self.add_view(left);
                let right_id = self.add_view(right);
                let combined = self
                    .memory(left_id)
                    .schema()
                    .concat(self.memory(right_id).schema());
                let out_id = self.nodes.len();
                let store = StoredRows::new(self.pager.clone(), combined, *probe_field);
                let and_id = out_id + 1;
                self.nodes.push(Node::Memory {
                    store: Box::new(store),
                    source: MemSource::Join { and: and_id },
                    outputs: Vec::new(),
                });
                self.nodes.push(Node::And {
                    left: left_id,
                    right: right_id,
                    left_field: *left_field,
                    right_field: *right_field,
                    out: out_id,
                });
                self.memory_outputs_mut(left_id).push((and_id, Side::Left));
                self.memory_outputs_mut(right_id)
                    .push((and_id, Side::Right));
                out_id
            }
        };
        self.memo.insert(spec.clone(), id);
        id
    }

    fn memory_store_mut(&mut self, id: NodeId) -> &mut StoredRows {
        match &mut self.nodes[id] {
            Node::Memory { store, .. } => store,
            _ => panic!("node {id} is not a memory"),
        }
    }

    fn memory_outputs_mut(&mut self, id: NodeId) -> &mut Vec<(NodeId, Side)> {
        match &mut self.nodes[id] {
            Node::Memory { outputs, .. } => outputs,
            _ => panic!("node {id} is not a memory"),
        }
    }

    /// Public read access to a memory node's store.
    pub fn memory(&self, id: NodeId) -> &StoredRows {
        match &self.nodes[id] {
            Node::Memory { store, .. } => store,
            _ => panic!("node {id} is not a memory"),
        }
    }

    /// Fill every memory from the base relations, replacing whatever it
    /// held: the initial build, after all views are added and the base
    /// tables are loaded, and every rebuild (crash recovery, or a failed
    /// maintenance pass). (The engine runs the initial build uncharged:
    /// it is setup, not steady-state work; a rebuild is charged.)
    ///
    /// Rows stay encoded throughout (see the module docs): α-memories
    /// take the survivors of [`select_encoded`], β-memories the encoded
    /// join of their inputs, each in a fixed order, so the pages hold the
    /// same rows at the same rids however often the network is rebuilt.
    pub fn initialize(&mut self, catalog: &Catalog) -> Result<()> {
        // Node ids are created children-first, so ascending order is a
        // valid topological order.
        for id in 0..self.nodes.len() {
            let rows = match &self.nodes[id] {
                Node::Memory {
                    source:
                        MemSource::Select {
                            relation,
                            predicate,
                        },
                    ..
                } => {
                    let table = catalog
                        .get(relation)
                        .unwrap_or_else(|| panic!("unknown relation {relation}"));
                    select_encoded(table, predicate)?
                }
                Node::Memory {
                    source: MemSource::Join { and },
                    ..
                } => self.join_rows(*and)?,
                _ => continue,
            };
            self.memory_store_mut(id).fill(&rows)?;
        }
        Ok(())
    }

    /// And-node `and`'s `(left, right, left_field, right_field, out)`.
    fn and_node(&self, and: NodeId) -> (NodeId, NodeId, usize, usize, NodeId) {
        match self.nodes[and] {
            Node::And {
                left,
                right,
                left_field,
                right_field,
                out,
            } => (left, right, left_field, right_field, out),
            _ => panic!("node {and} is not an and node"),
        }
    }

    /// The rows and-node `and` produces from its inputs' current
    /// contents: `left ++ right` per matching pair, left rows in heap
    /// order, right rows in probe order.
    fn join_rows(&self, and: NodeId) -> Result<EncodedRows> {
        let (left, .., out) = self.and_node(and);
        let mut rows = EncodedRows::new(self.memory(out).schema().tuple_width());
        for l in self.memory(left).scan_encoded()?.iter() {
            self.join_one(and, Side::Left, l, &mut rows)?;
        }
        Ok(rows)
    }

    /// Append to `out` what and-node `and` makes of one `row` arriving on
    /// `side`: `row` joined with each matching row of the opposite memory,
    /// as `left ++ right` in the opposite memory's probe order.
    fn join_one(&self, and: NodeId, side: Side, row: &[u8], out: &mut EncodedRows) -> Result<()> {
        let (left, right, left_field, right_field, _) = self.and_node(and);
        let (left, right) = (self.memory(left), self.memory(right));
        let mut pair = Vec::with_capacity(out.width());
        let mut push = |l: &[u8], r: &[u8]| {
            pair.clear();
            pair.extend_from_slice(l);
            pair.extend_from_slice(r);
            out.push(&pair);
        };
        match side {
            Side::Left => {
                let key = left.schema().int_field(row, left_field);
                right.probe_encoded(right_field, key, |r| push(row, r))
            }
            Side::Right => {
                let key = right.schema().int_field(row, right_field);
                left.probe_encoded(left_field, key, |l| push(l, row))
            }
        }
    }

    /// Drop every memory's file, freeing the network's pages.
    pub fn destroy(self) -> Result<()> {
        for node in self.nodes {
            if let Node::Memory { store, .. } = node {
                store.destroy()?;
            }
        }
        Ok(())
    }

    /// Submit one change token for `relation` at the root and let it
    /// propagate. Screens are charged at `C1` for every t-const the root
    /// dispatch delivers the token to; memory refreshes and probes charge
    /// page I/O through the pager.
    pub fn submit(&mut self, relation: &str, token: Token) -> Result<()> {
        tokens_counter().inc();
        let Some(entries) = self.dispatch.get(relation) else {
            return Ok(());
        };
        let ledger = self.pager.ledger().clone();
        let charging = self.pager.is_charging();
        let mut targets = Vec::new();
        for e in entries {
            if let (Some(field), Some((lo, hi))) = (e.field, e.bounds) {
                let key = token.tuple[field].as_int();
                if key < lo || key > hi {
                    continue; // discriminated away by the root, uncharged
                }
            }
            targets.push(e.tconst);
        }
        for tconst_id in targets {
            let (passes, mem_id) = match &self.nodes[tconst_id] {
                Node::TConst { predicate, memory } => {
                    if charging {
                        ledger.add_screens(1);
                    }
                    (predicate.eval(&token.tuple), *memory)
                }
                _ => panic!("dispatch target is not a t-const"),
            };
            if passes {
                let row = self.memory(mem_id).schema().encode(&token.tuple);
                self.activate_memory(mem_id, token.sign, &row)?;
            }
        }
        Ok(())
    }

    /// Apply one encoded row to memory `mem_id` and propagate what it
    /// joins with through every and-node the memory feeds.
    fn activate_memory(&mut self, mem_id: NodeId, sign: Sign, row: &[u8]) -> Result<()> {
        let Node::Memory { store, outputs, .. } = &mut self.nodes[mem_id] else {
            panic!("node {mem_id} is not a memory");
        };
        let present = match sign {
            Sign::Plus => {
                store.insert_encoded(row)?;
                true
            }
            Sign::Minus => store.remove_encoded(row)?,
        };
        if !present {
            // A deletion of a tuple this memory never held produces no
            // downstream joins either.
            return Ok(());
        }
        for (and, side) in outputs.clone() {
            let (.., out) = self.and_node(and);
            let mut combined = EncodedRows::new(self.memory(out).schema().tuple_width());
            self.join_one(and, side, row, &mut combined)?;
            for c in combined.iter() {
                self.activate_memory(out, sign, c)?;
            }
        }
        Ok(())
    }

    /// Full contents of a view's output memory, as stored (charges one
    /// page read per page — the per-access `C_read`).
    pub fn read_view(&self, id: NodeId) -> Result<EncodedRows> {
        self.memory(id).scan_encoded()
    }

    /// Whether a structurally equal spec already exists in the network.
    pub fn lookup(&self, spec: &ReteSpec) -> Option<NodeId> {
        self.memo.get(spec).copied()
    }

    /// Network statistics.
    pub fn stats(&self) -> ReteStats {
        let mut s = ReteStats {
            shared_hits: self.shared_hits,
            ..ReteStats::default()
        };
        for n in &self.nodes {
            match n {
                Node::TConst { .. } => s.tconst_nodes += 1,
                Node::Memory { .. } => s.memory_nodes += 1,
                Node::And { .. } => s.and_nodes += 1,
            }
        }
        s
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
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

    fn r1_schema() -> Schema {
        Schema::new(vec![("skey", FieldType::Int), ("a", FieldType::Int)])
    }

    fn r2_schema() -> Schema {
        Schema::new(vec![("b", FieldType::Int), ("tag", FieldType::Int)])
    }

    /// R1(skey, a) with 50 rows; R2(b, tag) with 5 rows.
    fn setup(pager: &Arc<Pager>) -> Catalog {
        let mut r1 = Table::create(
            pager.clone(),
            "R1",
            r1_schema(),
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        let mut r2 = Table::create(
            pager.clone(),
            "R2",
            r2_schema(),
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

    fn p1_spec(lo: i64, hi: i64) -> ReteSpec {
        ReteSpec::Select {
            relation: "R1".into(),
            schema: r1_schema(),
            predicate: Predicate::int_range(0, lo, hi),
            probe_field: 1,
            dispatch_field: Some(0),
        }
    }

    fn r2_alpha() -> ReteSpec {
        ReteSpec::Select {
            relation: "R2".into(),
            schema: r2_schema(),
            predicate: Predicate::single(1, CompOp::Eq, 0i64), // tag = 0
            probe_field: 0,
            dispatch_field: None,
        }
    }

    fn p2_spec(lo: i64, hi: i64) -> ReteSpec {
        ReteSpec::Join {
            left: Box::new(p1_spec(lo, hi)),
            right: Box::new(r2_alpha()),
            left_field: 1,
            right_field: 0,
            probe_field: 0,
        }
    }

    #[test]
    fn initialize_fills_memories() {
        let p = pager();
        let cat = setup(&p);
        let mut rete = Rete::new(p);
        let v1 = rete.add_view(&p1_spec(10, 19));
        let v2 = rete.add_view(&p2_spec(10, 19));
        rete.initialize(&cat).unwrap();
        assert_eq!(rete.memory(v1).len(), 10);
        // a = skey % 5 ∈ {0,1,2,3,4}; R2 rows with tag=0: b ∈ {0,2,4};
        // 10 left rows, 2 per a-value with a ∈ {0,2,4} → 6.
        assert_eq!(rete.memory(v2).len(), 6);
    }

    #[test]
    fn shared_alpha_memory_single_instance() {
        let p = pager();
        let _cat = setup(&p);
        let mut rete = Rete::new(p);
        let v1 = rete.add_view(&p1_spec(10, 19));
        let before = rete.stats();
        let v2 = rete.add_view(&p2_spec(10, 19));
        let after = rete.stats();
        // The join added: its R2 α-memory + t-const, one β-memory, one
        // and-node — but NO new left α-memory (shared with v1).
        assert_eq!(after.memory_nodes, before.memory_nodes + 2);
        assert_eq!(after.and_nodes, before.and_nodes + 1);
        assert_eq!(after.tconst_nodes, before.tconst_nodes + 1);
        assert_eq!(rete.lookup(&p1_spec(10, 19)), Some(v1));
        assert_ne!(v1, v2);
        // Adding the identical join view is free and counted as a share.
        let hits_before = rete.stats().shared_hits;
        let v2b = rete.add_view(&p2_spec(10, 19));
        assert_eq!(v2, v2b);
        assert_eq!(rete.stats().memory_nodes, after.memory_nodes);
        assert_eq!(rete.stats().shared_hits, hits_before + 1);
    }

    #[test]
    fn plus_token_propagates_to_beta() {
        let p = pager();
        let cat = setup(&p);
        let mut rete = Rete::new(p);
        let v1 = rete.add_view(&p1_spec(10, 19));
        let v2 = rete.add_view(&p2_spec(10, 19));
        rete.initialize(&cat).unwrap();
        // New R1 tuple in range with a = 2 (joins b = 2, tag 0).
        rete.submit("R1", Token::plus(vec![Value::Int(15), Value::Int(2)]))
            .unwrap();
        assert_eq!(rete.memory(v1).len(), 11);
        assert_eq!(rete.memory(v2).len(), 7);
        // And one with a = 1 (b = 1 has tag 1 → filtered by the R2 α).
        rete.submit("R1", Token::plus(vec![Value::Int(16), Value::Int(1)]))
            .unwrap();
        assert_eq!(rete.memory(v1).len(), 12);
        assert_eq!(rete.memory(v2).len(), 7);
    }

    #[test]
    fn minus_token_retracts_joins() {
        let p = pager();
        let cat = setup(&p);
        let mut rete = Rete::new(p);
        let v1 = rete.add_view(&p1_spec(10, 19));
        let v2 = rete.add_view(&p2_spec(10, 19));
        rete.initialize(&cat).unwrap();
        // Remove R1 tuple (10, a=0): joins b=0 (tag 0) → one β row gone.
        rete.submit("R1", Token::minus(vec![Value::Int(10), Value::Int(0)]))
            .unwrap();
        assert_eq!(rete.memory(v1).len(), 9);
        assert_eq!(rete.memory(v2).len(), 5);
    }

    #[test]
    fn out_of_interval_token_is_discriminated_uncharged() {
        let p = pager();
        let cat = setup(&p);
        let mut rete = Rete::new(p.clone());
        let v1 = rete.add_view(&p1_spec(10, 19));
        rete.initialize(&cat).unwrap();
        let before = p.ledger().snapshot();
        rete.submit("R1", Token::plus(vec![Value::Int(999), Value::Int(0)]))
            .unwrap();
        let d = p.ledger().snapshot().since(&before);
        assert_eq!(d.screens, 0, "root discrimination is uncharged");
        assert_eq!(d.page_ios(), 0);
        assert_eq!(rete.memory(v1).len(), 10);
    }

    #[test]
    fn in_interval_token_charges_one_screen_per_view() {
        let p = pager();
        let cat = setup(&p);
        let mut rete = Rete::new(p.clone());
        let _v1 = rete.add_view(&p1_spec(10, 19));
        let _v1b = rete.add_view(&p1_spec(15, 24));
        rete.initialize(&cat).unwrap();
        let before = p.ledger().snapshot();
        rete.submit("R1", Token::plus(vec![Value::Int(17), Value::Int(0)]))
            .unwrap();
        let d = p.ledger().snapshot().since(&before);
        assert_eq!(d.screens, 2, "both overlapping views screen the token");
    }

    #[test]
    fn right_side_activation_works() {
        let p = pager();
        let cat = setup(&p);
        let mut rete = Rete::new(p);
        let v2 = rete.add_view(&p2_spec(10, 19));
        rete.initialize(&cat).unwrap();
        assert_eq!(rete.memory(v2).len(), 6);
        // Insert a new R2 tuple with tag 0 and b = 1: left rows with a = 1
        // (skeys 11 and 16) now join.
        rete.submit("R2", Token::plus(vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
        assert_eq!(rete.memory(v2).len(), 8);
        // And retract it again.
        rete.submit("R2", Token::minus(vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
        assert_eq!(rete.memory(v2).len(), 6);
    }

    #[test]
    fn rete_view_matches_recompute_under_random_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = pager();
        let mut cat = setup(&p);
        let mut rete = Rete::new(p.clone());
        let v2 = rete.add_view(&p2_spec(10, 29));
        rete.initialize(&cat).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            // Move a random R1 tuple to a random new key.
            let old_key = rng.gen_range(0..50);
            let r1 = cat.get_mut("R1").unwrap();
            let Some(old) = r1.delete_where(old_key, |_| true).unwrap() else {
                continue;
            };
            let mut new = old.clone();
            new[0] = Value::Int(rng.gen_range(0..50));
            r1.insert(&new).unwrap();
            rete.submit("R1", Token::minus(old)).unwrap();
            rete.submit("R1", Token::plus(new)).unwrap();
        }
        // Compare against a from-scratch recompute.
        let plan = procdb_query::Plan::select("R1", Predicate::int_range(0, 10, 29)).hash_join(
            "R2",
            1,
            Predicate {
                terms: vec![Term::new(3, CompOp::Eq, 0i64)],
            },
        );
        let mut expect: Vec<Vec<u8>> = procdb_query::execute(&plan, &cat)
            .unwrap()
            .iter()
            .map(|t| rete.memory(v2).schema().encode(t))
            .collect();
        expect.sort_unstable();
        assert_eq!(rete.memory(v2).contents_normalized().unwrap(), expect);
    }
}
