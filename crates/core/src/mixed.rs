//! Per-procedure strategy execution: a mixed engine that serves each
//! procedure with its own assigned strategy.
//!
//! Resolves the paper's §8 open problem operationally: observe the
//! workload ([`crate::stats`]), decide a strategy per procedure, then run
//! this engine. Procedures are partitioned by assigned strategy into
//! independent [`Engine`] groups, each over its own copy of the base
//! data; updates are applied to every group (keeping the copies
//! identical), and each group pays maintenance only for its own
//! procedures.

use procdb_query::RowBatch;
use procdb_storage::{CostConstants, CostSnapshot, Result};

use crate::engine::{Engine, EngineOptions};
use crate::procedure::{ProcedureDef, StrategyKind};

/// An engine serving each procedure under its own strategy.
pub struct MixedEngine {
    groups: Vec<Engine>,
    kinds: Vec<StrategyKind>,
    /// Global procedure index → (group, local index).
    route: Vec<(usize, usize)>,
}

impl MixedEngine {
    /// Build a mixed engine. `make_substrate` must produce a *fresh,
    /// identically loaded* pager + catalog each call (one per strategy
    /// group); `assignments[i]` is the strategy for `procs[i]`.
    pub fn new(
        assignments: &[StrategyKind],
        procs: &[ProcedureDef],
        opts: EngineOptions,
        mut make_substrate: impl FnMut() -> Result<(
            std::sync::Arc<procdb_storage::Pager>,
            procdb_query::Catalog,
        )>,
    ) -> Result<MixedEngine> {
        assert_eq!(assignments.len(), procs.len());
        let mut kinds: Vec<StrategyKind> = Vec::new();
        let mut partitions: Vec<Vec<usize>> = Vec::new();
        for (i, kind) in assignments.iter().enumerate() {
            match kinds.iter().position(|k| k == kind) {
                Some(g) => partitions[g].push(i),
                None => {
                    kinds.push(*kind);
                    partitions.push(vec![i]);
                }
            }
        }
        let mut route = vec![(usize::MAX, usize::MAX); procs.len()];
        let mut groups = Vec::with_capacity(kinds.len());
        for (g, (kind, members)) in kinds.iter().zip(&partitions).enumerate() {
            let (pager, catalog) = make_substrate()?;
            let mut group_procs = Vec::with_capacity(members.len());
            for (local, &global) in members.iter().enumerate() {
                route[global] = (g, local);
                group_procs.push(procs[global].clone());
            }
            groups.push(Engine::new(
                pager,
                catalog,
                group_procs,
                *kind,
                opts.clone(),
            )?);
        }
        Ok(MixedEngine {
            groups,
            kinds,
            route,
        })
    }

    /// Number of strategy groups in play.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The strategy assigned to procedure `i`.
    pub fn strategy_of(&self, i: usize) -> StrategyKind {
        self.kinds[self.route[i].0]
    }

    /// Warm every group's caches (uncharged).
    pub fn warm_up(&mut self) -> Result<()> {
        for g in &mut self.groups {
            g.warm_up()?;
        }
        Ok(())
    }

    /// Read procedure `i`'s value under its assigned strategy.
    pub fn access(&mut self, i: usize) -> Result<RowBatch> {
        let (g, local) = self.route[i];
        self.groups[g].access(local)
    }

    /// Apply one `R1` update transaction to **every** group (the copies
    /// of the base data stay identical; each group charges only its own
    /// procedures' maintenance).
    pub fn apply_update(&mut self, modifications: &[(i64, i64)]) -> Result<usize> {
        let mut modified = 0;
        for g in &mut self.groups {
            modified = g.apply_update(modifications)?;
        }
        Ok(modified)
    }

    /// Apply an inner-relation update transaction to every group.
    pub fn apply_update_to(
        &mut self,
        relation: &str,
        modifications: &[(i64, i64)],
    ) -> Result<usize> {
        let mut modified = 0;
        for g in &mut self.groups {
            modified = g.apply_update_to(relation, modifications)?;
        }
        Ok(modified)
    }

    /// Uncharged reference answer for procedure `i`.
    pub fn expected_rows(&self, i: usize) -> Result<RowBatch> {
        let (g, local) = self.route[i];
        self.groups[g].expected_rows(local)
    }

    /// Sum of all groups' work counters.
    pub fn total_snapshot(&self) -> CostSnapshot {
        self.groups
            .iter()
            .map(|g| g.ledger().snapshot())
            .fold(CostSnapshot::default(), |a, b| a + b)
    }

    /// Total priced cost (ms) across groups.
    pub fn total_ms(&self, c: &CostConstants) -> f64 {
        self.total_snapshot().priced(c)
    }

    /// Reset every group's ledger.
    pub fn reset_ledgers(&self) {
        for g in &self.groups {
            g.ledger().reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_avm::ViewDef;
    use procdb_query::{FieldType, Organization, Predicate, Schema, Table, Value};
    use procdb_storage::{AccountingMode, Pager, PagerConfig};

    fn substrate() -> Result<(std::sync::Arc<Pager>, procdb_query::Catalog)> {
        let pager = Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 4096,
            mode: AccountingMode::Logical,
        });
        pager.set_charging(false);
        let schema = Schema::new(vec![
            ("skey", FieldType::Int),
            ("a", FieldType::Int),
            ("pad", FieldType::Bytes(24)),
        ]);
        let mut r1 = Table::create(
            pager.clone(),
            "R1",
            schema,
            Organization::BTree { key_field: 0 },
            0,
        )?;
        for i in 0..1000i64 {
            r1.insert(&vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Bytes(vec![0; 4]),
            ])?;
        }
        pager.ledger().reset();
        pager.set_charging(true);
        let mut cat = procdb_query::Catalog::new();
        cat.add(r1);
        Ok((pager, cat))
    }

    fn selection(id: u32, lo: i64, hi: i64) -> ProcedureDef {
        ProcedureDef::new(
            id,
            format!("p{id}"),
            ViewDef {
                base: "R1".into(),
                selection: Predicate::int_range(0, lo, hi),
                joins: vec![],
            },
        )
    }

    #[test]
    fn routes_and_groups() {
        let procs = vec![
            selection(0, 0, 19),
            selection(1, 100, 899),
            selection(2, 20, 39),
        ];
        let kinds = [
            StrategyKind::UpdateCacheAvm,
            StrategyKind::AlwaysRecompute,
            StrategyKind::UpdateCacheAvm,
        ];
        let m = MixedEngine::new(&kinds, &procs, EngineOptions::default(), substrate).unwrap();
        assert_eq!(m.group_count(), 2);
        assert_eq!(m.strategy_of(0), StrategyKind::UpdateCacheAvm);
        assert_eq!(m.strategy_of(1), StrategyKind::AlwaysRecompute);
        assert_eq!(m.strategy_of(2), StrategyKind::UpdateCacheAvm);
    }

    #[test]
    fn mixed_engine_serves_correct_answers_through_updates() {
        let procs = vec![selection(0, 0, 19), selection(1, 100, 899)];
        let kinds = [StrategyKind::UpdateCacheAvm, StrategyKind::CacheInvalidate];
        let mut m = MixedEngine::new(&kinds, &procs, EngineOptions::default(), substrate).unwrap();
        m.warm_up().unwrap();
        for round in 0..6i64 {
            m.apply_update(&[(round * 37 % 1000, round * 91 % 1000)])
                .unwrap();
            for i in 0..2 {
                let got = m.access(i).unwrap();
                let expect = m.expected_rows(i).unwrap();
                assert_eq!(got.normalized(), expect.normalized(), "proc {i}");
            }
        }
    }

    #[test]
    fn tailored_assignment_beats_uniform_strategies() {
        // Proc 0: hot reader, never conflicted → Update Cache heaven.
        // Proc 1: huge object, hammered by updates, read once → AR heaven.
        let procs = vec![selection(0, 0, 19), selection(1, 100, 899)];
        let constants = CostConstants::default();
        let run = |kinds: [StrategyKind; 2]| -> f64 {
            let mut m =
                MixedEngine::new(&kinds, &procs, EngineOptions::default(), substrate).unwrap();
            m.warm_up().unwrap();
            m.reset_ledgers();
            for round in 0..40i64 {
                // Bulk updates always land inside proc 1's big window.
                let mods: Vec<(i64, i64)> = (0..10)
                    .map(|j| {
                        let base = round * 10 + j;
                        (100 + base * 13 % 800, 100 + base * 29 % 800)
                    })
                    .collect();
                m.apply_update(&mods).unwrap();
                m.access(0).unwrap();
            }
            m.access(1).unwrap();
            m.total_ms(&constants)
        };
        let mixed = run([StrategyKind::UpdateCacheAvm, StrategyKind::AlwaysRecompute]);
        let all_uc = run([StrategyKind::UpdateCacheAvm, StrategyKind::UpdateCacheAvm]);
        let all_ar = run([StrategyKind::AlwaysRecompute, StrategyKind::AlwaysRecompute]);
        assert!(
            mixed < all_uc,
            "mixed {mixed} should beat uniform UpdateCache {all_uc}"
        );
        assert!(
            mixed < all_ar,
            "mixed {mixed} should beat uniform AlwaysRecompute {all_ar}"
        );
    }

    #[test]
    fn decision_pipeline_end_to_end() {
        use crate::stats::{decide_assignments, DecisionInput, WorkloadObserver};
        // Observe the skewed workload of the previous test.
        let mut obs = WorkloadObserver::new(2);
        for _ in 0..30 {
            obs.record_access(0);
            obs.record_update([1]);
        }
        obs.record_access(1);
        let inputs = [
            DecisionInput {
                recompute_ms: 200.0,
                cached_read_ms: 30.0,
                conflict_rate: 0.0,
                tuples_per_conflict: 2.0,
            },
            DecisionInput {
                recompute_ms: 900.0,
                cached_read_ms: 600.0,
                conflict_rate: 0.0,
                tuples_per_conflict: 2.0,
            },
        ];
        let kinds = decide_assignments(&obs, &inputs, &CostConstants::default());
        assert_eq!(
            kinds[0],
            StrategyKind::UpdateCacheAvm,
            "cold-updated hot reader"
        );
        assert_eq!(
            kinds[1],
            StrategyKind::AlwaysRecompute,
            "hot-updated cold reader"
        );
    }
}
