//! Workload observation and per-procedure strategy decisions.
//!
//! The paper closes with an open problem (§8): *"An important issue with
//! the Cache and Invalidate and Update Cache strategies is how to decide
//! whether or not to maintain a cached copy of a given object"* (studied
//! for caching by Sellis \[Sel86, Sel87\]). The population-level model
//! answers with one strategy for everyone; real workloads are skewed, so
//! the right answer is *per procedure*.
//!
//! [`WorkloadObserver`] tracks per-procedure access counts and
//! update-conflict counts; [`decide_one`] turns one procedure's
//! observations plus the engine's live cost estimates into a strategy,
//! using the same cost structure as the paper's formulas, instantiated
//! with each procedure's own update rate and object size.

use procdb_storage::CostConstants;

use crate::procedure::StrategyKind;

/// Per-procedure workload counters.
#[derive(Debug, Clone, Default)]
pub struct ProcStats {
    /// Times the procedure's value was read.
    pub accesses: u64,
    /// Update transactions that conflicted with the procedure (would
    /// break its i-locks).
    pub conflicting_updates: u64,
}

/// Observes a running workload, one entry per procedure.
#[derive(Debug, Clone, Default)]
pub struct WorkloadObserver {
    per_proc: Vec<ProcStats>,
    /// Total operations seen (accesses + update transactions).
    pub operations: u64,
}

impl WorkloadObserver {
    /// An observer for `n` procedures.
    pub fn new(n: usize) -> WorkloadObserver {
        WorkloadObserver {
            per_proc: vec![ProcStats::default(); n],
            operations: 0,
        }
    }

    /// Track one more procedure (counters start at zero). Lets a live
    /// session grow the observer as views are defined, instead of
    /// rebuilding it and losing history.
    pub fn add_procedure(&mut self) {
        self.per_proc.push(ProcStats::default());
    }

    /// Record an access to procedure `i`.
    pub fn record_access(&mut self, i: usize) {
        self.per_proc[i].accesses += 1;
        self.operations += 1;
    }

    /// Record an update transaction, given which procedures it conflicted
    /// with (selection windows hit by any modified key).
    pub fn record_update(&mut self, conflicting: impl IntoIterator<Item = usize>) {
        self.operations += 1;
        for i in conflicting {
            self.per_proc[i].conflicting_updates += 1;
        }
    }

    /// Stats for procedure `i`.
    pub fn stats(&self, i: usize) -> &ProcStats {
        &self.per_proc[i]
    }

    /// Conflicting updates per access for procedure `i` — the
    /// per-procedure analogue of the paper's `k/q`, restricted to updates
    /// that matter to this object. `None` until the procedure has been
    /// accessed.
    pub fn conflict_rate(&self, i: usize) -> Option<f64> {
        let s = &self.per_proc[i];
        if s.accesses == 0 {
            None
        } else {
            Some(s.conflicting_updates as f64 / s.accesses as f64)
        }
    }

    /// Number of procedures observed.
    pub fn len(&self) -> usize {
        self.per_proc.len()
    }

    /// Whether the observer tracks no procedures.
    pub fn is_empty(&self) -> bool {
        self.per_proc.is_empty()
    }
}

/// Inputs to one procedure's decision.
#[derive(Debug, Clone, Copy)]
pub struct DecisionInput {
    /// Predicted full-recompute cost (ms) — e.g.
    /// [`Engine::estimate_recompute_ms`](crate::Engine::estimate_recompute_ms).
    pub recompute_ms: f64,
    /// Predicted warm cached-read cost (ms) — pages × `C2`.
    pub cached_read_ms: f64,
    /// Conflicting updates per access (the per-procedure `k/q`).
    pub conflict_rate: f64,
    /// Expected tuples changed in the object per conflicting update.
    pub tuples_per_conflict: f64,
}

/// Decide a strategy for one procedure by pricing the paper's three
/// families at its own parameters:
///
/// * AR: `recompute` every access;
/// * CI: invalid with probability `IP ≈ min(1, conflict_rate)`, then
///   recompute + write-back, else read;
/// * UC: read + amortized differential maintenance per conflicting
///   update (screen/bookkeep + one probe and one page RMW per changed
///   tuple).
pub fn decide_one(input: &DecisionInput, c: &CostConstants) -> StrategyKind {
    let ar = input.recompute_ms;
    let ip = input.conflict_rate.min(1.0);
    let ci =
        ip * (input.recompute_ms + 2.0 * input.cached_read_ms) + (1.0 - ip) * input.cached_read_ms;
    let maint_per_conflict = input.tuples_per_conflict * (c.c1 + c.c3 + c.c2 + 2.0 * c.c2);
    let uc = input.cached_read_ms + input.conflict_rate * maint_per_conflict;
    let (mut best, mut best_cost) = (StrategyKind::AlwaysRecompute, ar);
    if ci < best_cost {
        best = StrategyKind::CacheInvalidate;
        best_cost = ci;
    }
    // Ties go to Update Cache: at equal predicted cost it additionally
    // keeps the value continuously fresh.
    if uc <= best_cost {
        best = StrategyKind::UpdateCacheAvm;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(recompute: f64, read: f64, rate: f64) -> DecisionInput {
        DecisionInput {
            recompute_ms: recompute,
            cached_read_ms: read,
            conflict_rate: rate,
            tuples_per_conflict: 2.0,
        }
    }

    #[test]
    fn never_updated_object_gets_update_cache() {
        let d = decide_one(&input(1000.0, 60.0, 0.0), &CostConstants::default());
        assert_eq!(d, StrategyKind::UpdateCacheAvm);
    }

    #[test]
    fn constantly_updated_object_gets_recompute() {
        // Every access preceded by ~20 conflicting updates.
        let d = decide_one(&input(1000.0, 600.0, 20.0), &CostConstants::default());
        assert_eq!(d, StrategyKind::AlwaysRecompute);
    }

    #[test]
    fn small_hot_object_with_moderate_updates_gets_ci() {
        // Small object (1 page): UC maintenance ≈ recompute-on-miss, but
        // false work makes UC pay per conflict while CI pays only when
        // actually read. With a moderate rate and a big delta per
        // conflict, CI wins.
        let d = decide_one(
            &DecisionInput {
                recompute_ms: 100.0,
                cached_read_ms: 30.0,
                conflict_rate: 0.5,
                tuples_per_conflict: 40.0,
            },
            &CostConstants::default(),
        );
        assert_eq!(d, StrategyKind::CacheInvalidate);
    }

    #[test]
    fn add_procedure_grows_observer_without_losing_history() {
        let mut o = WorkloadObserver::new(1);
        o.record_access(0);
        o.add_procedure();
        assert_eq!(o.len(), 2);
        assert_eq!(o.stats(0).accesses, 1);
        assert_eq!(o.stats(1).accesses, 0);
        o.record_access(1);
        assert_eq!(o.stats(1).accesses, 1);
    }

    #[test]
    fn observer_counts_and_rates() {
        let mut o = WorkloadObserver::new(3);
        o.record_access(0);
        o.record_access(0);
        o.record_update([0, 2]);
        o.record_update([0]);
        assert_eq!(o.operations, 4);
        assert_eq!(o.stats(0).accesses, 2);
        assert_eq!(o.stats(0).conflicting_updates, 2);
        assert_eq!(o.conflict_rate(0), Some(1.0));
        assert_eq!(o.conflict_rate(1), None, "never accessed");
        assert_eq!(o.conflict_rate(2), None);
    }
}
