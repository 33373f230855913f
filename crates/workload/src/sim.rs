//! The simulation runner: execute an operation stream against the engine
//! under each strategy and price the observed work with the paper's cost
//! constants.
//!
//! The pager runs in *physical* accounting mode and the engine clears the
//! buffer pool between operations, so each operation is charged for the
//! distinct pages it touches — the same semantics the analytical model's
//! Yao terms assume.

use std::sync::Arc;

use procdb_core::{Engine, EngineOptions, StrategyKind};
use procdb_costmodel::{cost, Model, Strategy};
use procdb_storage::{AccountingMode, CostConstants, CostSnapshot, Pager, PagerConfig, Result};

use crate::config::SimConfig;
use crate::database::{build_database, r1};
use crate::procedures::generate_procedures;
use crate::stream::{generate_stream, Op, StreamSpec};

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Strategy simulated.
    pub strategy: StrategyKind,
    /// Procedure accesses executed.
    pub accesses: u64,
    /// Update transactions executed.
    pub updates: u64,
    /// Raw work counters accumulated over the measured stream.
    pub work: CostSnapshot,
    /// Total priced cost (ms) of the measured stream.
    pub total_ms: f64,
    /// Priced cost per procedure access (the paper's y-axis).
    pub per_access_ms: f64,
    /// Accesses whose result was verified against a fresh recompute.
    pub verified: u64,
    /// Verified accesses that disagreed (always 0 for a correct engine).
    pub mismatches: u64,
}

/// Build a pager suitable for simulation (physical accounting + a buffer
/// comfortably larger than any single operation's working set).
pub fn sim_pager(c: &SimConfig) -> Arc<Pager> {
    Pager::new(PagerConfig {
        page_size: c.page_size,
        buffer_capacity: 16 * 1024,
        mode: AccountingMode::Physical,
    })
}

/// Run one strategy over the stream described by `spec`.
///
/// `verify_every`: if `Some(k)`, every `k`-th access is checked against an
/// uncharged fresh recompute (correctness audit inside the benchmark).
pub fn run_strategy(
    c: &SimConfig,
    spec: &StreamSpec,
    kind: StrategyKind,
    constants: &CostConstants,
    verify_every: Option<usize>,
) -> Result<SimOutcome> {
    run_strategy_with_buffer(c, spec, kind, constants, verify_every, 16 * 1024, true)
}

/// [`run_strategy`] with explicit buffer-pool behavior: `buffer_capacity`
/// frames, and whether frames are dropped between operations. With
/// `clear_between_ops = false` the run models a DBMS with a persistent
/// buffer pool — cross-operation hits are free, which the analytical
/// model never credits (ablation `A3`).
#[allow(clippy::too_many_arguments)]
pub fn run_strategy_with_buffer(
    c: &SimConfig,
    spec: &StreamSpec,
    kind: StrategyKind,
    constants: &CostConstants,
    verify_every: Option<usize>,
    buffer_capacity: usize,
    clear_between_ops: bool,
) -> Result<SimOutcome> {
    let pager = Pager::new(PagerConfig {
        page_size: c.page_size,
        buffer_capacity,
        mode: AccountingMode::Physical,
    });
    let catalog = build_database(pager.clone(), c)?;
    let pop = generate_procedures(c);
    let n_procs = pop.procs.len();
    let mut engine = Engine::new(
        pager.clone(),
        catalog,
        pop.procs,
        kind,
        EngineOptions {
            r1: "R1".to_string(),
            r1_key_field: r1::SKEY,
            rvm_base_probe_field: r1::A,
            rvm_update_frequencies: None,
            clear_buffer_between_ops: clear_between_ops,
            shard: None,
        },
    )?;
    engine.warm_up()?;
    let stream = generate_stream(spec, n_procs, c.n as i64);
    pager.ledger().reset();

    let mut accesses = 0u64;
    let mut updates = 0u64;
    let mut verified = 0u64;
    let mut mismatches = 0u64;
    for op in &stream {
        match op {
            Op::Access(i) => {
                let rows = engine.access(*i)?;
                if let Some(k) = verify_every {
                    if accesses.is_multiple_of(k as u64) {
                        let expect = engine.expected_rows(*i)?;
                        verified += 1;
                        if rows.normalized() != expect.normalized() {
                            mismatches += 1;
                        }
                    }
                }
                accesses += 1;
            }
            Op::Update(mods) => {
                engine.apply_update(mods)?;
                updates += 1;
            }
        }
    }
    let work = pager.ledger().snapshot();
    let total_ms = work.priced(constants);
    Ok(SimOutcome {
        strategy: kind,
        accesses,
        updates,
        work,
        total_ms,
        per_access_ms: if accesses > 0 {
            total_ms / accesses as f64
        } else {
            f64::NAN
        },
        verified,
        mismatches,
    })
}

/// Run every strategy over the same (seeded, identical) stream.
pub fn run_all_strategies(
    c: &SimConfig,
    spec: &StreamSpec,
    constants: &CostConstants,
    verify_every: Option<usize>,
) -> Result<Vec<SimOutcome>> {
    StrategyKind::ALL
        .iter()
        .map(|&k| run_strategy(c, spec, k, constants, verify_every))
        .collect()
}

/// [`run_all_strategies`], with the four (fully independent) runs executed
/// on parallel threads. Deterministic: each run builds its own seeded
/// database and stream, so results are identical to the serial version.
pub fn run_all_strategies_parallel(
    c: &SimConfig,
    spec: &StreamSpec,
    constants: &CostConstants,
    verify_every: Option<usize>,
) -> Result<Vec<SimOutcome>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = StrategyKind::ALL
            .iter()
            .map(|&k| scope.spawn(move || run_strategy(c, spec, k, constants, verify_every)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation thread panicked"))
            .collect()
    })
}

/// The analytical model's prediction for the same configuration, priced
/// per access, in [`StrategyKind::ALL`] order.
pub fn analytic_prediction(c: &SimConfig, spec: &StreamSpec) -> [f64; 4] {
    let model = if c.joins >= 2 { Model::Two } else { Model::One };
    let mut params = c.to_params();
    params.l = spec.l as f64;
    params.z = spec.z;
    let params = params.with_update_probability(spec.p_update.min(0.999));
    [
        cost(model, Strategy::AlwaysRecompute, &params),
        cost(model, Strategy::CacheInvalidate, &params),
        cost(model, Strategy::UpdateCacheAvm, &params),
        cost(model, Strategy::UpdateCacheRvm, &params),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        let mut c = SimConfig::default().scaled_down(100); // N = 1000
        c.n1 = 4;
        c.n2 = 4;
        c.f = 0.01; // 10-tuple objects
        c.l = 5;
        c.seed = 11;
        c
    }

    fn spec(p: f64, ops: usize) -> StreamSpec {
        StreamSpec {
            p_update: p,
            l: 5,
            z: 0.2,
            ops,
            seed: 99,
        }
    }

    #[test]
    fn all_strategies_give_correct_answers() {
        let c = tiny();
        let outcomes =
            run_all_strategies(&c, &spec(0.5, 60), &CostConstants::default(), Some(1)).unwrap();
        for o in &outcomes {
            assert!(o.verified > 0, "{:?} verified nothing", o.strategy);
            assert_eq!(o.mismatches, 0, "{:?} served wrong answers", o.strategy);
        }
    }

    #[test]
    fn caching_beats_recompute_at_low_update_rate() {
        let c = tiny();
        let outcomes =
            run_all_strategies(&c, &spec(0.1, 120), &CostConstants::default(), None).unwrap();
        let ar = outcomes[0].per_access_ms;
        let avm = outcomes[2].per_access_ms;
        assert!(
            avm < ar,
            "UpdateCache (AVM) {avm} should beat AlwaysRecompute {ar} at P=0.1"
        );
    }

    #[test]
    fn recompute_cost_insensitive_to_update_rate() {
        let c = tiny();
        let lo = run_strategy(
            &c,
            &spec(0.1, 120),
            StrategyKind::AlwaysRecompute,
            &CostConstants::default(),
            None,
        )
        .unwrap();
        let hi = run_strategy(
            &c,
            &spec(0.8, 120),
            StrategyKind::AlwaysRecompute,
            &CostConstants::default(),
            None,
        )
        .unwrap();
        let rel = (lo.per_access_ms - hi.per_access_ms).abs() / lo.per_access_ms;
        assert!(rel < 0.35, "AR cost moved too much: {lo:?} vs {hi:?}");
    }

    #[test]
    fn update_cache_cost_rises_with_update_rate() {
        let c = tiny();
        let lo = run_strategy(
            &c,
            &spec(0.1, 120),
            StrategyKind::UpdateCacheAvm,
            &CostConstants::default(),
            None,
        )
        .unwrap();
        let hi = run_strategy(
            &c,
            &spec(0.8, 120),
            StrategyKind::UpdateCacheAvm,
            &CostConstants::default(),
            None,
        )
        .unwrap();
        assert!(
            hi.per_access_ms > lo.per_access_ms,
            "lo = {}, hi = {}",
            lo.per_access_ms,
            hi.per_access_ms
        );
    }

    #[test]
    fn parallel_runs_match_serial() {
        let c = tiny();
        let s = spec(0.4, 40);
        let constants = CostConstants::default();
        let serial = run_all_strategies(&c, &s, &constants, None).unwrap();
        let parallel = run_all_strategies_parallel(&c, &s, &constants, None).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn analytic_prediction_is_finite() {
        let c = tiny();
        let pred = analytic_prediction(&c, &spec(0.5, 10));
        assert!(pred.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn outcome_accounting_consistent() {
        let c = tiny();
        let o = run_strategy(
            &c,
            &spec(0.5, 60),
            StrategyKind::CacheInvalidate,
            &CostConstants::default(),
            None,
        )
        .unwrap();
        assert_eq!(o.accesses + o.updates, 60);
        assert!(o.total_ms > 0.0);
        assert!((o.per_access_ms - o.total_ms / o.accesses as f64).abs() < 1e-9);
    }
}
