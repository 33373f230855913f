//! Inputs are a pure function of the seed, and the key models keep the
//! invariants the correctness gate relies on.

use std::collections::BTreeSet;

use procbench::workload::{ClientGen, Op, Workload, CLIENTS, WORKLOADS};

fn stream(w: &Workload, seed: u64, client: usize, ops: usize) -> Vec<String> {
    let population = w.population(seed);
    let views = w.views();
    let mut gen = ClientGen::new(w, &population, seed, client, CLIENTS, w.proto.depth());
    (0..ops).map(|_| gen.next_op().line(&views)).collect()
}

#[test]
fn same_seed_same_inputs_different_seed_different_inputs() {
    for w in &WORKLOADS {
        assert_eq!(w.population(7), w.population(7), "{}", w.name);
        assert_ne!(w.population(7), w.population(8), "{}", w.name);
        assert_eq!(
            w.setup_lines(&w.population(7)),
            w.setup_lines(&w.population(7))
        );
        for client in 0..CLIENTS {
            let a = stream(w, 7, client, 2_000);
            assert_eq!(a, stream(w, 7, client, 2_000), "{} client {client}", w.name);
            assert_ne!(a, stream(w, 8, client, 2_000), "{} client {client}", w.name);
        }
        assert_ne!(stream(w, 7, 0, 2_000), stream(w, 7, 1, 2_000), "{}", w.name);
    }
}

#[test]
fn population_is_distinct_keys_inside_the_key_space() {
    for w in &WORKLOADS {
        let population = w.population(3);
        let keys: BTreeSet<i64> = population.iter().map(|r| r.tag).collect();
        assert_eq!(keys.len(), w.rows, "{}", w.name);
        assert!(keys.iter().all(|k| (0..w.keyspace()).contains(k)));
    }
}

#[test]
fn views_tile_the_key_space() {
    for w in &WORKLOADS {
        let views = w.views();
        assert_eq!(views.len(), 2 * w.views_per_kind);
        assert_eq!(views[0].lo, 0);
        assert_eq!(views.last().unwrap().hi, w.keyspace() - 1);
        for pair in views.windows(2) {
            assert_eq!(pair[0].hi + 1, pair[1].lo, "{}", w.name);
        }
        assert_eq!(views.iter().filter(|v| v.join).count(), w.views_per_kind);
    }
}

/// Clients own disjoint keys, and every update re-keys a key that holds a
/// tuple to one that holds none — never one an update within the last
/// `lag` operations touched, so in-flight updates cannot collide.
#[test]
fn key_models_stay_disjoint_and_updates_are_effective() {
    for w in &WORKLOADS {
        let population = w.population(11);
        let lag = w.proto.depth();
        let mut all_live = BTreeSet::new();
        for client in 0..CLIENTS {
            let mut gen = ClientGen::new(w, &population, 11, client, CLIENTS, lag);
            let (live, free) = gen.key_sets();
            let mut live: BTreeSet<i64> = live.into_iter().collect();
            let mut free: BTreeSet<i64> = free.into_iter().collect();
            assert!(live
                .iter()
                .chain(&free)
                .all(|k| *k as usize % CLIENTS == client));
            assert!(live.is_disjoint(&free));
            let mut recent: Vec<(usize, i64)> = Vec::new();
            for seq in 0..5_000 {
                if let Op::Update { victim, new_key } = gen.next_op() {
                    assert!(live.remove(&victim), "{}: {victim} held no tuple", w.name);
                    assert!(free.remove(&new_key), "{}: {new_key} was not free", w.name);
                    live.insert(new_key);
                    free.insert(victim);
                    recent.retain(|(at, _)| seq - at < lag);
                    assert!(
                        recent.iter().all(|(_, k)| *k != victim && *k != new_key),
                        "{}: key reused within {lag} operations",
                        w.name
                    );
                    recent.push((seq, victim));
                    recent.push((seq, new_key));
                }
            }
            let (model_live, model_free) = gen.key_sets();
            assert_eq!(model_live, live.iter().copied().collect::<Vec<_>>());
            assert_eq!(model_free, free.iter().copied().collect::<Vec<_>>());
            assert_eq!(gen.tuples().count(), live.len());
            assert!(
                all_live.is_disjoint(&live),
                "{}: clients share a key",
                w.name
            );
            all_live.extend(live);
        }
        assert_eq!(
            all_live.len(),
            w.rows,
            "{}: tuples lost or invented",
            w.name
        );
    }
}

#[test]
fn update_share_matches_the_workload() {
    for w in &WORKLOADS {
        let population = w.population(5);
        let mut gen = ClientGen::new(w, &population, 5, 0, CLIENTS, 1);
        let updates = (0..20_000)
            .filter(|_| matches!(gen.next_op(), Op::Update { .. }))
            .count();
        let share = updates as f64 / 20_000.0;
        assert!((share - w.p_update).abs() < 0.02, "{}: {share}", w.name);
    }
}
