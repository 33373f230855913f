//! Operation streams: interleaved procedure accesses and update
//! transactions with the paper's `P` update probability and `Z` locality
//! skew.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One workload operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read the full value of this procedure (by index).
    Access(usize),
    /// One update transaction: `(victim_key, new_key)` in-place key
    /// modifications of `R1`.
    Update(Vec<(i64, i64)>),
}

/// Stream generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Probability an operation is an update (`P = k/(k+q)`).
    pub p_update: f64,
    /// Tuples modified per update transaction (`l`).
    pub l: usize,
    /// Locality skew (`Z`): a fraction `Z` of procedures draws a fraction
    /// `1 − Z` of accesses.
    pub z: f64,
    /// Total operations to generate.
    pub ops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            p_update: 0.5,
            l: 25,
            z: 0.2,
            ops: 200,
            seed: 1,
        }
    }
}

/// Pick a procedure index under the `Z` skew: the first `⌈z·n⌉`
/// procedures are "hot" and receive a fraction `1 − z` of accesses.
pub fn pick_procedure(rng: &mut StdRng, n_procs: usize, z: f64) -> usize {
    assert!(n_procs > 0);
    let hot = ((n_procs as f64 * z).ceil() as usize).clamp(1, n_procs);
    if hot == n_procs {
        return rng.gen_range(0..n_procs);
    }
    if rng.gen_bool(1.0 - z) {
        rng.gen_range(0..hot)
    } else {
        rng.gen_range(hot..n_procs)
    }
}

/// Generate an operation stream over `n_procs` procedures and an `R1` key
/// space of `[0, key_space)`.
pub fn generate_stream(spec: &StreamSpec, n_procs: usize, key_space: i64) -> Vec<Op> {
    assert!(key_space > 0);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut out = Vec::with_capacity(spec.ops);
    for _ in 0..spec.ops {
        if n_procs == 0 || rng.gen_bool(spec.p_update) {
            let mods = (0..spec.l)
                .map(|_| (rng.gen_range(0..key_space), rng.gen_range(0..key_space)))
                .collect();
            out.push(Op::Update(mods));
        } else {
            out.push(Op::Access(pick_procedure(&mut rng, n_procs, spec.z)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_fraction_tracks_p() {
        let spec = StreamSpec {
            p_update: 0.3,
            ops: 5000,
            ..StreamSpec::default()
        };
        let stream = generate_stream(&spec, 10, 1000);
        let updates = stream.iter().filter(|o| matches!(o, Op::Update(_))).count();
        let frac = updates as f64 / stream.len() as f64;
        assert!((frac - 0.3).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn updates_modify_l_tuples() {
        let spec = StreamSpec {
            p_update: 1.0,
            l: 7,
            ops: 10,
            ..StreamSpec::default()
        };
        for op in generate_stream(&spec, 5, 100) {
            let Op::Update(mods) = op else { panic!() };
            assert_eq!(mods.len(), 7);
            assert!(mods
                .iter()
                .all(|&(a, b)| (0..100).contains(&a) && (0..100).contains(&b)));
        }
    }

    #[test]
    fn locality_skews_accesses() {
        let spec = StreamSpec {
            p_update: 0.0,
            z: 0.2,
            ops: 10_000,
            ..StreamSpec::default()
        };
        let stream = generate_stream(&spec, 100, 1000);
        let hot = stream
            .iter()
            .filter(|o| matches!(o, Op::Access(i) if *i < 20))
            .count();
        let frac = hot as f64 / stream.len() as f64;
        // 20% of procedures should get ~80% of accesses.
        assert!((frac - 0.8).abs() < 0.05, "hot fraction = {frac}");
    }

    #[test]
    fn uniform_when_z_covers_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        // One procedure: always index 0.
        for _ in 0..10 {
            assert_eq!(pick_procedure(&mut rng, 1, 0.2), 0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = StreamSpec::default();
        assert_eq!(
            generate_stream(&spec, 10, 100),
            generate_stream(&spec, 10, 100)
        );
    }

    #[test]
    fn pure_update_stream_when_no_procs() {
        let spec = StreamSpec {
            p_update: 0.0,
            ops: 5,
            ..StreamSpec::default()
        };
        let stream = generate_stream(&spec, 0, 100);
        assert!(stream.iter().all(|o| matches!(o, Op::Update(_))));
    }
}
