//! The seeded fate core of both failure injectors: the storage layer's
//! [`FaultInjector`](crate::FaultInjector) (page transfers) and
//! `procdb_shard::ChaosInjector` (replication ships, heartbeats and
//! commits). Each draws from [`FateStream`]s and counts what it injects
//! in a [`Tally`]; it keeps only its vocabulary: which fates exist, and
//! when they are drawn.

use std::sync::atomic::{AtomicU64, Ordering};

use procdb_obs::Counter;

/// A seeded xorshift64* stream: tiny, lock-free, and good enough for
/// failure schedules. Concurrent draws each take a distinct step.
#[derive(Debug)]
pub struct FateStream {
    state: AtomicU64,
}

impl FateStream {
    /// The stream for `seed`. Equal seeds replay equal draws.
    pub fn new(seed: u64) -> FateStream {
        // xorshift state must be non-zero.
        FateStream {
            state: AtomicU64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&self) -> u64 {
        let step = |x: u64| {
            let x = x ^ (x << 13);
            let x = x ^ (x >> 7);
            x ^ (x << 17)
        };
        let (Ok(prev) | Err(prev)) =
            self.state
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(step(x)));
        step(prev).wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// True with probability `p`. Certainties (`p <= 0`, `p >= 1`) draw
    /// nothing, so an inert knob never moves the stream.
    pub fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn pick(&self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The kinds of fate an injector counts, in index order: each kind's
/// `kind=` metric label and the plural noun its `status` reply counts it
/// with (`("io", "io failures")`).
pub type FateKinds<const N: usize> = [(&'static str, &'static str); N];

/// Counts of injected fates, indexed by kind, each mirrored into the
/// global registry as `metric{kind=<label>}`.
#[derive(Debug)]
pub struct Tally<const N: usize> {
    kinds: &'static FateKinds<N>,
    counts: [AtomicU64; N],
    metrics: [Counter; N],
}

impl<const N: usize> Tally<N> {
    /// A zeroed tally registering `metric` once per kind.
    pub fn new(metric: &str, kinds: &'static FateKinds<N>) -> Tally<N> {
        let reg = procdb_obs::global();
        Tally {
            kinds,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics: std::array::from_fn(|i| reg.counter(metric, &[("kind", kinds[i].0)])),
        }
    }

    /// Count one injected fate of kind `kind` (an index into the kinds).
    pub fn note(&self, kind: usize) {
        self.counts[kind].fetch_add(1, Ordering::Relaxed);
        self.metrics[kind].inc();
    }

    /// Fates of kind `kind` injected so far.
    pub fn count(&self, kind: usize) -> u64 {
        self.counts[kind].load(Ordering::Relaxed)
    }

    /// `"<count> <noun>, …"` over every kind, in declaration order.
    pub fn render(&self) -> String {
        self.kinds
            .iter()
            .enumerate()
            .map(|(i, (_, noun))| format!("{} {noun}", self.count(i)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let s = FateStream::new(seed);
            (0..256)
                .map(|i| match i % 3 {
                    0 => s.chance(0.3) as u64,
                    1 => s.pick(17),
                    _ => s.next_u64(),
                })
                .collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42), "equal seeds must replay equal draws");
        assert_ne!(a, draw(43), "distinct seeds must diverge");
        assert!(
            a.iter().step_by(3).any(|&c| c == 1),
            "0.3 over 86 draws must fire"
        );
        assert!(a.iter().skip(1).step_by(3).all(|&p| p < 17));
    }

    #[test]
    fn certainties_draw_nothing() {
        let s = FateStream::new(7);
        assert!(!s.chance(0.0) && s.chance(1.0));
        assert_eq!(s.next_u64(), FateStream::new(7).next_u64());
    }

    /// The stream is xorshift64* from `seed * φ | 1`: its first draw is
    /// pinned so every recorded seed keeps replaying its schedule.
    #[test]
    fn seeding_is_pinned() {
        assert_eq!(FateStream::new(42).next_u64(), 0x2678_03af_2da2_6c91);
    }

    #[test]
    fn tally_counts_and_renders() {
        static KINDS: FateKinds<2> = [("a", "apples"), ("b", "bananas")];
        let t = Tally::new("procdb_fate_test_total", &KINDS);
        t.note(1);
        t.note(1);
        assert_eq!((t.count(0), t.count(1)), (0, 2));
        assert_eq!(t.render(), "0 apples, 2 bananas");
    }
}
