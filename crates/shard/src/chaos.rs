//! Seeded **message chaos** on the replication paths.
//!
//! Where [`procdb_storage::FaultPlan`] breaks the storage substrate,
//! a [`ChaosPlan`] breaks the *network* the replica groups pretend to
//! have: each ship — a notification that the shard log holds a new op —
//! from a primary to a follower can be delayed (a slow link), dropped
//! (a dead link — the follower is declared down at an exact op boundary
//! and must resync), duplicated (a retransmit, whose advance finds
//! nothing left to apply), or held (withheld this time; the next
//! notification or a promotion advances the follower past the op).
//! Supervisor heartbeats can be delayed too, widening the
//! window in which a dead primary keeps its role — the window epoch
//! fencing exists to contain. A `fence` probability springs exactly
//! that trap on demand: the primary observes the promotion only after
//! deciding to commit, takes the typed `FENCED` rejection, and demotes
//! itself into resync.
//!
//! Everything is driven by one seeded xorshift64* stream, so a chaos
//! schedule replays deterministically for a given plan; decisions and
//! their counts are exported as `procdb_chaos_injected_total{kind=}`.
//!
//! [`procdb_storage::FaultPlan`]: procdb_storage::FaultPlan

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use procdb_obs::Counter;

/// A seeded plan of message-level failures for the replication layer.
///
/// Probabilities are per shipped delta (or per supervisor heartbeat for
/// `heartbeat_delay_prob`, per commit attempt for `fence_prob`); all
/// default to 0, so `ChaosPlan::new(seed)` is inert until a knob is
/// raised.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// RNG seed; equal seeds replay equal chaos schedules.
    pub seed: u64,
    /// Probability a ship is delayed by a uniform draw from the window.
    pub delay_prob: f64,
    /// `[min, max]` delivery delay in milliseconds.
    pub delay_ms: (u64, u64),
    /// Probability a ship is dropped outright (the follower is marked
    /// down at an exact op boundary and must catch up by resync).
    pub drop_prob: f64,
    /// Probability a ship is notified twice (the repeat finds the
    /// follower already at the op's LSN and applies nothing).
    pub dup_prob: f64,
    /// Probability a ship's notification is withheld (a later
    /// notification advances the follower past the op).
    pub reorder_prob: f64,
    /// Probability one supervisor heartbeat is delayed (that slot's
    /// liveness check is skipped for the tick).
    pub heartbeat_delay_prob: f64,
    /// Probability a commit attempt observes a promotion that raced it:
    /// the freshest live follower is promoted (a real epoch bump) and
    /// the attempt is rejected with the typed `FENCED` error.
    pub fence_prob: f64,
}

impl ChaosPlan {
    /// An inert plan (every probability 0) with the given seed.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            delay_prob: 0.0,
            delay_ms: (1, 5),
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            heartbeat_delay_prob: 0.0,
            fence_prob: 0.0,
        }
    }

    /// Delay ships with probability `p`.
    pub fn delays(mut self, p: f64) -> ChaosPlan {
        self.delay_prob = p;
        self
    }

    /// Set the delivery-delay window (milliseconds, inclusive).
    pub fn delay_window_ms(mut self, min: u64, max: u64) -> ChaosPlan {
        self.delay_ms = (min.min(max), max.max(min));
        self
    }

    /// Drop ships with probability `p`.
    pub fn drops(mut self, p: f64) -> ChaosPlan {
        self.drop_prob = p;
        self
    }

    /// Duplicate ships with probability `p`.
    pub fn duplicates(mut self, p: f64) -> ChaosPlan {
        self.dup_prob = p;
        self
    }

    /// Hold ships for reordering with probability `p`.
    pub fn reorders(mut self, p: f64) -> ChaosPlan {
        self.reorder_prob = p;
        self
    }

    /// Delay supervisor heartbeats with probability `p`.
    pub fn heartbeat_delays(mut self, p: f64) -> ChaosPlan {
        self.heartbeat_delay_prob = p;
        self
    }

    /// Spring the fencing trap on commit attempts with probability `p`.
    pub fn fences(mut self, p: f64) -> ChaosPlan {
        self.fence_prob = p;
        self
    }

    /// Is every knob at zero?
    pub fn is_inert(&self) -> bool {
        self.delay_prob == 0.0
            && self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.heartbeat_delay_prob == 0.0
            && self.fence_prob == 0.0
    }

    /// One-line rendering for command responses.
    pub fn describe(&self) -> String {
        format!(
            "chaos plan: seed {}, delay {} ({}..{}ms), drop {}, dup {}, reorder {}, \
             heartbeat {}, fence {}",
            self.seed,
            self.delay_prob,
            self.delay_ms.0,
            self.delay_ms.1,
            self.drop_prob,
            self.dup_prob,
            self.reorder_prob,
            self.heartbeat_delay_prob,
            self.fence_prob,
        )
    }
}

/// What chaos decided for one shipped delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipFate {
    /// Sleep this long before notifying.
    pub delay: Option<Duration>,
    /// Do not notify at all; the follower link is dead.
    pub drop: bool,
    /// Notify the follower twice.
    pub duplicate: bool,
    /// Do not notify the follower this time; a later notification (or
    /// a promotion) advances it past the op.
    pub hold: bool,
}

impl ShipFate {
    /// The fate of every ship when no chaos is installed.
    pub const CLEAN: ShipFate = ShipFate {
        delay: None,
        drop: false,
        duplicate: false,
        hold: false,
    };
}

/// Counter snapshot for `chaos status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosStatus {
    /// Ships delayed.
    pub delayed: u64,
    /// Ships dropped (follower marked down).
    pub dropped: u64,
    /// Ships notified twice.
    pub duplicated: u64,
    /// Ships whose notification was withheld.
    pub reordered: u64,
    /// Supervisor heartbeats delayed.
    pub heartbeats_delayed: u64,
    /// Commit attempts fenced by a sprung promotion.
    pub fenced: u64,
}

/// The live injector: a [`ChaosPlan`] plus its seeded RNG stream and
/// decision counters. Installed on a `ShardedEngine`; consulted on
/// every delta ship, supervisor tick, and commit attempt.
#[derive(Debug)]
pub struct ChaosInjector {
    plan: ChaosPlan,
    rng: Mutex<u64>,
    delayed: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    heartbeats_delayed: AtomicU64,
    fenced: AtomicU64,
    m_delay: Counter,
    m_drop: Counter,
    m_dup: Counter,
    m_reorder: Counter,
    m_heartbeat: Counter,
    m_fence: Counter,
}

impl ChaosInjector {
    /// Seed the RNG stream from the plan and register the metrics.
    pub fn new(plan: ChaosPlan) -> Arc<ChaosInjector> {
        let reg = procdb_obs::global();
        let m = |kind: &str| reg.counter("procdb_chaos_injected_total", &[("kind", kind)]);
        Arc::new(ChaosInjector {
            rng: Mutex::new(plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            plan,
            delayed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            heartbeats_delayed: AtomicU64::new(0),
            fenced: AtomicU64::new(0),
            m_delay: m("delay"),
            m_drop: m("drop"),
            m_dup: m("duplicate"),
            m_reorder: m("reorder"),
            m_heartbeat: m("heartbeat_delay"),
            m_fence: m("fence"),
        })
    }

    /// The installed plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// xorshift64* — one shared stream so a schedule replays per seed.
    fn next_u64(&self) -> u64 {
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Decide the fate of one ship to one follower. Drop wins over the
    /// other effects (a dead link neither delays nor duplicates).
    pub fn decide_ship(&self) -> ShipFate {
        if self.chance(self.plan.drop_prob) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.m_drop.inc();
            return ShipFate {
                drop: true,
                ..ShipFate::CLEAN
            };
        }
        let delay = self.chance(self.plan.delay_prob).then(|| {
            let (lo, hi) = self.plan.delay_ms;
            let span = hi.saturating_sub(lo) + 1;
            self.delayed.fetch_add(1, Ordering::Relaxed);
            self.m_delay.inc();
            Duration::from_millis(lo + self.next_u64() % span)
        });
        let duplicate = self.chance(self.plan.dup_prob);
        if duplicate {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            self.m_dup.inc();
        }
        let hold = self.chance(self.plan.reorder_prob);
        if hold {
            self.reordered.fetch_add(1, Ordering::Relaxed);
            self.m_reorder.inc();
        }
        ShipFate {
            delay,
            drop: false,
            duplicate,
            hold,
        }
    }

    /// Should this supervisor tick's liveness check be skipped?
    pub fn heartbeat_delayed(&self) -> bool {
        let fire = self.chance(self.plan.heartbeat_delay_prob);
        if fire {
            self.heartbeats_delayed.fetch_add(1, Ordering::Relaxed);
            self.m_heartbeat.inc();
        }
        fire
    }

    /// Should this commit attempt be fenced by a sprung promotion?
    /// (The caller only springs the trap when a live follower exists.)
    pub fn fence_fires(&self) -> bool {
        self.chance(self.plan.fence_prob)
    }

    /// Record that a fence actually sprang (a follower was promoted and
    /// the commit was rejected).
    pub fn note_fenced(&self) {
        self.fenced.fetch_add(1, Ordering::Relaxed);
        self.m_fence.inc();
    }

    /// Current decision counts.
    pub fn status(&self) -> ChaosStatus {
        ChaosStatus {
            delayed: self.delayed.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            heartbeats_delayed: self.heartbeats_delayed.load(Ordering::Relaxed),
            fenced: self.fenced.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let inj = ChaosInjector::new(ChaosPlan::new(7));
        for _ in 0..200 {
            assert_eq!(inj.decide_ship(), ShipFate::CLEAN);
            assert!(!inj.heartbeat_delayed());
            assert!(!inj.fence_fires());
        }
        let st = inj.status();
        assert_eq!(
            (st.delayed, st.dropped, st.duplicated, st.reordered),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn certainties_fire_and_drop_wins() {
        let inj = ChaosInjector::new(ChaosPlan::new(7).drops(1.0).duplicates(1.0));
        let fate = inj.decide_ship();
        assert!(fate.drop);
        assert!(!fate.duplicate, "a dropped ship cannot also duplicate");
        let inj = ChaosInjector::new(
            ChaosPlan::new(7)
                .delays(1.0)
                .delay_window_ms(2, 4)
                .duplicates(1.0)
                .reorders(1.0),
        );
        let fate = inj.decide_ship();
        let d = fate.delay.expect("certain delay");
        assert!((2..=4).contains(&d.as_millis()), "{d:?} outside window");
        assert!(fate.duplicate && fate.hold);
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let plan = ChaosPlan::new(42)
            .delays(0.3)
            .drops(0.1)
            .duplicates(0.2)
            .reorders(0.2)
            .delay_window_ms(1, 8);
        let a: Vec<ShipFate> = {
            let inj = ChaosInjector::new(plan.clone());
            (0..64).map(|_| inj.decide_ship()).collect()
        };
        let b: Vec<ShipFate> = {
            let inj = ChaosInjector::new(plan.clone());
            (0..64).map(|_| inj.decide_ship()).collect()
        };
        assert_eq!(a, b, "equal seeds must replay equal chaos");
        let mut reseeded = plan.clone();
        reseeded.seed = 43;
        let c: Vec<ShipFate> = {
            let inj = ChaosInjector::new(reseeded);
            (0..64).map(|_| inj.decide_ship()).collect()
        };
        assert_ne!(a, c, "distinct seeds must diverge");
        assert!(
            a.iter().any(|f| f.drop) && a.iter().any(|f| f.duplicate),
            "probabilistic knobs must actually fire over 64 draws: {a:?}"
        );
    }

    #[test]
    fn describe_and_inert() {
        assert!(ChaosPlan::new(1).is_inert());
        let p = ChaosPlan::new(9).drops(0.5);
        assert!(!p.is_inert());
        assert!(p.describe().contains("seed 9"), "{}", p.describe());
        assert!(p.describe().contains("drop 0.5"), "{}", p.describe());
    }
}
