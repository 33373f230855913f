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
//! This is the replication vocabulary over the storage layer's fate
//! core ([`procdb_storage::fate`]). Ship and fence fates come from one
//! seeded stream, drawn in operation order, so a chaos schedule replays
//! deterministically for a given plan. Heartbeat fates come from a
//! second stream derived from the same seed: the supervisor draws them
//! at wall-clock times, and they must not shift the ship schedule.
//! Decisions are counted in a tally exported as
//! `procdb_chaos_injected_total{kind=}`.

use std::sync::Arc;
use std::time::Duration;

use procdb_storage::{FateKinds, FateStream, Tally};

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

/// The fates a [`ChaosInjector`] counts, as indices into its tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Ships delayed.
    Delay,
    /// Ships dropped (follower marked down).
    Drop,
    /// Ships notified twice.
    Duplicate,
    /// Ships whose notification was withheld.
    Reorder,
    /// Supervisor heartbeats delayed.
    HeartbeatDelay,
    /// Commit attempts fenced by a sprung promotion.
    Fence,
}

static CHAOS_KINDS: FateKinds<6> = [
    ("delay", "delayed"),
    ("drop", "dropped"),
    ("duplicate", "duplicated"),
    ("reorder", "reordered"),
    ("heartbeat_delay", "heartbeats delayed"),
    ("fence", "fenced"),
];

/// Mixed into the seed of the heartbeat stream, so the supervisor's
/// wall-clock draws never shift the ship and fence schedule.
const HEARTBEAT_STREAM: u64 = 0x6865_6172_7462_6561;

/// The live injector: a [`ChaosPlan`] plus its seeded fate streams and
/// tally. Installed on a `ShardedEngine`; consulted on every delta
/// ship, supervisor tick, and commit attempt.
#[derive(Debug)]
pub struct ChaosInjector {
    plan: ChaosPlan,
    /// Ship and fence fates, drawn in operation order.
    stream: FateStream,
    /// Heartbeat fates, drawn by the supervisor on its own clock.
    heartbeats: FateStream,
    tally: Tally<6>,
}

impl ChaosInjector {
    /// Seed the fate streams from the plan and register the metrics.
    pub fn new(plan: ChaosPlan) -> Arc<ChaosInjector> {
        Arc::new(ChaosInjector {
            stream: FateStream::new(plan.seed),
            heartbeats: FateStream::new(plan.seed ^ HEARTBEAT_STREAM),
            tally: Tally::new("procdb_chaos_injected_total", &CHAOS_KINDS),
            plan,
        })
    }

    /// The installed plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Decisions of `kind` made so far.
    pub fn count(&self, kind: ChaosKind) -> u64 {
        self.tally.count(kind as usize)
    }

    /// The decision counts, as `chaos status` and `chaos off` report them.
    pub fn tallies(&self) -> String {
        self.tally.render()
    }

    /// Count a fate of `kind` if `fire`; returns `fire`.
    fn noted(&self, kind: ChaosKind, fire: bool) -> bool {
        if fire {
            self.tally.note(kind as usize);
        }
        fire
    }

    /// Decide the fate of one ship to one follower. Drop wins over the
    /// other effects (a dead link neither delays nor duplicates).
    pub fn decide_ship(&self) -> ShipFate {
        let chance = |kind, p| self.noted(kind, self.stream.chance(p));
        if chance(ChaosKind::Drop, self.plan.drop_prob) {
            return ShipFate {
                drop: true,
                ..ShipFate::CLEAN
            };
        }
        let delay = chance(ChaosKind::Delay, self.plan.delay_prob).then(|| {
            let (lo, hi) = self.plan.delay_ms;
            Duration::from_millis(lo + self.stream.pick(hi.saturating_sub(lo).saturating_add(1)))
        });
        ShipFate {
            delay,
            drop: false,
            duplicate: chance(ChaosKind::Duplicate, self.plan.dup_prob),
            hold: chance(ChaosKind::Reorder, self.plan.reorder_prob),
        }
    }

    /// Should this supervisor tick's liveness check be skipped?
    pub fn heartbeat_delayed(&self) -> bool {
        let fire = self.heartbeats.chance(self.plan.heartbeat_delay_prob);
        self.noted(ChaosKind::HeartbeatDelay, fire)
    }

    /// Should this commit attempt be fenced by a sprung promotion?
    /// (The caller only springs the trap when a live follower exists.)
    pub fn fence_fires(&self) -> bool {
        self.stream.chance(self.plan.fence_prob)
    }

    /// Record that a fence actually sprang (a follower was promoted and
    /// the commit was rejected).
    pub fn note_fenced(&self) {
        self.noted(ChaosKind::Fence, true);
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
        assert_eq!(
            inj.tallies(),
            "0 delayed, 0 dropped, 0 duplicated, 0 reordered, 0 heartbeats delayed, 0 fenced"
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

    /// The supervisor draws heartbeat fates at wall-clock times, so they
    /// must not shift the ship schedule: any number of heartbeat draws
    /// between ships leaves every ship fate as it was without them.
    #[test]
    fn heartbeat_draws_leave_ship_fates_alone() {
        let plan = ChaosPlan::new(5)
            .delays(0.5)
            .drops(0.3)
            .duplicates(0.4)
            .reorders(0.4)
            .heartbeat_delays(0.5);
        let quiet = ChaosInjector::new(plan.clone());
        let expected: Vec<ShipFate> = (0..64).map(|_| quiet.decide_ship()).collect();
        let noisy = ChaosInjector::new(plan);
        let got: Vec<ShipFate> = (0..64)
            .map(|i| {
                for _ in 0..i % 5 {
                    noisy.heartbeat_delayed();
                }
                noisy.decide_ship()
            })
            .collect();
        assert_eq!(got, expected, "heartbeat draws shifted the ship schedule");
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let plan = ChaosPlan::new(42)
            .delays(0.3)
            .drops(0.1)
            .duplicates(0.2)
            .reorders(0.2)
            .delay_window_ms(1, 8);
        let ships = |plan: ChaosPlan| -> Vec<ShipFate> {
            let inj = ChaosInjector::new(plan);
            (0..64).map(|_| inj.decide_ship()).collect()
        };
        let a = ships(plan.clone());
        assert_eq!(
            a,
            ships(plan.clone()),
            "equal seeds must replay equal chaos"
        );
        let mut reseeded = plan;
        reseeded.seed = 43;
        assert_ne!(a, ships(reseeded), "distinct seeds must diverge");
        assert!(
            a.iter().any(|f| f.drop) && a.iter().any(|f| f.duplicate),
            "probabilistic knobs must actually fire over 64 draws: {a:?}"
        );
    }

    #[test]
    fn describe_and_inert() {
        let p = ChaosPlan::new(9).drops(0.5);
        assert!(p.describe().contains("seed 9"), "{}", p.describe());
        assert!(p.describe().contains("drop 0.5"), "{}", p.describe());
    }
}
