//! Deterministic fault injection for the storage layer.
//!
//! A [`FaultPlan`] is a seeded schedule of misfortune: probabilistic I/O
//! failures, torn (partially applied) page writes, a deterministic
//! always-fail window, and a numbered **kill-point** that simulates a
//! process crash mid-operation. The [`Pager`](crate::Pager) consults the
//! installed [`FaultInjector`] on every disk transfer, so every byte that
//! would move between the buffer pool and the "device" is a candidate
//! casualty.
//!
//! By default (`charged_only = true`) faults strike only *charged*
//! transfers — the strategy-maintenance and query-read traffic the paper's
//! cost model prices. Uncharged work (bulk-loading base data, oracle
//! recomputation in tests) runs on the assumption of conventional base-table
//! durability, mirroring the paper's §3 framing: the interesting reliability
//! question is what happens to *derived* state (validity table, cached
//! results, Rete memories), not to the base relations' own WAL.
//!
//! The injector is the storage vocabulary over the [`fate`](crate::fate)
//! core: the same plan against the same workload faults the same transfers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::fate::{FateKinds, FateStream, Tally};

/// Which direction a disk transfer moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Disk → buffer pool (a buffer fault).
    Read,
    /// Buffer pool → disk (eviction write-back or flush).
    Write,
}

/// The injector's verdict for one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Let the transfer through.
    Proceed,
    /// Fail with [`StorageError::Io`](crate::StorageError::Io); the payload
    /// is the transfer number.
    Fail(u64),
    /// Partially apply the write to disk, then fail (writes only).
    Torn(u64),
    /// Kill-point: a simulated process crash starts here (or is already in
    /// effect). Every transfer fails until recovery clears the latch.
    Kill,
}

/// A seeded schedule of injected storage faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the whole schedule is a pure function of this and the
    /// transfer sequence.
    pub seed: u64,
    /// Probability an eligible read transfer fails with `Io`.
    pub io_read_prob: f64,
    /// Probability an eligible write transfer fails with `Io`.
    pub io_write_prob: f64,
    /// Probability an eligible write is torn: a prefix of the new bytes
    /// lands on disk, the rest of the old page survives, and the write
    /// reports failure.
    pub torn_write_prob: f64,
    /// Kill-point: at the Nth eligible transfer (1-based), latch a
    /// simulated crash. All later transfers fail until recovery clears
    /// the latch; the kill-point itself is one-shot.
    pub kill_after: Option<u64>,
    /// Deterministic 100%-failure window `[start, end)` in eligible
    /// transfer numbers (1-based).
    pub fail_window: Option<(u64, u64)>,
    /// When true (the default), only charged transfers are eligible —
    /// uncharged bulk loads and oracle recomputation are immune.
    pub charged_only: bool,
}

impl FaultPlan {
    /// A plan that injects nothing yet (all probabilities zero).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            io_read_prob: 0.0,
            io_write_prob: 0.0,
            torn_write_prob: 0.0,
            kill_after: None,
            fail_window: None,
            charged_only: true,
        }
    }

    /// Set the probability of injected read failures.
    pub fn io_reads(mut self, p: f64) -> FaultPlan {
        self.io_read_prob = p;
        self
    }

    /// Set the probability of injected write failures.
    pub fn io_writes(mut self, p: f64) -> FaultPlan {
        self.io_write_prob = p;
        self
    }

    /// Set the probability of torn writes.
    pub fn torn_writes(mut self, p: f64) -> FaultPlan {
        self.torn_write_prob = p;
        self
    }

    /// Latch a simulated crash at the `n`th eligible transfer (1-based).
    pub fn kill_at(mut self, n: u64) -> FaultPlan {
        self.kill_after = Some(n);
        self
    }

    /// Fail every eligible transfer in `[start, end)` (1-based numbers).
    pub fn fail_window(mut self, start: u64, end: u64) -> FaultPlan {
        self.fail_window = Some((start, end));
        self
    }

    /// Make uncharged transfers eligible too (default: charged only).
    pub fn include_uncharged(mut self) -> FaultPlan {
        self.charged_only = false;
        self
    }

    /// The knobs, as `fault inject` echoes them and `fault status`
    /// reports them.
    pub fn describe(&self) -> String {
        let (seed, r, w, t) = (
            self.seed,
            self.io_read_prob,
            self.io_write_prob,
            self.torn_write_prob,
        );
        let mut out = format!("seed {seed} io-reads {r} io-writes {w} torn {t}");
        if let Some(n) = self.kill_after {
            out += &format!(" kill-at {n}");
        }
        if let Some((a, b)) = self.fail_window {
            out += &format!(" window [{a}, {b})");
        }
        if !self.charged_only {
            out += " (uncharged included)";
        }
        out
    }
}

/// The fates a [`FaultInjector`] counts, as indices into its tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Injected plain I/O failures.
    Io,
    /// Injected torn writes.
    Torn,
    /// Kill-points fired (0 or 1 per crash/recover cycle).
    Kill,
}

static FAULT_KINDS: FateKinds<3> = [
    ("io", "io failures"),
    ("torn", "torn writes"),
    ("kill", "kills"),
];

/// Live fault-injection state, shared between the pager and its operators.
pub struct FaultInjector {
    plan: FaultPlan,
    stream: FateStream,
    tally: Tally<3>,
    transfers: AtomicU64,
    crashed: AtomicBool,
}

impl FaultInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            stream: FateStream::new(plan.seed),
            tally: Tally::new("procdb_faults_injected_total", &FAULT_KINDS),
            plan,
            transfers: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        })
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether a simulated crash is latched (kill-point fired, not yet
    /// recovered).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Clear the crash latch — the storage half of `Engine::recover`.
    pub fn clear_crash(&self) {
        self.crashed.store(false, Ordering::Relaxed);
    }

    /// Eligible transfers seen so far.
    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }

    /// Faults of `kind` injected so far.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.tally.count(kind as usize)
    }

    /// The `fault status` line: transfers, injected faults, the latch.
    pub fn status(&self) -> String {
        format!(
            "{} transfers, {}, crashed {}",
            self.transfers(),
            self.tally.render(),
            self.crashed()
        )
    }

    /// Pick where a torn write stops applying new bytes (at least 1, at
    /// most `len - 1`, so the page is genuinely half-and-half).
    pub fn torn_split(&self, len: usize) -> usize {
        if len <= 1 {
            return len;
        }
        1 + self.stream.pick(len as u64 - 1) as usize
    }

    /// Rule on one transfer. `charged` is the pager's charging flag at the
    /// moment of the transfer.
    pub fn decide(&self, kind: TransferKind, charged: bool) -> FaultDecision {
        if self.plan.charged_only && !charged {
            return FaultDecision::Proceed;
        }
        if self.crashed() {
            return FaultDecision::Kill;
        }
        let n = self.transfers.fetch_add(1, Ordering::Relaxed) + 1;
        // One-shot: once recovery clears the latch the kill-point is
        // spent — it does not re-fire on later transfers.
        if self.plan.kill_after.is_some_and(|k| n >= k) && self.count(FaultKind::Kill) == 0 {
            self.crashed.store(true, Ordering::Relaxed);
            self.tally.note(FaultKind::Kill as usize);
            return FaultDecision::Kill;
        }
        let in_window = self
            .plan
            .fail_window
            .is_some_and(|(start, end)| n >= start && n < end);
        let fate = match kind {
            _ if in_window => FaultKind::Io,
            TransferKind::Read if self.stream.chance(self.plan.io_read_prob) => FaultKind::Io,
            TransferKind::Write if self.stream.chance(self.plan.torn_write_prob) => FaultKind::Torn,
            TransferKind::Write if self.stream.chance(self.plan.io_write_prob) => FaultKind::Io,
            _ => return FaultDecision::Proceed,
        };
        self.tally.note(fate as usize);
        match fate {
            FaultKind::Torn => FaultDecision::Torn(n),
            _ => FaultDecision::Fail(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::new(7));
        for _ in 0..1000 {
            assert_eq!(inj.decide(TransferKind::Read, true), FaultDecision::Proceed);
            assert_eq!(
                inj.decide(TransferKind::Write, true),
                FaultDecision::Proceed
            );
        }
        assert_eq!(
            inj.status(),
            "2000 transfers, 0 io failures, 0 torn writes, 0 kills, crashed false"
        );
    }

    #[test]
    fn charged_only_ignores_uncharged_transfers() {
        let inj = FaultInjector::new(FaultPlan::new(1).fail_window(1, u64::MAX));
        // Uncharged: immune and not even counted.
        assert_eq!(
            inj.decide(TransferKind::Read, false),
            FaultDecision::Proceed
        );
        assert_eq!(inj.transfers(), 0);
        // Charged: fails.
        assert!(matches!(
            inj.decide(TransferKind::Read, true),
            FaultDecision::Fail(1)
        ));
    }

    #[test]
    fn kill_point_latches_until_cleared() {
        let inj = FaultInjector::new(FaultPlan::new(1).kill_at(3));
        assert_eq!(inj.decide(TransferKind::Read, true), FaultDecision::Proceed);
        assert_eq!(
            inj.decide(TransferKind::Write, true),
            FaultDecision::Proceed
        );
        assert_eq!(inj.decide(TransferKind::Read, true), FaultDecision::Kill);
        assert!(inj.crashed());
        // Everything fails while crashed, and the kill is counted once.
        assert_eq!(inj.decide(TransferKind::Write, true), FaultDecision::Kill);
        assert_eq!(inj.count(FaultKind::Kill), 1);
        inj.clear_crash();
        assert!(!inj.crashed());
        // The kill-point is one-shot: after recovery, transfers flow again.
        assert_eq!(inj.decide(TransferKind::Read, true), FaultDecision::Proceed);
        assert_eq!(inj.count(FaultKind::Kill), 1);
    }

    #[test]
    fn fail_window_is_exact() {
        let inj = FaultInjector::new(FaultPlan::new(1).fail_window(2, 4));
        assert_eq!(inj.decide(TransferKind::Read, true), FaultDecision::Proceed);
        assert!(matches!(
            inj.decide(TransferKind::Read, true),
            FaultDecision::Fail(2)
        ));
        assert!(matches!(
            inj.decide(TransferKind::Write, true),
            FaultDecision::Fail(3)
        ));
        assert_eq!(inj.decide(TransferKind::Read, true), FaultDecision::Proceed);
        assert_eq!(inj.count(FaultKind::Io), 2);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || FaultInjector::new(FaultPlan::new(42).io_reads(0.3).torn_writes(0.2));
        let a = mk();
        let b = mk();
        for i in 0..500 {
            let kind = if i % 2 == 0 {
                TransferKind::Read
            } else {
                TransferKind::Write
            };
            assert_eq!(a.decide(kind, true), b.decide(kind, true), "transfer {i}");
        }
        assert!(a.count(FaultKind::Io) > 0, "0.3 over 250 reads must fire");
    }

    #[test]
    fn torn_split_is_interior() {
        let inj = FaultInjector::new(FaultPlan::new(9));
        for _ in 0..100 {
            let s = inj.torn_split(4000);
            assert!((1..4000).contains(&s));
        }
    }
}
