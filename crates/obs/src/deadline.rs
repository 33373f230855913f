//! Request-deadline propagation.
//!
//! A server that accepts a per-request time budget installs the
//! absolute deadline here ([`install_deadline`]); every layer below —
//! session, shard scatter-gather workers, engine lock acquisition —
//! reads it back with [`current_deadline`] / [`deadline_expired`] and
//! turns an exhausted budget into a typed partial-failure instead of
//! queueing indefinitely behind a slow shard.
//!
//! The deadline lives in a thread-local, exactly like the request
//! [`TraceContext`](crate::TraceContext): worker pools whose threads
//! are long-lived must capture the caller's deadline explicitly and
//! re-install it inside each job closure. The returned
//! [`DeadlineGuard`] restores the previous value on drop, so nested
//! scopes (a sub-request with a tighter budget) compose.

use std::cell::Cell;
use std::thread;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Install `deadline` as the current thread's request deadline; the
/// previous value (if any) is restored when the guard drops.
pub fn install_deadline(deadline: Instant) -> DeadlineGuard {
    let prev = DEADLINE.with(|d| d.replace(Some(deadline)));
    DeadlineGuard { prev }
}

/// The deadline installed on this thread, if any.
pub fn current_deadline() -> Option<Instant> {
    DEADLINE.with(|d| d.get())
}

/// Budget left before the installed deadline (`None` when no deadline
/// is installed; zero once it has passed).
pub fn deadline_remaining() -> Option<Duration> {
    current_deadline().map(|d| d.saturating_duration_since(Instant::now()))
}

/// Has the installed deadline passed? `false` when none is installed.
pub fn deadline_expired() -> bool {
    current_deadline().is_some_and(|d| Instant::now() >= d)
}

/// Rounds of `try` + `yield_now` before [`yield_then_block`] blocks.
const YIELD_ROUNDS: u32 = 64;

/// Take a contended lock: up to `YIELD_ROUNDS` (64) rounds of `try_lock`
/// with a `yield_now` after each miss, then `block` — the lock's own
/// blocking acquire (`lock()`), or its timed one (`try_write_until`)
/// when a deadline bounds the wait. Nothing here sleeps: a parked
/// waiter is woken by the release itself.
///
/// The yield phase is for locks whose critical sections take a few
/// tens of microseconds, less than a park and wake-up cost. It belongs
/// at the call sites that take such locks, not inside every vendored
/// `lock`/`read`/`write`.
pub fn yield_then_block<G>(
    mut try_lock: impl FnMut() -> Option<G>,
    block: impl FnOnce() -> G,
) -> G {
    for _ in 0..YIELD_ROUNDS {
        if let Some(guard) = try_lock() {
            return guard;
        }
        thread::yield_now();
    }
    block()
}

/// Scope guard from [`install_deadline`]: restores the thread's
/// previous deadline (or clears it) on drop.
pub struct DeadlineGuard {
    prev: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        DEADLINE.with(|d| d.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_read_restore() {
        assert_eq!(current_deadline(), None);
        assert!(!deadline_expired());
        assert_eq!(deadline_remaining(), None);
        let far = Instant::now() + Duration::from_secs(60);
        {
            let _g = install_deadline(far);
            assert_eq!(current_deadline(), Some(far));
            assert!(!deadline_expired());
            assert!(deadline_remaining().expect("budget") > Duration::from_secs(50));
            let near = Instant::now() - Duration::from_millis(1);
            {
                let _inner = install_deadline(near);
                assert_eq!(current_deadline(), Some(near), "nested scope wins");
                assert!(deadline_expired(), "past deadline reads expired");
                assert_eq!(deadline_remaining(), Some(Duration::ZERO));
            }
            assert_eq!(current_deadline(), Some(far), "inner guard restores");
        }
        assert_eq!(current_deadline(), None, "outer guard clears");
    }

    #[test]
    fn yield_then_block_tries_then_blocks() {
        let lock = std::sync::Mutex::new(7);
        let take = || yield_then_block(|| lock.try_lock().ok(), || lock.lock().unwrap());
        assert_eq!(*take(), 7);
        // A lock that never frees up: every yield round tries, then the
        // blocking acquire answers.
        let mut tries = 0;
        let got = yield_then_block(
            || {
                tries += 1;
                None
            },
            || "blocked",
        );
        assert_eq!((got, tries), ("blocked", YIELD_ROUNDS));
        // A waiter outlasts the holder.
        let held = lock.lock().unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| *take());
            drop(held);
            assert_eq!(waiter.join().unwrap(), 7);
        });
    }
}
