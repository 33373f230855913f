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

/// Sleep between lock re-tries once the yield phase of [`acquire_by`]
/// is exhausted; bounds how stale a waiter's next attempt can be.
const LOCK_RETRY: Duration = Duration::from_micros(50);

/// Take a lock by polling `try_lock` until it yields a guard, giving up
/// (`None`) once `deadline` has passed — the vendored locks have no
/// timed acquire, so a bounded acquisition is a try-loop. Between
/// attempts, yield the first rounds (the critical sections behind these
/// locks are usually tens to hundreds of microseconds), then back off
/// to short sleeps so a long-held lock doesn't burn a core. A fixed 1ms
/// sleep here quantized every contended acquisition to the sleep period
/// — a convoy of writers capped at ~1k lock handoffs/s no matter how
/// briefly each held it.
pub fn acquire_by<G>(
    deadline: Option<Instant>,
    mut try_lock: impl FnMut() -> Option<G>,
) -> Option<G> {
    let mut attempt = 0u32;
    loop {
        if let Some(guard) = try_lock() {
            return Some(guard);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        if attempt < 64 {
            thread::yield_now();
        } else {
            thread::sleep(LOCK_RETRY);
        }
        attempt = attempt.saturating_add(1);
    }
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
    fn acquire_by_polls_until_the_lock_or_the_deadline() {
        let lock = std::sync::Mutex::new(7);
        assert_eq!(*acquire_by(None, || lock.try_lock().ok()).unwrap(), 7);
        let held = lock.lock().unwrap();
        let soon = Instant::now() + Duration::from_millis(5);
        assert!(acquire_by(Some(soon), || lock.try_lock().ok()).is_none());
        // Without a deadline the waiter outlasts the holder.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| *acquire_by(None, || lock.try_lock().ok()).unwrap());
            drop(held);
            assert_eq!(waiter.join().unwrap(), 7);
        });
    }
}
