//! A first-fill-wins oneshot slot: one value, resolved once, readable by
//! every waiter.
//!
//! The serving engine's response handles and the fleet router's
//! request/reply handshakes both need the same rendezvous: a producer
//! resolves a request exactly once, possibly racing a fallback resolution
//! (a dropped responder failing its request, a shutdown failing every
//! pending one), and a consumer blocks — optionally with a timeout —
//! until it is resolved. [`Oneshot::fill`] keeps the first value and
//! ignores every later one, so such races need no extra bookkeeping.
//!
//! A poisoned lock is recovered with `into_inner`: the only update is the
//! single `None → Some` store, so the slot is valid at every step.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A slot filled at most once; see the [module docs](self).
#[derive(Debug)]
pub struct Oneshot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Oneshot<T> {
    /// An empty slot, shared between its producer and its waiters.
    pub fn new() -> Arc<Oneshot<T>> {
        Arc::new(Oneshot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Resolve the slot with `v` and wake every waiter — unless it is
    /// already resolved, in which case `v` is dropped.
    pub fn fill(&self, v: T) {
        let mut guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.is_none() {
            *guard = Some(v);
            // Release before waking, so a woken waiter does not block on
            // the lock the filler still holds.
            drop(guard);
            self.ready.notify_all();
        }
    }

    /// Block until the slot is resolved; return its value.
    pub fn wait(&self) -> T
    where
        T: Clone,
    {
        let mut guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = guard.as_ref() {
                return v.clone();
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block up to `timeout`; `None` if the slot is still unresolved.
    /// `Duration::ZERO` is a non-blocking probe.
    pub fn wait_for(&self, timeout: Duration) -> Option<T>
    where
        T: Clone,
    {
        let deadline = Instant::now() + timeout;
        let mut guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = guard.as_ref() {
                return Some(v.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            guard = self
                .ready
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn first_fill_wins() {
        let slot = Oneshot::new();
        slot.fill(1);
        slot.fill(2);
        assert_eq!(slot.wait(), 1);
        assert_eq!(slot.wait_for(Duration::ZERO), Some(1));
    }

    #[test]
    fn wait_for_times_out_with_none() {
        let slot = Oneshot::<u8>::new();
        let start = Instant::now();
        assert_eq!(slot.wait_for(Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(slot.wait_for(Duration::ZERO), None);
    }

    #[test]
    fn fill_from_another_thread_wakes_a_waiter() {
        let slot = Oneshot::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                slot.fill("answer");
            });
            barrier.wait();
            assert_eq!(slot.wait(), "answer");
        });
    }
}
