//! Bounded FIFO channels for deterministic producer/consumer pipelines.
//!
//! `std::sync::mpsc` offers bounded channels, but only with a single
//! consumer and without deadline-based receives — and the serving engine
//! (`neurofail-serve`) needs both: several shard workers may drain one
//! request queue (MPMC), and its micro-batching scheduler waits for more
//! work *until a flush deadline*, not for a fixed timeout re-armed on every
//! arrival. This module implements the small surface actually required, on
//! `std`'s `Mutex` + `Condvar`:
//!
//! * [`bounded`] — a FIFO queue of fixed capacity; [`Sender::send`] blocks
//!   while the queue is full (backpressure), [`Receiver::recv`] blocks
//!   while it is empty.
//! * Deadline receive — [`Receiver::recv_deadline`] returns at the given
//!   [`Instant`] if nothing arrives, the primitive a batcher's
//!   `max_wait` flush timer is built from.
//! * Disconnect semantics — when every `Sender` is dropped, receivers
//!   drain the remaining queue and then observe [`RecvError`]; when every
//!   `Receiver` is dropped, senders observe [`SendError`] immediately.
//!
//! Ordering contract: the queue is strictly FIFO — items are popped in
//! exactly the order they were pushed, and each exactly once, for any
//! producer/consumer count. A single consumer therefore sees the full
//! send order, and one [`Receiver::recv_up_to`] grab takes a contiguous,
//! in-order run of the queue; with several consumers the pops interleave
//! across them (still FIFO overall, but one consumer's batches need not
//! be contiguous slices of the queue's history). Consumers needing
//! ordering semantics stronger than exactly-once FIFO pops should run a
//! single consumer — or, like the serving engine, make results
//! order-independent by construction.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent value back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the value is returned.
    Full(T),
    /// Every receiver is gone; the value is returned.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`]: the queue is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`] and
/// [`Receiver::recv_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline (or, for `try_recv`, the queue
    /// was empty at the probe).
    Timeout,
    /// The queue is empty and every sender is gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled when the queue shrinks or a receiver disconnects.
    not_full: Condvar,
    /// Signalled when the queue grows or a sender disconnects.
    not_empty: Condvar,
}

/// Create a bounded FIFO channel of the given capacity.
///
/// Both halves are cloneable (MPMC). `capacity` is the backpressure limit:
/// at most that many items are ever queued.
///
/// # Panics
/// If `capacity == 0` (a rendezvous channel is not supported — the serving
/// engine always wants at least one queued request to coalesce with).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded: capacity must be at least 1");
    let inner = Arc::new(Inner {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receivers: 1,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Sending half of a [`bounded`] channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the queue is full. On success,
    /// returns the queue length observed right after the enqueue (the
    /// pushed item included) — the depth reading a caller would otherwise
    /// pay a second lock for.
    ///
    /// # Errors
    /// [`SendError`] (returning the value) if every receiver is gone.
    pub fn send(&self, value: T) -> Result<usize, SendError<T>> {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            if state.queue.len() < self.inner.capacity {
                state.queue.push_back(value);
                let depth = state.queue.len();
                drop(state);
                self.inner.not_empty.notify_one();
                return Ok(depth);
            }
            state = self
                .inner
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Enqueue `value` without blocking. On success, returns the observed
    /// queue length as [`send`](Self::send) does.
    ///
    /// # Errors
    /// [`TrySendError::Full`] when at capacity, [`TrySendError::Disconnected`]
    /// when every receiver is gone; both return the value.
    pub fn try_send(&self, value: T) -> Result<usize, TrySendError<T>> {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if state.queue.len() >= self.inner.capacity {
            return Err(TrySendError::Full(value));
        }
        state.queue.push_back(value);
        let depth = state.queue.len();
        drop(state);
        self.inner.not_empty.notify_one();
        Ok(depth)
    }

    /// Number of items currently queued (a racy snapshot — use for stats,
    /// not for synchronisation).
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Whether the queue is currently empty (racy snapshot, like [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            state.senders
        };
        if remaining == 0 {
            // Wake every blocked receiver so it can observe the disconnect.
            self.inner.not_empty.notify_all();
        }
    }
}

/// Receiving half of a [`bounded`] channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Receiver<T> {
    /// Dequeue the oldest item, blocking while the queue is empty.
    ///
    /// # Errors
    /// [`RecvError`] once the queue is empty and every sender is gone (the
    /// queue is always drained before the disconnect is reported).
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .inner
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeue the oldest item without blocking.
    ///
    /// # Errors
    /// [`RecvTimeoutError::Timeout`] if the queue is empty,
    /// [`RecvTimeoutError::Disconnected`] if it is empty and every sender is
    /// gone.
    pub fn try_recv(&self) -> Result<T, RecvTimeoutError> {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = state.queue.pop_front() {
            drop(state);
            self.inner.not_full.notify_one();
            return Ok(value);
        }
        if state.senders == 0 {
            return Err(RecvTimeoutError::Disconnected);
        }
        Err(RecvTimeoutError::Timeout)
    }

    /// Drain up to `max` immediately-available items into `buf` (appending,
    /// FIFO order) without blocking, returning how many were taken.
    ///
    /// This is the micro-batcher's bulk-dequeue: one lock acquisition and
    /// one sender wake-up per *flush* instead of one per row, which is
    /// where a large share of coalesced serving's per-row win comes from
    /// once the evaluation itself is hardware-bound.
    pub fn recv_up_to(&self, buf: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let taken = {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            let take = state.queue.len().min(max);
            buf.extend(state.queue.drain(..take));
            take
        };
        if taken > 0 {
            // Freed several slots at once: wake every blocked sender (each
            // re-checks capacity; surplus wakers go back to sleep).
            self.inner.not_full.notify_all();
        }
        taken
    }

    /// Dequeue the oldest item, blocking until `deadline` at the latest —
    /// the primitive a micro-batcher's `max_wait` flush timer is built
    /// from (one absolute deadline per batch, not a timeout re-armed on
    /// every arrival).
    ///
    /// # Errors
    /// [`RecvTimeoutError::Timeout`] if nothing arrived by `deadline`,
    /// [`RecvTimeoutError::Disconnected`] if the queue is empty and every
    /// sender is gone.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let Some(wait) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, _timeout) = self
                .inner
                .not_empty
                .wait_timeout(state, wait)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Number of items currently queued (racy snapshot — stats only).
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Whether the queue is currently empty (racy snapshot, like [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .receivers += 1;
        Receiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers -= 1;
            state.receivers
        };
        if remaining == 0 {
            // Wake every blocked sender so it can observe the disconnect.
            self.inner.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_producer_single_consumer() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_send_reports_full_and_send_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        // A blocked send completes once the consumer drains one slot.
        std::thread::scope(|s| {
            let h = s.spawn(|| tx.send(3));
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(1));
            h.join().unwrap().unwrap();
        });
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn queue_drains_before_disconnect_is_reported() {
        let (tx, rx) = bounded(8);
        tx.send(10).unwrap();
        tx.send(11).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(10));
        assert_eq!(rx.recv(), Ok(11));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn send_fails_when_all_receivers_gone() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
        assert_eq!(tx.try_send(8), Err(TrySendError::Disconnected(8)));
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (tx, rx) = bounded(2);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(rx.recv_deadline(deadline), Err(RecvTimeoutError::Timeout));
        tx.send(42).unwrap();
        let deadline = Instant::now() + Duration::from_millis(100);
        assert_eq!(rx.recv_deadline(deadline), Ok(42));
    }

    #[test]
    fn recv_deadline_wakes_on_arrival_before_deadline() {
        let (tx, rx) = bounded(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                tx.send(5).unwrap();
            });
            let start = Instant::now();
            let got = rx.recv_deadline(Instant::now() + Duration::from_secs(5));
            assert_eq!(got, Ok(5));
            assert!(start.elapsed() < Duration::from_secs(4), "woke on arrival");
        });
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let (tx, rx) = bounded(16);
        let n = 1000u64;
        let total: u64 = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut sum = 0u64;
                        while let Ok(v) = rx.recv() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            drop(rx);
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in (p..n).step_by(2) {
                            tx.send(i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            for p in producers {
                p.join().unwrap();
            }
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(total, n * (n - 1) / 2);
    }

    #[test]
    fn send_reports_observed_depth() {
        let (tx, rx) = bounded(8);
        assert_eq!(tx.send(1), Ok(1));
        assert_eq!(tx.send(2), Ok(2));
        assert_eq!(tx.try_send(3), Ok(3));
        let _ = rx.recv();
        assert_eq!(tx.send(4), Ok(3));
    }

    #[test]
    fn recv_up_to_drains_in_fifo_order_and_unblocks_senders() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        let mut buf = vec![99];
        assert_eq!(rx.recv_up_to(&mut buf, 3), 3);
        assert_eq!(buf, vec![99, 0, 1, 2]);
        assert_eq!(rx.recv_up_to(&mut buf, 0), 0);
        // Draining frees slots for a blocked sender.
        std::thread::scope(|s| {
            tx.send(4).unwrap();
            tx.send(5).unwrap();
            tx.send(6).unwrap(); // queue now [3,4,5,6]: full
            let h = s.spawn(|| tx.send(7));
            std::thread::sleep(Duration::from_millis(10));
            let mut buf2 = Vec::new();
            assert_eq!(rx.recv_up_to(&mut buf2, 16), 4);
            assert_eq!(buf2, vec![3, 4, 5, 6]);
            h.join().unwrap().unwrap();
        });
        assert_eq!(rx.recv(), Ok(7));
        // Empty queue: nothing taken.
        let mut empty = Vec::new();
        assert_eq!(rx.recv_up_to(&mut empty, 4), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn len_tracks_queue_depth() {
        let (tx, rx) = bounded(8);
        assert!(tx.is_empty() && rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        let _ = rx.recv();
        assert_eq!(rx.len(), 1);
        assert!(!rx.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u8>(0);
    }
}
