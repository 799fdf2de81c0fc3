//! Offline stand-in for `crossbeam`, exposing the `channel` module the
//! executors use: a **bounded MPMC ring buffer** with blocking `send`
//! (backpressure), cloneable senders *and* receivers, and disconnect
//! semantics (`recv` errors once every sender is gone, `send` errors once
//! every receiver is gone).
//!
//! Earlier revisions wrapped `std::sync::mpsc::sync_channel`, which is
//! single-consumer: a worker *pool* draining one queue was impossible and
//! every hand-off went through mpsc's internal node allocation. This
//! version stores messages in a fixed-capacity ring (one allocation per
//! channel, zero per message) guarded by a mutex with two condvars —
//! not lock-free like the real crate, but the same API and semantics, and
//! messages are batches here so the lock is amortized batch-size-fold.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    /// `send` failed because every receiver was dropped; returns the
    /// unsent value.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// `recv` failed because the channel is empty and every sender was
    /// dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// `try_recv` outcome when no message was dequeued.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty, but senders remain connected.
        Empty,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    /// `try_send` outcome when the message was not enqueued; returns the
    /// unsent value either way (mirroring the real crate).
    #[derive(Debug)]
    pub enum TrySendError<T> {
        /// Ring currently full, but receivers remain connected.
        Full(T),
        /// Every receiver dropped.
        Disconnected(T),
    }

    /// Ring state under the mutex. The buffer is a `VecDeque` whose
    /// backing allocation is made once at channel creation (`with_capacity`)
    /// and never grows past `cap`, so it behaves as a fixed ring.
    struct Ring<T> {
        buf: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        ring: Mutex<Ring<T>>,
        not_full: Condvar,
        not_empty: Condvar,
    }

    /// Producer half; cloneable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Consumer half; cloneable (MPMC) — a pool of workers may drain one
    /// channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.ring.lock().unwrap().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.ring.lock().unwrap().receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut ring = self.shared.ring.lock().unwrap();
            ring.senders -= 1;
            if ring.senders == 0 {
                drop(ring);
                // Blocked receivers must observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut ring = self.shared.ring.lock().unwrap();
            ring.receivers -= 1;
            if ring.receivers == 0 {
                drop(ring);
                // Blocked senders must observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue `value`, blocking while the ring is full. Errors (and
        /// hands the value back) once every receiver is gone — including
        /// when a blocked send is woken by the last receiver dropping.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut ring = self.shared.ring.lock().unwrap();
            loop {
                if ring.receivers == 0 {
                    return Err(SendError(value));
                }
                if ring.buf.len() < ring.cap {
                    ring.buf.push_back(value);
                    drop(ring);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                ring = self.shared.not_full.wait(ring).unwrap();
            }
        }

        /// Non-blocking enqueue: fails immediately with the value when
        /// the ring is full or every receiver is gone. The escape hatch
        /// for producers that must not park forever behind a stalled
        /// consumer (e.g. a result broadcaster that wants to drop the
        /// slow subscriber instead).
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut ring = self.shared.ring.lock().unwrap();
            if ring.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if ring.buf.len() < ring.cap {
                ring.buf.push_back(value);
                drop(ring);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            Err(TrySendError::Full(value))
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue the oldest message, blocking while the ring is empty.
        /// Errors once the ring is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut ring = self.shared.ring.lock().unwrap();
            loop {
                if let Some(v) = ring.buf.pop_front() {
                    drop(ring);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if ring.senders == 0 {
                    return Err(RecvError);
                }
                ring = self.shared.not_empty.wait(ring).unwrap();
            }
        }

        /// Non-blocking dequeue.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut ring = self.shared.ring.lock().unwrap();
            if let Some(v) = ring.buf.pop_front() {
                drop(ring);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if ring.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator over messages until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// A bounded MPMC channel: blocking `send` once `cap` messages queue
    /// up. `cap` must be positive (a rendezvous channel would deadlock a
    /// single-threaded driver).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded channel capacity must be positive");
        let shared = Arc::new(Shared {
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, TryRecvError};

    #[test]
    fn fan_in_and_disconnect() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        let h1 = std::thread::spawn(move || (0..10).for_each(|i| tx.send(i).unwrap()));
        let h2 = std::thread::spawn(move || (10..20).for_each(|i| tx2.send(i).unwrap()));
        let mut got: Vec<u32> = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        h1.join().unwrap();
        h2.join().unwrap();
        got.sort();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_multiple_consumers_partition_the_stream() {
        let (tx, rx) = bounded::<u32>(8);
        let rx2 = rx.clone();
        let consume = |rx: super::channel::Receiver<u32>| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        };
        let c1 = consume(rx);
        let c2 = consume(rx2);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all = c1.join().unwrap();
        all.extend(c2.join().unwrap());
        all.sort();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocked_send_unblocks_when_receiver_drops() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(0).unwrap();
        let h = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx); // full ring, sender parked: must wake and error
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn try_send_distinguishes_full_and_disconnected() {
        use super::channel::TrySendError;
        let (tx, rx) = bounded::<u32>(1);
        assert!(tx.try_send(1).is_ok());
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = bounded::<u32>(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn backpressure_bounds_queue_depth() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let (tx, rx) = bounded::<u32>(2);
        let sent = Arc::new(AtomicUsize::new(0));
        let sent2 = sent.clone();
        let h = std::thread::spawn(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
                sent2.fetch_add(1, Ordering::SeqCst);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Producer must have parked at the ring bound, not run ahead.
        assert!(sent.load(Ordering::SeqCst) <= 3);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        h.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_stress_on_a_one_slot_ring() {
        use std::collections::HashSet;
        use std::time::{Duration, Instant};
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 10_000;
        let started = Instant::now();

        // Every send and recv crosses the full/empty blocking path: with
        // one slot, a producer parks until a consumer drains it and vice
        // versa. Consumers exit only on the disconnect wakeup that the
        // last producer's drop must deliver to all of them.
        let (tx, rx) = bounded::<u64>(1);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().collect::<Vec<u64>>())
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut seen = HashSet::new();
        for c in consumers {
            for v in c.join().unwrap() {
                assert!(seen.insert(v), "{v} delivered twice");
            }
        }
        assert_eq!(seen.len() as u64, PRODUCERS * PER_PRODUCER, "lost messages");

        // The other direction: producers parked on the full ring must
        // all wake with an error when the last receiver drops. The sleep
        // only gives them time to park; one that has not parked yet
        // fails on entry instead, so the assertion holds either way.
        let (tx, rx) = bounded::<u64>(1);
        tx.send(0).unwrap();
        let parked: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(p).is_err())
            })
            .collect();
        let rx2 = rx.clone();
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        drop(rx2);
        for p in parked {
            assert!(p.join().unwrap(), "parked send must fail on disconnect");
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn iter_drains_until_disconnect() {
        let (tx, rx) = bounded::<u32>(4);
        std::thread::spawn(move || {
            for i in 0..5 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
