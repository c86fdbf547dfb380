//! A minimal, std-backed subset of `crossbeam::channel`.
//!
//! Unbounded channel with sender cloning and disconnect detection — the
//! exact surface the workspace uses as its in-process "NIC" (see
//! `kite-simnet`). Performance is adequate for the deterministic tests and
//! in-process deployments; the real crossbeam can be swapped back in by
//! repointing the workspace dependency.

/// Channel types mirroring `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        buf: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers currently blocked on `cv`. Changed only under the
        /// mutex, so a sender that sees 0 knows nobody can miss its push.
        parked: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        cv: Condvar,
        /// Mirror of `buf.len()`, written under the mutex and read without
        /// it: the event loops probe emptiness of channels they themselves
        /// feed several times per op. Relaxed — it publishes no data (the
        /// queue is only ever touched under the mutex); a stale value is a
        /// probe that comes back one poll early or late, as with the lock.
        len: AtomicUsize,
    }

    impl<T> Inner<T> {
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let t = st.buf.pop_front()?;
            self.len.store(st.buf.len(), Ordering::Relaxed);
            Some(t)
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { buf: VecDeque::new(), senders: 1, receivers: 1, parked: 0 }),
            cv: Condvar::new(),
            len: AtomicUsize::new(0),
        });
        (Sender(Arc::clone(&inner)), Receiver(inner))
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// The sending half; clonable.
    pub struct Sender<T>(Arc<Inner<T>>);

    impl<T> Sender<T> {
        /// Queue `t`. Fails (returning it) once every receiver is dropped.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.receivers == 0 {
                return Err(SendError(t));
            }
            st.buf.push_back(t);
            self.0.len.store(st.buf.len(), Ordering::Relaxed);
            // Like the real crossbeam, signal only a receiver that is
            // actually blocked: `notify_one` is a futex syscall even with
            // nobody waiting, and most sends here go to a polling loop.
            let wake = st.parked > 0;
            drop(st);
            if wake {
                self.0.cv.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.0.cv.notify_all(); // wake receivers so they observe disconnect
            }
        }
    }

    /// The receiving half.
    pub struct Receiver<T>(Arc<Inner<T>>);

    impl<T> Receiver<T> {
        /// Pop a message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            match self.0.pop(&mut st) {
                Some(t) => Ok(t),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(t) = self.0.pop(&mut st) {
                    return Ok(t);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked += 1;
                st = self.0.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                st.parked -= 1;
            }
        }

        /// Block up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(t) = self.0.pop(&mut st) {
                    return Ok(t);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked += 1;
                let (guard, res) = self
                    .0
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                st.parked -= 1;
                if res.timed_out() && st.buf.is_empty() {
                    return if st.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }

        /// Number of queued messages (lock-free snapshot).
        pub fn len(&self) -> usize {
            self.0.len.load(Ordering::Relaxed)
        }

        /// Receivers blocked in `recv`/`recv_timeout` right now.
        #[cfg(test)]
        pub(crate) fn parked(&self) -> usize {
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).parked
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_and_receive_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observable_on_both_sides() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());

        let (tx, rx) = unbounded::<u8>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_send() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(7u8).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        h.join().unwrap();
    }

    /// Run `wait` on a second thread and return once it is blocked on the
    /// channel's condvar (the parked count is the barrier — no sleeps).
    fn park<R: Send + 'static>(
        rx: &std::sync::Arc<Receiver<u8>>,
        wait: impl FnOnce(&Receiver<u8>) -> R + Send + 'static,
    ) -> std::thread::JoinHandle<R> {
        let rx2 = std::sync::Arc::clone(rx);
        let h = std::thread::spawn(move || wait(&rx2));
        while rx.parked() == 0 {
            std::thread::yield_now();
        }
        h
    }

    #[test]
    fn parked_receivers_wake_on_send() {
        let (tx, rx) = unbounded::<u8>();
        let rx = std::sync::Arc::new(rx);
        let h = park(&rx, |rx| rx.recv());
        tx.send(1).unwrap();
        assert_eq!(h.join().unwrap(), Ok(1));
        let h = park(&rx, |rx| rx.recv_timeout(Duration::from_secs(30)));
        tx.send(2).unwrap();
        assert_eq!(h.join().unwrap(), Ok(2));
        assert_eq!(rx.parked(), 0);
    }

    #[test]
    fn parked_receivers_wake_on_last_sender_drop() {
        let (tx, rx) = unbounded::<u8>();
        let (tx2, rx) = (tx.clone(), std::sync::Arc::new(rx));
        let a = park(&rx, |rx| rx.recv());
        drop(tx);
        assert_eq!(rx.parked(), 1, "a live clone keeps the receiver parked");
        drop(tx2);
        assert_eq!(a.join().unwrap(), Err(RecvError));

        let (tx, rx) = unbounded::<u8>();
        let rx = std::sync::Arc::new(rx);
        let b = park(&rx, |rx| rx.recv_timeout(Duration::from_secs(30)));
        drop(tx);
        assert_eq!(b.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn unsignalled_sends_are_not_lost_and_len_tracks_the_queue() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        for i in 0..3u8 {
            tx.send(i).unwrap(); // nobody parked: no condvar signal
        }
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(1));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.try_recv(), Ok(2));
        assert!(rx.is_empty());
    }

    #[test]
    fn clone_keeps_channel_alive() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(3).unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }
}
