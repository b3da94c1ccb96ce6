//! A blocking MPSC channel built on the vendored `parking_lot` mutex.
//!
//! This is the inter-node wire of the threaded backend: every node owns one [`Receiver`] and
//! the router holds one [`Sender`] per live node.  The queue itself sits behind a
//! `parking_lot::Mutex` (the shim vendored under `shims/`, API-compatible with the real
//! crate), and blocking uses `std::thread::park` / `unpark` — the same primitive real
//! channel implementations use — so a parked node costs nothing until traffic or a timer
//! deadline wakes it.
//!
//! Shutdown semantics mirror a crashed network interface rather than an error-propagating
//! RPC pipe:
//!
//! * sending to a channel whose receiver is gone silently drops the message and reports
//!   `false` — exactly what happens to a packet addressed to a crashed site;
//! * a receiver whose senders are all gone gets [`Recv::Disconnected`] once the queue is
//!   drained, which is how a node learns it has been disconnected from the cluster and
//!   should exit (even if it still has timers pending).

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::Instant;

use parking_lot::Mutex;

/// Outcome of a receive attempt.
pub enum Recv<T> {
    /// An item was dequeued.
    Item(T),
    /// The deadline passed (or the call was non-blocking) with nothing queued.
    TimedOut,
    /// Every sender is gone and the queue is drained; nothing will ever arrive.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    /// The parked receiver thread, registered just before it parks so a sender can wake it.
    waiting: Option<Thread>,
    receiver_alive: bool,
    senders: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
}

/// The sending half; cloneable, shareable across threads.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half; exactly one per channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates a channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            waiting: None,
            receiver_alive: true,
            senders: 1,
        }),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues an item, waking the receiver if it is parked.  Returns `false` (dropping
    /// the item) if the receiver is gone.
    pub fn send(&self, item: T) -> bool {
        self.send_all([item])
    }

    /// Enqueues every item of `items` in order under one lock acquisition, and wakes the
    /// receiver at most once, if it is parked and anything was queued.  Returns `false`
    /// (dropping the items, outside the lock) if the receiver is gone.  A caller that passes
    /// `buf.drain(..)` keeps its buffer for the next batch.
    pub fn send_all(&self, items: impl IntoIterator<Item = T>) -> bool {
        let waiter = {
            let mut st = self.inner.state.lock();
            if !st.receiver_alive {
                return false;
            }
            let before = st.queue.len();
            st.queue.extend(items);
            if st.queue.len() > before {
                st.waiting.take()
            } else {
                None
            }
        };
        if let Some(t) = waiter {
            t.unpark();
        }
        true
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waiter = {
            let mut st = self.inner.state.lock();
            st.senders -= 1;
            if st.senders == 0 {
                st.waiting.take()
            } else {
                None
            }
        };
        // The last sender wakes the receiver so it observes the disconnect promptly.
        if let Some(t) = waiter {
            t.unpark();
        }
    }
}

impl<T> Receiver<T> {
    /// Takes everything queued in one lock acquisition: swaps the queue with `into`, which
    /// must be empty — its buffer becomes the channel's next queue, so a receiver that
    /// drains into the same deque every time makes neither side allocate at steady state.
    /// Returns [`Recv::Disconnected`] only if nothing was queued and every sender is gone,
    /// i.e. after the last queued item has been handed out.
    pub(crate) fn drain_into(&self, into: &mut VecDeque<T>) -> Recv<()> {
        debug_assert!(
            into.is_empty(),
            "drain_into swaps: the target must be empty"
        );
        let mut st = self.inner.state.lock();
        if !st.queue.is_empty() {
            std::mem::swap(&mut st.queue, into);
            Recv::Item(())
        } else if st.senders == 0 {
            Recv::Disconnected
        } else {
            Recv::TimedOut
        }
    }

    /// Blocking receive.  Waits until an item arrives, every sender disconnects, or the
    /// `deadline` (if any) passes.  `None` means wait indefinitely.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> Recv<T> {
        loop {
            let now = {
                let mut st = self.inner.state.lock();
                if let Some(item) = st.queue.pop_front() {
                    return Recv::Item(item);
                }
                if st.senders == 0 {
                    return Recv::Disconnected;
                }
                let now = Instant::now();
                if let Some(d) = deadline {
                    if now >= d {
                        return Recv::TimedOut;
                    }
                }
                // Register for wakeup *before* releasing the lock: a sender that enqueues
                // after this point will see the handle and unpark us, and an unpark that
                // races our park just makes park return immediately.
                st.waiting = Some(thread::current());
                now
            };
            match deadline {
                None => thread::park(),
                Some(d) => thread::park_timeout(d - now),
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Queued items (closures, buffers) are dropped after the lock is released: their
        // destructors may be slow, and a sender must not wait on them to learn the
        // receiver is gone.
        let abandoned = {
            let mut st = self.inner.state.lock();
            st.receiver_alive = false;
            std::mem::take(&mut st.queue)
        };
        drop(abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A receive that does not wait: a deadline already passed.
    fn try_recv<T>(rx: &Receiver<T>) -> Recv<T> {
        rx.recv_deadline(Some(Instant::now()))
    }

    #[test]
    fn items_flow_in_fifo_order() {
        let (tx, rx) = channel();
        assert!(tx.send(1));
        assert!(tx.send(2));
        assert!(matches!(try_recv(&rx), Recv::Item(1)));
        assert!(matches!(try_recv(&rx), Recv::Item(2)));
        assert!(matches!(try_recv(&rx), Recv::TimedOut));
    }

    #[test]
    fn send_all_keeps_order_and_wakes_a_parked_receiver_once() {
        let (tx, rx) = channel();
        let parked = |tx: &Sender<u64>| tx.inner.state.lock().waiting.is_some();
        let receiver = thread::spawn(move || {
            let first = rx.recv_deadline(Some(Instant::now() + Duration::from_secs(5)));
            let mut rest = VecDeque::new();
            let _ = rx.drain_into(&mut rest);
            (first, rest)
        });
        while !parked(&tx) {
            thread::yield_now();
        }
        // An empty batch queues nothing and leaves the receiver parked.
        assert!(tx.send_all(std::iter::empty()));
        assert!(parked(&tx));
        let mut batch: Vec<u64> = (0..5).collect();
        assert!(tx.send_all(batch.drain(..)));
        assert!(batch.capacity() >= 5, "the caller keeps its buffer");
        assert!(!parked(&tx), "the one wake-up was taken");
        let (first, rest) = receiver.join().unwrap();
        // The receiver woke to the whole batch: one lock put all of it on the queue.
        assert!(matches!(first, Recv::Item(0)));
        assert_eq!(rest.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert!(!tx.send_all([5, 6]), "the receiver is gone");
    }

    #[test]
    fn send_to_a_dropped_receiver_reports_false() {
        let (tx, rx) = channel();
        drop(rx);
        assert!(!tx.send(1));
    }

    #[test]
    fn receiver_observes_disconnect_after_draining() {
        let (tx, rx) = channel();
        tx.send(7);
        drop(tx);
        assert!(matches!(try_recv(&rx), Recv::Item(7)));
        assert!(matches!(try_recv(&rx), Recv::Disconnected));
        assert!(matches!(rx.recv_deadline(None), Recv::Disconnected));
    }

    #[test]
    fn drain_takes_the_whole_queue_in_order_and_recycles_the_buffer() {
        let (tx, rx) = channel();
        let mut batch = VecDeque::with_capacity(64);
        assert!(matches!(rx.drain_into(&mut batch), Recv::TimedOut));
        for i in 0..5 {
            tx.send(i);
        }
        assert!(matches!(rx.drain_into(&mut batch), Recv::Item(())));
        assert_eq!(batch.drain(..).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        // The emptied deque went in as the queue: the next batch comes back in it, and the
        // one after that in the channel's first queue again.
        let grown = batch.capacity();
        assert!(grown < 64, "the queue the channel grew itself");
        tx.send(5);
        assert!(matches!(rx.drain_into(&mut batch), Recv::Item(())));
        assert!(batch.capacity() >= 64);
        assert_eq!(batch.pop_front(), Some(5));
        tx.send(6);
        assert!(matches!(rx.drain_into(&mut batch), Recv::Item(())));
        assert_eq!(batch.capacity(), grown);
        assert_eq!(batch.pop_front(), Some(6));
        // Disconnect is reported only once nothing is queued.
        tx.send(7);
        drop(tx);
        assert!(matches!(rx.drain_into(&mut batch), Recv::Item(())));
        assert_eq!(batch.pop_front(), Some(7));
        assert!(matches!(rx.drain_into(&mut batch), Recv::Disconnected));
    }

    #[test]
    fn a_dropped_receiver_drops_queued_items_outside_the_lock() {
        /// Sends on the channel it sits in when dropped: deadlocks if the receiver's drop
        /// still holds the queue lock.
        struct SendsOnDrop(Sender<Option<SendsOnDrop>>);
        impl Drop for SendsOnDrop {
            fn drop(&mut self) {
                assert!(!self.0.send(None), "the receiver is already gone");
            }
        }
        let (tx, rx) = channel();
        tx.send(Some(SendsOnDrop(tx.clone())));
        drop(rx);
    }

    #[test]
    fn blocking_receive_wakes_on_cross_thread_send() {
        let (tx, rx) = channel();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send(42u64);
        });
        match rx.recv_deadline(Some(Instant::now() + Duration::from_secs(5))) {
            Recv::Item(v) => assert_eq!(v, 42),
            _ => panic!("expected the sent item"),
        }
        t.join().unwrap();
    }

    #[test]
    fn deadline_expires_without_traffic() {
        let (_tx, rx) = channel::<u64>();
        let start = Instant::now();
        let r = rx.recv_deadline(Some(start + Duration::from_millis(20)));
        assert!(matches!(r, Recv::TimedOut));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn last_sender_drop_wakes_a_parked_receiver() {
        let (tx, rx) = channel::<u64>();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            drop(tx);
        });
        let r = rx.recv_deadline(Some(Instant::now() + Duration::from_secs(5)));
        assert!(matches!(r, Recv::Disconnected));
        t.join().unwrap();
    }
}
