//! The message plane: per-thread input queues plus the two minima that keep
//! every in-flight message inside GVT accounting.
//!
//! Every runtime that moves messages between simulation threads through
//! memory — real threads (`thread-rt`, `cons-rt`) and the virtual machine
//! (`sim-rt`) — holds one [`MessagePlane`] and runs exactly this code, and
//! lands every message in it through a [`SendBatcher`](crate::SendBatcher).
//!
//! # Transient-message coverage (DESIGN.md §8)
//!
//! A GVT estimate is `min(folded local minima, transient_min())`, so the
//! estimate is safe iff at every instant each unprocessed message is at or
//! above one of: its sender's **window minimum** (`window_min[sender]`,
//! reset only by the sender's own [`MessagePlane::take_window`] at its GVT
//! fold), its destination's **queue minimum** (`queue_min[dst]`, reset only
//! by the destination's own drain), or the destination's pending set (which
//! the destination folds itself). Three rules keep that true:
//!
//! 1. **Window published before the push.**
//!    [`SendBatcher::buffer`](crate::SendBatcher::buffer) has the plane
//!    cover the message *first* ([`SendSink::cover`] lowers the sender's
//!    window); the bulk push and its queue-minimum update follow.
//!    From that instant to the sender's next fold the window covers the
//!    message, so every fold lands its sender's buffers first.
//! 2. **Queue minimum re-covered before any reduction can see the reset.**
//!    A drain resets `queue_min` and then hands every message it took to
//!    its caller — who folds its pending minimum only after delivering them
//!    — and a *chaos* drain restores the minimum of everything it held back
//!    before it returns. A push racing the reset re-publishes after its
//!    enqueue, and is covered by its sender's window meanwhile.
//! 3. **Held messages never leave the accounting.** The chaos hold-back
//!    buffer stays inside `queue_len` and under `queue_min`, so neither a
//!    reduction nor an activation scan loses sight of a deferred message.

use crate::batch::SendSink;
use crate::event::Msg;
use crate::faults::{chaos_filter, FaultInjector};
use crate::time::VirtualTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Pads and aligns a value to 128 bytes so neighbouring per-thread cells
/// never share a cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

pub(crate) fn padded<T>(n: usize, init: impl Fn() -> T) -> Vec<CachePadded<T>> {
    (0..n).map(|_| CachePadded::new(init())).collect()
}

/// Lock a mutex whose data is valid at every step — no model code runs
/// under it, only queue moves, counters and flags — so a poisoned guard (a
/// sibling panicked elsewhere while holding it) is recovered, not
/// propagated. The one place the workspace ignores lock poisoning.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`lock`]'s twin for a condition variable: block until notified and hand
/// the guard back whether or not another holder panicked meanwhile.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// One thread's input queue: a mutex-guarded FIFO taken once per bulk push
/// and once per drain. Many producers, one consumer (the owning thread).
/// A drain into an empty buffer swaps the two, so the queue's messages
/// change hands without a copy and the two buffers keep their capacity.
struct InputQueue<T>(Mutex<Vec<T>>);

impl<T> InputQueue<T> {
    /// Move every element of `items` in under one lock, preserving order.
    fn push_batch(&self, items: &mut Vec<T>) {
        lock(&self.0).append(items);
    }

    /// Move the whole queue to the end of `out` under one lock, preserving
    /// order: by a swap of buffers when `out` is empty.
    fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut q = lock(&self.0);
        let n = q.len();
        if out.is_empty() {
            std::mem::swap(&mut *q, out);
        } else {
            out.append(&mut q);
        }
        n
    }
}

fn fetch_min(cell: &AtomicU64, t: VirtualTime) {
    cell.fetch_min(t.ticks(), Ordering::AcqRel);
}

fn load_vt(cell: &AtomicU64) -> VirtualTime {
    VirtualTime::from_ticks(cell.load(Ordering::Acquire))
}

/// Input queues, their coverage minima, the chaos hold-back buffers and the
/// fault injector that drives them — for `n` simulation threads.
pub struct MessagePlane<P> {
    queues: Vec<InputQueue<Msg<P>>>,
    /// Messages waiting for each thread: queued plus held back by chaos.
    pub queue_len: Vec<CachePadded<AtomicUsize>>,
    queue_min: Vec<CachePadded<AtomicU64>>,
    window_min: Vec<CachePadded<AtomicU64>>,
    /// Per-thread chaos hold-back buffer: messages a faulty drain deferred
    /// wait here and are delivered at the *front* of the next drain (they
    /// are older than anything still queued, so per-uid FIFO survives).
    /// Only thread `i` touches `held[i]`, so the mutex is uncontended.
    held: Vec<CachePadded<Mutex<VecDeque<Msg<P>>>>>,
    /// The chaos hooks (inert unless a fault plan was configured).
    pub faults: FaultInjector,
}

impl<P> MessagePlane<P> {
    pub fn new(num_threads: usize) -> Self {
        MessagePlane {
            queues: (0..num_threads)
                .map(|_| InputQueue(Mutex::new(Vec::new())))
                .collect(),
            queue_len: padded(num_threads, || AtomicUsize::new(0)),
            queue_min: padded(num_threads, || AtomicU64::new(u64::MAX)),
            window_min: padded(num_threads, || AtomicU64::new(u64::MAX)),
            held: padded(num_threads, || Mutex::new(VecDeque::new())),
            faults: FaultInjector::disabled(),
        }
    }

    /// Messages waiting for thread `i` (queued plus held back).
    #[inline]
    pub fn len(&self, i: usize) -> usize {
        self.queue_len[i].load(Ordering::Acquire)
    }

    /// Publish `t` into `me`'s send window *without* enqueueing: a
    /// buffered message is invisible to the destination's queue minimum, so
    /// it must stay under the sender's window until the bulk push lands it
    /// (coverage rule 1): land before every [`Self::take_window`].
    #[inline]
    pub fn publish_window(&self, me: usize, t: VirtualTime) {
        fetch_min(&self.window_min[me], t);
    }

    /// Drain `me`'s input into `out`; returns the number delivered. Under a
    /// fault plan [`chaos_filter`] decides what delivers now and what is
    /// held back (coverage rules 2 and 3).
    pub fn drain(&self, me: usize, out: &mut Vec<Msg<P>>) -> usize {
        self.queue_min[me].store(u64::MAX, Ordering::Release);
        let delivered = if self.faults.is_enabled() {
            // Held messages cannot be re-pushed onto the queue: they would
            // land *behind* newer pushes and a same-uid successor (a re-sent
            // positive) could overtake its deferred anti.
            let mut held = lock(&self.held[me]);
            let mut batch = Vec::new();
            let taken = held.len() + self.queues[me].drain_into(&mut batch);
            chaos_filter(&self.faults, &mut batch, &mut held);
            for m in held.iter() {
                fetch_min(&self.queue_min[me], m.recv_time());
            }
            out.append(&mut batch);
            taken - held.len()
        } else {
            self.queues[me].drain_into(out)
        };
        if delivered > 0 {
            self.queue_len[me].fetch_sub(delivered, Ordering::AcqRel);
        }
        delivered
    }

    /// Chaos-exempt drain for checkpoint cuts: the hold-back buffer, then
    /// the whole queue, with no deferral or reordering. Every message sent
    /// before the cut GVT was folded into that GVT (rule 1), so after this
    /// drain the engine holds every cut-crossing event; anything pushed
    /// later carries a send time at or above the cut.
    pub fn drain_clean(&self, me: usize, out: &mut Vec<Msg<P>>) -> usize {
        self.queue_min[me].store(u64::MAX, Ordering::Release);
        let mut held = lock(&self.held[me]);
        let mut n = held.len();
        out.extend(held.drain(..));
        n += self.queues[me].drain_into(out);
        if n > 0 {
            self.queue_len[me].fetch_sub(n, Ordering::AcqRel);
        }
        n
    }

    /// Take (and reset) `me`'s send window — the GVT fold. The caller folds
    /// the returned minimum together with its pending-set minimum into the
    /// round; everything `me` sent before this call is covered by that fold.
    pub fn take_window(&self, me: usize) -> VirtualTime {
        VirtualTime::from_ticks(self.window_min[me].swap(u64::MAX, Ordering::AcqRel))
    }

    /// `true` when `me` has no unfolded send window: its last sends are
    /// already inside GVT accounting — part of the deactivation condition.
    pub fn window_is_clear(&self, me: usize) -> bool {
        self.window_min[me].load(Ordering::Acquire) == u64::MAX
    }

    /// The transient-message bound: the minimum over every residual send
    /// window and every queue minimum. No queued, held or window-covered
    /// message is below it.
    pub fn transient_min(&self) -> VirtualTime {
        let cells = self.window_min.iter().chain(&self.queue_min);
        cells
            .map(|c| load_vt(c))
            .min()
            .unwrap_or(VirtualTime::INFINITY)
    }

    /// Thread `i`'s `(window minimum, queue minimum)`, for stall dumps.
    pub fn minima(&self, i: usize) -> (VirtualTime, VirtualTime) {
        (load_vt(&self.window_min[i]), load_vt(&self.queue_min[i]))
    }
}

/// The plane is a sink as it is: a cover publishes the sender's window, a
/// batch takes one queue lock and one length update.
impl<P> SendSink<P> for &MessagePlane<P> {
    fn cover(&mut self, me: usize, t: VirtualTime) {
        self.publish_window(me, t);
    }

    fn push_batch(&mut self, dst: usize, msgs: &mut Vec<Msg<P>>) {
        let n = msgs.len();
        let Some(t) = msgs.iter().map(Msg::recv_time).min() else {
            return;
        };
        self.queues[dst].push_batch(msgs);
        fetch_min(&self.queue_min[dst], t);
        self.queue_len[dst].fetch_add(n, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SendBatcher;
    use crate::event::{Event, EventKey};
    use crate::faults::{DelayFault, FaultPlan, ReorderFault, StragglerFault};
    use crate::ids::{EventUid, LpId};

    #[test]
    fn lock_and_wait_hand_out_the_guard_after_a_holder_panicked() {
        let pair = std::sync::Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = std::sync::Arc::clone(&pair);
        let holder = std::thread::spawn(move || {
            let mut g = p2.0.lock().expect("first holder");
            *g = 7;
            panic!("die holding the lock");
        });
        assert!(holder.join().is_err());
        assert!(pair.0.is_poisoned());
        assert_eq!(*lock(&pair.0), 7, "the data the holder left is handed out");
        // A waiter woken on the poisoned mutex gets its guard back too.
        let p3 = std::sync::Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let mut g = lock(&p3.0);
            while *g != 8 {
                g = wait(&p3.1, g);
            }
        });
        *lock(&pair.0) = 8;
        pair.1.notify_all();
        waiter.join().expect("the waiter must not see the poison");
    }

    fn msg(t: f64) -> Msg<()> {
        // Distinct uid per timestamp: chaos filters deliberately refuse to
        // split or reorder same-uid messages, which is not what these tests
        // exercise.
        Msg::Anti(EventKey {
            recv_time: VirtualTime::from_f64(t),
            dst: LpId(0),
            uid: EventUid::new(LpId(0), t.to_bits()),
        })
    }

    /// A one-message landing: a buffer plus a flush.
    fn send(p: &MessagePlane<()>, from: usize, dst: usize, m: Msg<()>) {
        let mut b = SendBatcher::new(p.queue_len.len(), 64);
        b.buffer(p, from, dst, m);
        b.flush(p);
    }

    fn chaos(n: usize, plan: FaultPlan) -> MessagePlane<()> {
        let mut p = MessagePlane::new(n);
        p.faults = FaultInjector::new(plan);
        p
    }

    #[test]
    fn push_and_drain_maintain_length_and_minima() {
        let p = MessagePlane::new(2);
        send(&p, 0, 1, msg(5.0));
        send(&p, 0, 1, msg(3.0));
        assert_eq!(p.len(1), 2);
        let three = VirtualTime::from_f64(3.0);
        assert_eq!(p.minima(1).1, three, "queue minimum");
        assert_eq!(p.minima(0).0, three, "sender's window");
        let mut out = Vec::new();
        assert_eq!(p.drain(1, &mut out), 2);
        assert_eq!(p.len(1), 0);
        assert_eq!(p.minima(1).1, VirtualTime::INFINITY);
        // The window outlives the drain: only the sender's fold resets it.
        assert_eq!(p.transient_min(), three);
        assert_eq!(p.take_window(0), three);
        assert!(p.window_is_clear(0));
        assert_eq!(p.transient_min(), VirtualTime::INFINITY);
    }

    #[test]
    fn faulty_drain_keeps_deferred_messages_covered() {
        let p = chaos(
            2,
            FaultPlan {
                seed: 1,
                delay: Some(DelayFault { prob: 1.0 }),
                ..FaultPlan::default()
            },
        );
        send(&p, 0, 1, msg(5.0));
        send(&p, 0, 1, msg(3.0));
        let mut out = Vec::new();
        // Everything defers: nothing delivered, queue accounting intact.
        assert_eq!(p.drain(1, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(p.len(1), 2);
        // The held-back minimum still pins the reduction after the sender's
        // fold.
        p.take_window(0);
        assert_eq!(p.transient_min(), VirtualTime::from_f64(3.0));
        // A clean drain flushes the hold buffer, oldest first.
        assert_eq!(p.drain_clean(1, &mut out), 2);
        assert_eq!(p.len(1), 0);
        assert_eq!(p.transient_min(), VirtualTime::INFINITY);
    }

    #[test]
    fn straggler_hold_keeps_minimum_resident() {
        let p = chaos(
            2,
            FaultPlan {
                seed: 2,
                straggler: Some(StragglerFault {
                    prob: 1.0,
                    max_storms: 1,
                }),
                ..FaultPlan::default()
            },
        );
        send(&p, 0, 1, msg(5.0));
        send(&p, 0, 1, msg(3.0));
        send(&p, 0, 1, msg(7.0));
        let mut out = Vec::new();
        assert_eq!(p.drain(1, &mut out), 2, "minimum held back");
        assert!(out
            .iter()
            .all(|m| m.recv_time() > VirtualTime::from_f64(3.5)));
        assert_eq!(p.len(1), 1);
        // Budget exhausted: the straggler delivers on the next drain.
        out.clear();
        assert_eq!(p.drain(1, &mut out), 1);
        assert_eq!(out[0].recv_time(), VirtualTime::from_f64(3.0));
    }

    #[test]
    fn cancel_then_resend_pairs_keep_their_order() {
        // An anti-message followed by the re-sent positive twin (same uid)
        // models rollback's cancel-then-resend on one channel. No chaos
        // filter may swap them: the pending set panics on a positive that
        // arrives twice without its anti in between.
        let p = chaos(
            2,
            FaultPlan {
                seed: 4,
                delay: Some(DelayFault { prob: 0.5 }),
                reorder: Some(ReorderFault { prob: 1.0 }),
                ..FaultPlan::default()
            },
        );
        let k = EventKey {
            recv_time: VirtualTime::from_f64(2.0),
            dst: LpId(0),
            uid: EventUid::new(LpId(1), 9),
        };
        for round in 0..32u64 {
            send(&p, 0, 1, msg(100.0 + round as f64)); // distinct-uid decoy
            send(&p, 0, 1, Msg::Anti(k));
            send(
                &p,
                0,
                1,
                Msg::Event(Event {
                    key: k,
                    send_time: VirtualTime::from_f64(0.0),
                    payload: (),
                }),
            );
            let mut seen = Vec::new();
            for _ in 0..8 {
                let mut out = Vec::new();
                p.drain(1, &mut out);
                seen.extend(out.iter().filter(|m| m.key() == k).map(|m| m.is_anti()));
                if seen.len() == 2 {
                    break;
                }
            }
            assert_eq!(
                seen,
                [true, false],
                "round {round}: anti must precede its re-sent positive"
            );
        }
    }
}
