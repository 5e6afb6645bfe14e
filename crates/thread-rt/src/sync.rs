//! Blocking synchronization primitives for the real-thread runtime: a binary
//! semaphore (the paper's `sem_locks` entries) and a dynamic-membership
//! barrier (the synchronous GVT rendezvous whose expected count changes as
//! threads de-schedule).

use pdes_core::plane::{lock, wait};
use std::sync::{Condvar, Mutex};

/// A counting semaphore saturating at a cap (binary with `cap = 1`), built
/// on a `std::sync` mutex and condition variable — `sem_wait` blocks without
/// consuming CPU, which is exactly the de-scheduling the paper relies on.
///
/// The semaphore can be *poisoned* (by the liveness watchdog or a panicking
/// sibling): a poisoned semaphore never blocks again — every current and
/// future `wait` returns immediately without consuming a token, so a stalled
/// run can always be drained instead of hanging in `join`.
pub struct Semaphore {
    state: Mutex<SemState>,
    cap: u32,
    cv: Condvar,
}

struct SemState {
    count: u32,
    poisoned: bool,
}

impl Semaphore {
    pub fn new(initial: u32, cap: u32) -> Self {
        assert!(cap >= 1 && initial <= cap);
        Semaphore {
            state: Mutex::new(SemState {
                count: initial,
                poisoned: false,
            }),
            cap,
            cv: Condvar::new(),
        }
    }

    /// Block until the count is positive, then decrement. Returns
    /// immediately (without decrementing) once poisoned.
    pub fn wait(&self) {
        let mut s = lock(&self.state);
        while s.count == 0 && !s.poisoned {
            s = wait(&self.cv, s);
        }
        if !s.poisoned {
            s.count -= 1;
        }
    }

    /// Increment (saturating) and wake one waiter.
    pub fn post(&self) {
        let mut s = lock(&self.state);
        s.count = (s.count + 1).min(self.cap);
        drop(s);
        self.cv.notify_one();
    }

    /// Non-blocking acquire attempt.
    pub fn try_wait(&self) -> bool {
        let mut s = lock(&self.state);
        if s.count > 0 {
            s.count -= 1;
            true
        } else {
            false
        }
    }

    /// Make every current and future `wait` return immediately (emergency
    /// drain for watchdog trips and panic unwinding).
    pub fn poison(&self) {
        lock(&self.state).poisoned = true;
        self.cv.notify_all();
    }

    /// Tokens currently held (diagnostics).
    pub fn tokens(&self) -> u32 {
        lock(&self.state).count
    }
}

/// A generation barrier whose expected arrival count may change while
/// threads wait (a de-scheduling thread leaves the group; the update
/// re-checks completion so waiters are not stranded).
pub struct DynBarrier {
    inner: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    expected: usize,
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl DynBarrier {
    pub fn new(expected: usize) -> Self {
        assert!(expected >= 1);
        DynBarrier {
            inner: Mutex::new(BarrierState {
                expected,
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Arrive and block until the current generation completes. Returns
    /// `true` for exactly one arriver per generation (the "serial" thread).
    /// A poisoned barrier never blocks: every arrival passes straight
    /// through as a non-serial waiter.
    pub fn wait(&self) -> bool {
        let mut s = lock(&self.inner);
        if s.poisoned {
            return false;
        }
        let gen = s.generation;
        s.arrived += 1;
        if s.arrived >= s.expected {
            s.arrived = 0;
            s.generation += 1;
            drop(s);
            self.cv.notify_all();
            return true;
        }
        while s.generation == gen && !s.poisoned {
            s = wait(&self.cv, s);
        }
        false
    }

    /// Release every waiter and make all future arrivals pass through
    /// (emergency drain for watchdog trips and panic unwinding).
    pub fn poison(&self) {
        lock(&self.inner).poisoned = true;
        self.cv.notify_all();
    }

    /// Change the expected count, completing the generation if the change
    /// satisfies it.
    pub(crate) fn set_expected(&self, expected: usize) {
        assert!(expected >= 1);
        let mut s = lock(&self.inner);
        s.expected = expected;
        if s.arrived >= s.expected {
            s.arrived = 0;
            s.generation += 1;
            drop(s);
            self.cv.notify_all();
        }
    }

    pub fn expected(&self) -> usize {
        lock(&self.inner).expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn semaphore_blocks_until_post() {
        let sem = Arc::new(Semaphore::new(0, 1));
        let hits = Arc::new(AtomicUsize::new(0));
        let (s2, h2) = (Arc::clone(&sem), Arc::clone(&hits));
        let h = std::thread::spawn(move || {
            s2.wait();
            h2.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "must still be blocked");
        sem.post();
        h.join().expect("join");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn binary_semaphore_saturates() {
        let sem = Semaphore::new(0, 1);
        sem.post();
        sem.post();
        sem.post();
        assert!(sem.try_wait());
        assert!(!sem.try_wait(), "binary semaphore holds at most one token");
    }

    #[test]
    fn barrier_releases_all_and_elects_one_serial() {
        let bar = Arc::new(DynBarrier::new(4));
        let serials = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&bar);
                let s = Arc::clone(&serials);
                std::thread::spawn(move || {
                    if b.wait() {
                        s.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(serials.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shrinking_expected_releases_waiters() {
        let bar = Arc::new(DynBarrier::new(3));
        let b = Arc::clone(&bar);
        let h = std::thread::spawn(move || b.wait());
        std::thread::sleep(Duration::from_millis(30));
        // Two of three "leave": expected drops to 1, completing the round.
        bar.set_expected(1);
        h.join().expect("join");
    }

    #[test]
    fn poisoned_semaphore_releases_waiter_and_never_blocks() {
        let sem = Arc::new(Semaphore::new(0, 1));
        let s2 = Arc::clone(&sem);
        let h = std::thread::spawn(move || s2.wait());
        std::thread::sleep(Duration::from_millis(30));
        sem.poison();
        h.join().expect("join");
        // Future waits return immediately and keep any tokens intact.
        sem.post();
        sem.wait();
        assert_eq!(sem.tokens(), 1);
    }

    #[test]
    fn poisoned_barrier_releases_waiters() {
        let bar = Arc::new(DynBarrier::new(3));
        let b = Arc::clone(&bar);
        let h = std::thread::spawn(move || b.wait());
        std::thread::sleep(Duration::from_millis(30));
        bar.poison();
        assert!(!h.join().expect("join"), "poisoned release is non-serial");
        assert!(!bar.wait(), "future arrivals pass straight through");
    }

    #[test]
    fn barrier_generations_are_reusable() {
        let bar = Arc::new(DynBarrier::new(2));
        for _ in 0..3 {
            let b = Arc::clone(&bar);
            let h = std::thread::spawn(move || b.wait());
            bar.wait();
            h.join().expect("join");
        }
    }
}
