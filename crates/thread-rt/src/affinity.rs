//! CPU affinity via `sched_setaffinity` (Linux) with a graceful no-op
//! fallback elsewhere.
//!
//! The paper pins POSIX threads with `pthread_setaffinity_np` (constant
//! affinity, Algorithm 3) and re-pins running threads with
//! `sched_setaffinity` (dynamic affinity, Algorithm 4). Both reduce to the
//! same syscall on Linux; we address threads by kernel tid so any thread can
//! re-pin any other. Which core a thread belongs on (Algorithm 4's tables)
//! is `pdes_core::AffinityTable`'s business; this file only enacts pins.

use std::sync::atomic::{AtomicU64, Ordering};

/// A kernel thread id usable as a `sched_setaffinity` target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsTid(pub i64);

/// The calling thread's kernel tid.
#[cfg(target_os = "linux")]
pub(crate) fn current_tid() -> OsTid {
    // SAFETY: gettid has no preconditions.
    OsTid(unsafe { libc::syscall(libc::SYS_gettid) })
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn current_tid() -> OsTid {
    OsTid(0)
}

/// Pin `tid` to a single core. Returns whether the kernel accepted the mask
/// (failures — e.g. the core does not exist on this host — are reported, not
/// fatal: the experiment degrades to kernel scheduling).
#[cfg(target_os = "linux")]
pub(crate) fn pin_to_core(tid: OsTid, core: usize) -> bool {
    // SAFETY: CPU_SET manipulates a local cpu_set_t; sched_setaffinity
    // validates the tid and mask.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        if core >= libc::CPU_SETSIZE as usize {
            return false;
        }
        libc::CPU_SET(core, &mut set);
        libc::sched_setaffinity(
            tid.0 as libc::pid_t,
            std::mem::size_of::<libc::cpu_set_t>(),
            &set,
        ) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_to_core(_tid: OsTid, _core: usize) -> bool {
    false
}

/// [`pin_to_core`], counting a rejection in `failures` (the `pin_failures`
/// run metric) and logging the first one — once per process: a host that
/// rejects one pin typically rejects them all, and repeating the warning per
/// GVT round would swamp the output.
pub(crate) fn pin_or_count(tid: OsTid, core: usize, failures: &AtomicU64) -> bool {
    let ok = pin_to_core(tid, core);
    if !ok {
        failures.fetch_add(1, Ordering::Relaxed);
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            eprintln!(
                "warning: sched_setaffinity rejected core {core}; \
                 falling back to kernel scheduling (counted in pin_failures)"
            );
        });
    }
    ok
}

/// Number of online cores.
pub fn num_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_tid_is_stable_within_thread() {
        assert_eq!(current_tid(), current_tid());
    }

    #[test]
    fn tids_differ_across_threads() {
        if cfg!(not(target_os = "linux")) {
            return;
        }
        let a = current_tid();
        let b = std::thread::spawn(current_tid).join().expect("join");
        assert_ne!(a, b);
    }

    #[test]
    fn pin_to_core_zero_succeeds_on_linux() {
        if cfg!(not(target_os = "linux")) {
            return;
        }
        // On a thread of its own, so the pin ends with it.
        let pinned = std::thread::spawn(|| pin_to_core(current_tid(), 0));
        assert!(pinned.join().expect("join"), "core 0 always exists");
    }

    #[test]
    fn pin_to_absurd_core_fails_gracefully() {
        assert!(!pin_to_core(current_tid(), 1 << 20));
    }

    #[test]
    fn num_cores_positive() {
        assert!(num_cores() >= 1);
    }

    #[test]
    fn a_rejected_pin_is_counted_not_fatal() {
        // A tid no kernel thread has: the syscall fails deterministically
        // without pinning the test runner.
        let failures = AtomicU64::new(0);
        assert!(!pin_or_count(OsTid(i64::MAX), 0, &failures));
        assert_eq!(failures.load(Ordering::Relaxed), 1);
    }
}
