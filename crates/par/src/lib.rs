//! `sor-par` — deterministic parallel execution for the SOR pipeline.
//!
//! The ROADMAP north-star is a server that survives "heavy traffic from
//! millions of users … as fast as the hardware allows". This crate
//! supplies the execution layer for the hot paths that fan out (inbox
//! decode, batched ranking, ranker columns, the lazy-greedy first
//! round) with two hard constraints:
//!
//! 1. **No unsafe.** Everything is built on [`std::thread::scope`],
//!    atomics, and the vendored `parking_lot` mutex.
//! 2. **Determinism.** [`par_map_min`] is *order-preserving*: the
//!    result vector is index-for-index identical to the sequential
//!    `map`, no matter how work is interleaved across workers. With a
//!    pure function, output at `SOR_THREADS=8` is bit-for-bit the output
//!    at `SOR_THREADS=1` — the golden-trace and recovery-equality tests
//!    in `sor-sim` depend on this.
//!
//! # Thread-count resolution
//!
//! The worker count is resolved, in order, from:
//!
//! 1. a process-wide programmatic override ([`set_threads`], or
//!    [`with_threads`] for one closure — the thread-equality tests use
//!    it to switch counts in-process),
//! 2. the `SOR_THREADS` environment variable (read once; `1` selects the
//!    exact sequential fallback),
//! 3. [`std::thread::available_parallelism`], capped at 8.
//!
//! # Example
//!
//! ```
//! let squares = sor_par::par_map_min(&[1u64, 2, 3, 4], 2, |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

/// Default cap on auto-detected parallelism (keeps scoped-spawn cost
/// bounded on very wide machines; raise explicitly via `SOR_THREADS`).
const DEFAULT_MAX_THREADS: usize = 8;

/// Process-wide programmatic override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serialises [`with_threads`] callers: the override is process-global
/// and the test harness runs a binary's tests on parallel threads.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// `SOR_THREADS` parsed once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SOR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The worker count [`par_map_min`] will use right now.
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(DEFAULT_MAX_THREADS)
}

/// Overrides the global worker count for this process (`1` forces the
/// exact sequential fallback). Passing `0` clears the override, falling
/// back to `SOR_THREADS` / auto-detection.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Restores the override it was built with on drop — on return and on
/// unwind alike — before releasing the lock.
struct Restore {
    previous: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        set_threads(self.previous);
    }
}

/// Runs `f` with the worker count overridden to `n` (as
/// [`set_threads`]), holding one process-wide lock so concurrent callers
/// never see each other's count, and restores the previous override
/// when `f` returns or panics. Calls do not nest: calling
/// `with_threads` from inside `f` deadlocks.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let lock = THREADS_LOCK.lock();
    let _restore = Restore { previous: THREAD_OVERRIDE.load(Ordering::Relaxed), _lock: lock };
    set_threads(n);
    f()
}

/// Order-preserving parallel map using the global thread knob, staying
/// sequential below `min_len` items — the cutoff call sites use so
/// scoped-spawn overhead never dominates tiny inputs. Equivalent to
/// `items.iter().map(f).collect()` — bit-for-bit — at any worker count;
/// panics from `f` propagate to the caller.
pub fn par_map_min<T, R, F>(items: &[T], min_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if items.len() < min_len { 1 } else { current_threads() };
    map_engine(workers, items, &f)
}

/// Core engine: workers pull item indices from a shared atomic cursor,
/// accumulate `(index, result)` pairs locally, and merge through a
/// mutex-guarded sink; the merge is sorted by index, so the output order
/// is independent of scheduling. Worker panics surface through
/// [`std::thread::scope`]'s join-on-exit.
fn map_engine<T, R, F>(workers: usize, items: &[T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let w = workers.min(n);
    if w <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..w {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                sink.lock().append(&mut local);
            });
        }
    });
    let mut tagged = sink.into_inner();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for w in [1, 2, 3, 8, 16] {
            let got = with_threads(w, || {
                assert_eq!(current_threads(), w);
                par_map_min(&items, 2, |x| x * 3 + 1)
            });
            assert_eq!(got, expect, "workers={w}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        with_threads(8, || {
            let empty: Vec<u8> = Vec::new();
            assert!(par_map_min(&empty, 0, |x| *x).is_empty());
            assert_eq!(par_map_min(&[9u8], 0, |x| *x + 1), vec![10]);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = with_threads(4, || {
            std::panic::catch_unwind(|| {
                par_map_min(&items, 2, |x| {
                    if *x == 33 {
                        panic!("boom at {x}");
                    }
                    *x
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn with_threads_overrides_and_restores_on_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(3, || {
                assert_eq!(current_threads(), 3);
                panic!("unwind through the override");
            })
        });
        assert!(caught.is_err());
        // Every override in this binary is set and cleared under the
        // lock, so holding it the raw override must be back to "not set".
        let _lock = THREADS_LOCK.lock();
        assert_eq!(THREAD_OVERRIDE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        let _lock = THREADS_LOCK.lock();
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(1);
        assert_eq!(current_threads(), 1);
        set_threads(0); // back to env / auto
        assert!(current_threads() >= 1);
    }
}
