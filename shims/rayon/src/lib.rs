//! Offline stand-in for `rayon`.
//!
//! This build environment has no access to crates.io, so the workspace
//! vendors the slice of the rayon API the simulator uses: `Vec::into_par_iter
//! ().map(f).collect()` plus a `ThreadPoolBuilder`/`ThreadPool::install`
//! pair that bounds worker-thread count for the closure it runs.
//!
//! Semantics guaranteed (and relied on by the simulator's determinism
//! tests): the mapped results are collected **in input order**, and the
//! worker-thread count never affects which element is mapped with which
//! input — only wall-clock speed. Items are handed out dynamically: each
//! `std::thread::scope` worker claims the next unclaimed input index from a
//! shared atomic counter, so one slow item does not leave the other threads
//! idle behind a fixed split. A panic in `f` is re-raised in the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel operations will use on this thread.
pub fn current_num_threads() -> usize {
    POOL_LIMIT
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Error type mirroring rayon's `ThreadPoolBuildError` (infallible here).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of worker threads (0 means "use the default").
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never fails in the shim; the `Result` mirrors the real API.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self
                .num_threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        })
    }
}

/// A handle bounding worker-thread count for closures run via
/// [`ThreadPool::install`].
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing parallel operations
    /// invoked inside it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let previous = POOL_LIMIT.with(|limit| limit.replace(Some(self.num_threads)));
        let result = f();
        POOL_LIMIT.with(|limit| limit.set(previous));
        result
    }

    /// The pool's worker-thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Parallel-iterator entry points, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelIterator};
}

/// Conversion into the shim's parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// An owned, order-preserving parallel iterator over a `Vec`.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
}

/// The operations available on the shim's parallel iterators.
pub trait ParallelIterator: Sized {
    /// Element type.
    type Item: Send;

    /// Maps every element through `f` in parallel, preserving input order.
    fn map<R, F>(self, f: F) -> ParMap<Self::Item, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send;
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator, executed by [`ParMap::collect`].
#[derive(Debug)]
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F> ParMap<T, F> {
    /// Executes the map across worker threads and collects the results in
    /// input order.
    pub fn collect<R, C>(self) -> C
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
        C: FromIterator<R>,
    {
        let ParMap { items, f } = self;
        let len = items.len();
        let threads = crate::current_num_threads().min(len).max(1);
        if threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Each slot is taken exactly once, by the worker that claimed its
        // index; the mutex only moves the item out of the shared vector.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut mapped = Vec::new();
            loop {
                // Relaxed: the counter publishes no data; the item itself
                // is handed over through its slot's mutex.
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(index) else {
                    return mapped;
                };
                let item = slot
                    .lock()
                    .expect("a slot is never locked while an item is mapped")
                    .take()
                    .expect("every index is claimed once");
                mapped.push((index, f(item)));
            }
        };
        let per_thread: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
        for (index, result) in per_thread.into_iter().flatten() {
            results[index] = Some(result);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index is mapped"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::ThreadPoolBuilder;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x * 2)
            .collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn install_bounds_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen = pool.install(super::current_num_threads);
        assert_eq!(seen, 3);
        assert_ne!(super::current_num_threads(), 0);
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let input: Vec<u64> = (0..257).collect();
        let run = |threads: usize| -> Vec<u64> {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| input.clone().into_par_iter().map(|x| x * x).collect())
        };
        assert_eq!(run(1), run(7));
    }

    fn pool(threads: usize) -> super::ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn order_survives_heavily_skewed_item_costs() {
        // The first and the last item each cost far more than all the
        // others together, so workers finish far out of input order.
        let slow = |x: u64| -> u64 {
            let rounds = if x == 0 || x == 63 { 2_000_000 } else { 1_000 };
            (0..rounds).fold(x, |acc, i| std::hint::black_box(acc ^ i)) ^ (x * 3)
        };
        let expected: Vec<u64> = (0..64).map(slow).collect();
        for threads in [1, 2, 3, 8] {
            let out: Vec<u64> = pool(threads).install(|| {
                (0..64)
                    .collect::<Vec<u64>>()
                    .into_par_iter()
                    .map(slow)
                    .collect()
            });
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn every_item_is_mapped_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let seen: Vec<usize> = pool(threads).install(|| {
                (0..1000)
                    .collect::<Vec<usize>>()
                    .into_par_iter()
                    .map(|x| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        x
                    })
                    .collect()
            });
            assert_eq!(calls.load(Ordering::Relaxed), 1000, "{threads} threads");
            assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let result = std::panic::catch_unwind(|| {
            pool(4).install(|| {
                let out: Vec<u32> = (0..100)
                    .collect::<Vec<u32>>()
                    .into_par_iter()
                    .map(|x| {
                        assert_ne!(x, 57, "item 57 fails");
                        x
                    })
                    .collect();
                out
            })
        });
        let payload = result.expect_err("the worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("item 57 fails"), "{message}");
    }
}
