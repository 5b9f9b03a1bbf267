//! # lcrec-par
//!
//! A small, dependency-free parallel-execution subsystem for the workspace:
//! a scoped thread pool built on `std::thread::scope` with a chunked work
//! queue and **deterministic ordered reduction**.
//!
//! Design rules (see DESIGN.md "Threading model"):
//!
//! * **Determinism is a hard requirement.** Work is split into chunks whose
//!   boundaries depend only on the input size — never on the thread count —
//!   and results are always reassembled (and reduced) in chunk-index order.
//!   Threads race only over *which worker computes which chunk*; the values
//!   and their combination order are identical at any thread count, so
//!   parallel and serial runs produce bit-identical floating-point results.
//! * **Serial fallback.** At `threads = 1` (or for single-chunk inputs) no
//!   threads are spawned and closures run inline on the caller's stack.
//! * **`LCREC_THREADS` override.** [`Pool::from_env`] reads the variable on
//!   every call; unset or unparsable values fall back to the machine's
//!   available parallelism.
//!
//! The pool is deliberately scoped (no long-lived worker threads, no
//! channels): each [`Pool::map`] call spawns workers for its own lifetime,
//! which keeps borrow scopes simple — closures may freely borrow the
//! caller's data — and leaves nothing running between calls.
//!
//! [`Pool::for_each_mut`] is the one primitive for work that mutates its
//! input in place (the fused LM step's lanes): a static contiguous
//! partition of disjoint `&mut` parts, no queue, no recompute seam.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "LCREC_THREADS";

/// Thread count requested by the environment: `LCREC_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism
/// (clamped to at least 1).
pub fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A deterministic scoped thread pool.
///
/// `Pool` is a lightweight handle (just a thread count); workers are
/// spawned per call via `std::thread::scope`, so a `Pool` can be freely
/// copied, stored in configs, or created ad hoc around a hot loop.
///
/// # Examples
///
/// ```
/// use lcrec_par::Pool;
///
/// let items: Vec<f32> = (0..100).map(|i| i as f32 * 0.1).collect();
/// let work = |i: usize, x: &f32| x.sin() * (i as f32 + 1.0);
///
/// // Results are in input order and bit-identical at any thread count.
/// let serial: Vec<f32> = Pool::serial().map(&items, work);
/// let parallel: Vec<f32> = Pool::new(4).map(&items, work);
/// assert_eq!(serial, parallel);
///
/// // Ordered reduction: same guarantee for fold-style aggregation.
/// let sum = Pool::new(4).map_reduce(items.len(), |i| items[i], 0.0f32, |a, b| a + b);
/// assert_eq!(sum.to_bits(), items.iter().sum::<f32>().to_bits());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool { threads: threads.max(1) }
    }

    /// A serial pool (1 thread; every call runs inline).
    pub fn serial() -> Pool {
        Pool { threads: 1 }
    }

    /// A pool sized by [`threads_from_env`] (`LCREC_THREADS` override,
    /// machine parallelism otherwise).
    pub fn from_env() -> Pool {
        Pool::new(threads_from_env())
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool runs everything inline on the caller's thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Chunk size used for `n` items: small enough that each worker gets
    /// several chunks (dynamic load balancing), large enough to amortize
    /// queue traffic. Depends only on `n` and an internal constant — never
    /// on the thread count — so chunk boundaries (and therefore reduction
    /// order) are identical at any `LCREC_THREADS`.
    fn chunk_size(n: usize) -> usize {
        // 8 chunks per 4-way worker set at n=32 keeps the queue busy; the
        // constant is fixed so boundaries never move with the pool size.
        const TARGET_CHUNKS: usize = 16;
        n.div_ceil(TARGET_CHUNKS).max(1)
    }

    /// Applies `f(index, &item)` to every item and returns the results in
    /// input order. Bit-identical to the serial loop at any thread count.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_range(items.len(), |i| f(i, &items[i])) // lint: allow(panic, reason = "map_range yields i in 0..items.len() by contract")
    }

    /// Applies `f(i)` for `i in 0..n` and returns the results in index
    /// order. The parallel path splits `0..n` into fixed chunks, hands them
    /// to workers through an atomic work queue, and reassembles the chunk
    /// outputs by chunk index — first-come-first-served scheduling never
    /// leaks into the output order.
    pub fn map_range<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunk = Self::chunk_size(n);
        let n_chunks = n.div_ceil(chunk);
        let obs_on = lcrec_obs::enabled();
        if obs_on {
            // Recorded identically on the serial and parallel paths (the
            // chunk count is a pure function of n), so the deterministic
            // observability section matches across LCREC_THREADS settings.
            lcrec_obs::counter_add("par.jobs", 1);
            lcrec_obs::counter_add("par.chunks", n_chunks as u64);
        }
        // Transient worker faults (`LCREC_FAULT`, default off): a chunk's
        // output can be "lost" and recomputed. Decisions are a stateless
        // function of the chunk index — never of which worker ran it or a
        // shared call counter — so the retry schedule, the final outputs
        // and the `par.fault_retries` counter are identical at any thread
        // count, including the inline serial path. The third attempt
        // always keeps its output, bounding the injected work.
        let plan = lcrec_fault::env_plan();
        let compute_chunk = |c: usize| -> Vec<U> {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let mut failures = 0u64;
            loop {
                let out: Vec<U> = (start..end).map(&f).collect();
                if failures >= 2
                    || !plan.should_fail_at(
                        lcrec_fault::seams::PAR_WORKER,
                        ((c as u64) << 2) | failures,
                    )
                {
                    return out;
                }
                failures += 1;
                lcrec_obs::counter_add("par.fault_retries", 1);
            }
        };
        if self.threads == 1 || n_chunks == 1 {
            let mut out = Vec::with_capacity(n);
            for c in 0..n_chunks {
                out.append(&mut compute_chunk(c));
            }
            return out;
        }
        let workers = self.threads.min(n_chunks);
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(n_chunks));
        let locals: Mutex<Vec<(usize, lcrec_obs::LocalObs)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let (next, done, locals, compute_chunk) = (&next, &done, &locals, &compute_chunk);
            for wi in 0..workers {
                s.spawn(move || {
                    let spawned = if obs_on { Some(Instant::now()) } else { None }; // lint: allow(det, reason = "obs-gated profiling timestamp; busy-time metrics never influence chunk assignment or outputs")
                    let mut busy = 0.0f64;
                    let mut local = lcrec_obs::LocalObs::new();
                    // Each worker drains chunks until the queue is empty,
                    // buffering its (chunk index, outputs) pairs locally so
                    // the shared lock is touched once per chunk.
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        if obs_on {
                            local.profile_record("par.queue_depth", (n_chunks - c) as f64);
                        }
                        let t0 = if obs_on { Some(Instant::now()) } else { None }; // lint: allow(det, reason = "obs-gated profiling timestamp; busy-time metrics never influence chunk assignment or outputs")
                        let out: Vec<U> = compute_chunk(c);
                        if let Some(t0) = t0 {
                            busy += t0.elapsed().as_secs_f64();
                        }
                        let mut guard = match done.lock() {
                            Ok(g) => g,
                            // A poisoned lock only means another worker
                            // panicked; that panic propagates from scope()
                            // anyway, so the data is still sound to touch.
                            Err(p) => p.into_inner(),
                        };
                        guard.push((c, out));
                    }
                    if let Some(spawned) = spawned {
                        let total = spawned.elapsed().as_secs_f64();
                        local.profile_record("par.worker_busy_s", busy);
                        local.profile_record("par.worker_idle_s", (total - busy).max(0.0));
                        let mut guard = match locals.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        guard.push((wi, local));
                    }
                });
            }
        });
        if obs_on {
            let mut per_worker = match locals.into_inner() {
                Ok(v) => v,
                Err(p) => p.into_inner(),
            };
            // Merge worker buffers by spawn index, never completion order,
            // so registry contents are independent of scheduling.
            per_worker.sort_unstable_by_key(|(wi, _)| *wi);
            for (_, local) in per_worker {
                local.merge_global();
            }
        }
        let mut parts = match done.into_inner() {
            Ok(p) => p,
            Err(p) => p.into_inner(),
        };
        // Ordered reduction: chunk index, not completion order.
        parts.sort_unstable_by_key(|(c, _)| *c);
        let mut out = Vec::with_capacity(n);
        for (_, mut part) in parts {
            out.append(&mut part);
        }
        out
    }

    /// Maps every index and folds the results **in index order** — the
    /// deterministic reduction primitive. `fold` sees `f(0)`, `f(1)`, … in
    /// exactly that sequence regardless of which worker produced each value,
    /// so non-associative reductions (floating-point sums) are reproducible.
    pub fn map_reduce<U, A, F, R>(&self, n: usize, f: F, init: A, mut fold: R) -> A
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
        R: FnMut(A, U) -> A,
    {
        let mut acc = init;
        for v in self.map_range(n, f) {
            acc = fold(acc, v);
        }
        acc
    }

    /// Runs `f(index, &mut part)` once for every element of `parts`, each
    /// worker owning a **disjoint contiguous run** of the slice — the
    /// primitive behind the fused LM step's lanes (DESIGN.md "Threading
    /// model"). The partition is static: `parts` is cut into
    /// `min(threads, parts.len())` runs whose lengths differ by at most
    /// one, run 0 executes on the calling thread and every other run on a
    /// scoped worker, and each run visits its parts in ascending index
    /// order. At one thread or one part nothing is spawned.
    ///
    /// Unlike [`Pool::map_range`] there is no work queue and **no
    /// `par.worker` recompute seam**: parts are mutated in place, so a
    /// part's work cannot be thrown away and run again. Nothing is
    /// recorded to `lcrec-obs` either — callers account for the work once,
    /// on the calling thread, so their counters cannot depend on the
    /// thread count. A panic inside `f` is re-raised on the calling thread
    /// with its original payload after every worker has been joined.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrec_par::Pool;
    ///
    /// let mut rows = vec![vec![1.0f32; 4]; 6];
    /// Pool::new(4).for_each_mut(&mut rows, |i, row| row.iter_mut().for_each(|v| *v *= i as f32));
    /// assert_eq!(rows[5], vec![5.0; 4]);
    /// ```
    pub fn for_each_mut<T, F>(&self, parts: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let workers = self.threads.min(parts.len());
        let run = |base: usize, mine: &mut [T]| {
            for (i, part) in mine.iter_mut().enumerate() {
                f(base + i, part);
            }
        };
        if workers <= 1 {
            run(0, parts);
            return;
        }
        // The first `parts.len() % workers` runs take one extra part.
        let (per, extra) = (parts.len() / workers, parts.len() % workers);
        let (first, mut rest) = parts.split_at_mut(per + usize::from(extra > 0));
        let mut base = first.len();
        std::thread::scope(|s| {
            let run = &run;
            let mut handles = Vec::with_capacity(workers - 1);
            for w in 1..workers {
                let (mine, tail) = rest.split_at_mut(per + usize::from(w < extra));
                rest = tail;
                let start = base;
                base += mine.len();
                handles.push(s.spawn(move || run(start, mine)));
            }
            run(0, first);
            // Join every worker before re-raising, so no part is still
            // being written when the caller sees the panic.
            let mut panicked = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Splits `0..n` into contiguous `(lo, hi)` ranges of at most `rows` items
/// each — the fixed micro-batch boundaries used for data-parallel gradient
/// accumulation. Boundaries are a pure function of `n` and `rows` (never of
/// the thread count), so downstream ordered reductions — and therefore
/// every trained parameter — are identical at any `LCREC_THREADS`.
pub fn micro_ranges(n: usize, rows: usize) -> Vec<(usize, usize)> {
    let rows = rows.max(1);
    (0..n).step_by(rows).map(|lo| (lo, (lo + rows).min(n))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 9] {
            let pool = Pool::new(threads);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.map(&items, |i, &x| x * 2 + i as u64);
            let expect: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 2 + i as u64).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_on_floats() {
        // Chaotic per-item float work: any reordering of the reduction
        // would change the bits.
        let f = |i: usize| {
            let mut v = i as f32 * 0.37 + 0.01;
            for _ in 0..50 {
                v = (v * 1.7).sin() + 1.0 / (v.abs() + 0.3);
            }
            v
        };
        let serial = Pool::serial().map_reduce(300, f, 0.0f32, |a, b| a + b * b);
        for threads in [2, 3, 8] {
            let par = Pool::new(threads).map_reduce(300, f, 0.0f32, |a, b| a + b * b);
            assert_eq!(serial.to_bits(), par.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<i32> = pool.map_range(0, |i| i as i32);
        assert!(empty.is_empty());
        assert_eq!(pool.map_range(1, |i| i + 10), vec![10]);
        assert_eq!(pool.map_range(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::new(0).is_serial());
        assert_eq!(Pool::new(7).threads(), 7);
    }

    #[test]
    fn chunk_boundaries_ignore_thread_count() {
        // The internal chunking must be a pure function of n.
        assert_eq!(Pool::chunk_size(1), 1);
        assert_eq!(Pool::chunk_size(16), 1);
        assert_eq!(Pool::chunk_size(17), 2);
        assert_eq!(Pool::chunk_size(1000), 63);
    }

    #[test]
    fn map_reduce_folds_in_index_order() {
        let order = Pool::new(4).map_reduce(100, |i| i, Vec::new(), |mut acc, i| {
            acc.push(i);
            acc
        });
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn env_parsing_rules() {
        // Cannot mutate the process env safely under a threaded test
        // runner; exercise the parse contract through Pool::new semantics
        // and the documented fallback instead.
        assert!(threads_from_env() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn micro_ranges_cover_exactly_once() {
        assert_eq!(micro_ranges(0, 32), vec![]);
        assert_eq!(micro_ranges(5, 32), vec![(0, 5)]);
        assert_eq!(micro_ranges(64, 32), vec![(0, 32), (32, 64)]);
        assert_eq!(micro_ranges(70, 32), vec![(0, 32), (32, 64), (64, 70)]);
        assert_eq!(micro_ranges(3, 0), vec![(0, 1), (1, 2), (2, 3)], "rows clamps to 1");
    }

    #[test]
    fn for_each_mut_visits_every_part_once_with_its_own_index() {
        for threads in [1, 2, 3, 4, 9] {
            for n in [0usize, 1, 2, 5, 8, 33] {
                let mut parts: Vec<(usize, u32)> = vec![(usize::MAX, 0); n];
                Pool::new(threads).for_each_mut(&mut parts, |i, part| {
                    part.0 = i;
                    part.1 += 1;
                });
                let expect: Vec<(usize, u32)> = (0..n).map(|i| (i, 1)).collect();
                assert_eq!(parts, expect, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn for_each_mut_partition_is_static_contiguous_and_ascending() {
        // Each worker appends the indices it visits to a log of its own
        // (keyed by thread), so the partition itself is observable.
        let logs: Mutex<Vec<(std::thread::ThreadId, usize)>> = Mutex::new(Vec::new());
        let mut parts = vec![0u8; 7];
        Pool::new(3).for_each_mut(&mut parts, |i, _| {
            logs.lock().expect("no panics under this lock").push((std::thread::current().id(), i));
        });
        let logs = logs.into_inner().expect("no panics under this lock");
        let mut runs: Vec<Vec<usize>> = Vec::new();
        let mut owners: Vec<std::thread::ThreadId> = Vec::new();
        for (id, i) in logs {
            match owners.iter().position(|o| *o == id) {
                Some(w) => runs[w].push(i),
                None => {
                    owners.push(id);
                    runs.push(vec![i]);
                }
            }
        }
        runs.sort();
        assert_eq!(runs, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        let caller = owners.iter().position(|o| *o == std::thread::current().id());
        assert!(caller.is_some(), "run 0 executes on the calling thread");
    }

    #[test]
    fn for_each_mut_runs_inline_at_one_thread_or_one_part() {
        let me = std::thread::current().id();
        let mut parts = vec![0u8; 5];
        Pool::serial().for_each_mut(&mut parts, |_, _| assert_eq!(std::thread::current().id(), me));
        let mut one = vec![0u8; 1];
        Pool::new(8).for_each_mut(&mut one, |_, _| assert_eq!(std::thread::current().id(), me));
    }

    #[test]
    fn for_each_mut_propagates_a_worker_panic_after_joining() {
        let finished = AtomicUsize::new(0);
        let mut parts = vec![0u32; 4];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pool::new(4).for_each_mut(&mut parts, |i, part| {
                if i == 2 {
                    panic!("lane {i} failed");
                }
                *part = 7;
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert_eq!(msg, "lane 2 failed", "original payload, not scope's generic message");
        assert_eq!(finished.load(Ordering::SeqCst), 3, "every other part still ran to the end");
        assert_eq!(parts, vec![7, 7, 0, 7]);
    }

    #[test]
    fn closures_may_borrow_caller_state() {
        let data = vec![3u32; 64];
        let pool = Pool::new(4);
        let sum: u32 = pool.map_reduce(data.len(), |i| data[i], 0, |a, b| a + b);
        assert_eq!(sum, 192);
    }
}
