//! Parallel parameter-sweep executor.
//!
//! Each figure in the paper sweeps a parameter (threshold δ, relevant-node
//! percentage, …) over full 20 000-epoch simulations. Individual simulations
//! are single-threaded and deterministic; the sweep fans the parameter
//! points across worker threads and returns results in input order, so
//! parallel and sequential execution produce byte-identical reports.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel;

/// Run `f` over every element of `params`, in parallel, preserving order.
///
/// `threads = 0` selects the available CPU parallelism. Panics in workers
/// are propagated to the caller.
///
/// ```
/// let squares = dirq_sim::runner::run_sweep(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_sweep<P, R, F>(params: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    if params.is_empty() {
        return Vec::new();
    }
    let threads = effective_threads(threads, params.len());
    if threads <= 1 {
        return params.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = channel::unbounded::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= params.len() {
                        break;
                    }
                    let r = f(&params[i]);
                    // The receiver lives as long as the scope; send can only
                    // fail if the main thread panicked, in which case the
                    // whole scope unwinds anyway.
                    let _ = tx.send((i, r));
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<R>> = (0..params.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("worker thread panicked before producing a result"))
            .collect()
    })
}

/// Run a parameter matrix with seed replication: every element of
/// `params` is evaluated `replicates` times (`f(param, replicate)`), all
/// cells fanned out over one worker pool, and the results returned as
/// `out[param_index][replicate]`.
///
/// Like [`run_sweep`], output ordering is independent of `threads`, so a
/// fingerprint over the returned matrix is reproducible across machines
/// and thread counts. `f` receives the replicate index so callers can
/// derive per-replicate seeds deterministically.
///
/// ```
/// let m = dirq_sim::runner::run_matrix(&[10u64, 20], 3, 2, |&p, rep| p + rep as u64);
/// assert_eq!(m, vec![vec![10, 11, 12], vec![20, 21, 22]]);
/// ```
pub fn run_matrix<P, R, F>(params: &[P], replicates: usize, threads: usize, f: F) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, usize) -> R + Sync,
{
    let cells: Vec<(usize, usize)> =
        (0..params.len()).flat_map(|i| (0..replicates).map(move |r| (i, r))).collect();
    let flat = run_sweep(&cells, threads, |&(i, r)| f(&params[i], r));
    let mut rows: Vec<Vec<R>> = (0..params.len()).map(|_| Vec::with_capacity(replicates)).collect();
    for ((i, _), result) in cells.into_iter().zip(flat) {
        rows[i].push(result);
    }
    rows
}

/// Decide how many worker threads to use for `jobs` work items.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.min(jobs).max(1)
}

/// Generation tag mask of [`PoolInner::cursor`] (high 32 bits).
const GEN_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// An erased [`WorkerPool`] job: the item closure (a raw pointer, so the
/// cell may legally outlive the closure between generations), the item
/// count, and the generation tag the job belongs to. Carrying the tag
/// *inside* the job pins closure, count and generation together: a
/// helper that reads a newer job than the `seq` it woke on simply claims
/// against the newer generation (or finds the cursor tag mismatched and
/// retires) — it can never pair an old count with a new cursor. The
/// pointer is re-borrowed only under a successful same-generation claim,
/// which guarantees the closure is still alive (`run` has not returned).
type Job = (*const (dyn Fn(usize) + Sync), usize, u64);

/// A persistent work-stealing worker pool for **fine-grained, repeated**
/// fan-outs — the reuse primitive behind the engine's sharded per-epoch
/// passes (world advance, sensor sampling, repair scans). [`run_sweep`]
/// spawns scoped threads per call, which is fine for second-long
/// simulation jobs but prohibitive for the sub-millisecond work inside
/// one epoch; a `WorkerPool` spawns its helpers once and re-dispatches to
/// them every epoch.
///
/// ## Execution model
///
/// [`WorkerPool::run`] publishes `items` independent work items; the
/// calling thread and every helper claim items **dynamically** through an
/// atomic cursor and `run` returns once all items completed. Two
/// consequences:
///
/// * **No stragglers by construction** — on a machine with fewer cores
///   than workers (including the degenerate 1-core case) the caller
///   simply claims every item itself and never blocks on a helper; a
///   helper that wakes late finds the cursor exhausted and goes back to
///   sleep off the critical path.
/// * **Scheduling-independent results are the caller's contract** — items
///   may execute on any thread in any interleaving, so callers that need
///   determinism must make items independent and merge their outputs in a
///   fixed order (the engine replays per-chunk effects in chunk order).
///
/// The cursor carries a generation tag so a helper parked through several
/// `run` calls can never claim (or double-claim) items from a generation
/// it did not observe; claims use compare-and-swap, so a stale helper
/// never consumes another generation's item slot.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolInner {
    /// Packed claim cursor: high 32 bits = generation, low 32 = next item.
    cursor: AtomicU64,
    /// Items completed in the current generation.
    completed: AtomicUsize,
    /// Current generation; stored after the job is published.
    seq: AtomicU64,
    stop: AtomicBool,
    /// Set by a panicking item of the **current** generation; cleared at
    /// the start of every `run`.
    poisoned: AtomicBool,
    /// First panic payload of the current generation, re-raised by `run`.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The published job: erased closure + item count. Behind a mutex so
    /// a helper waking on a stale generation can never read the cell
    /// concurrently with the next `run`'s overwrite; a helper that reads
    /// a job it did not observe the generation of is stopped by the
    /// cursor's generation tag before it can execute anything.
    job: Mutex<Option<Job>>,
}

// SAFETY: the raw closure pointer inside `job` is only dereferenced under
// a same-generation cursor claim, and `run` does not return until every
// claimed item completed — so the pointee is alive at every dereference
// (the pointer itself may dangle between generations, which is fine for a
// raw pointer). Everything else in `PoolInner` is Sync.
unsafe impl Send for PoolInner {}
unsafe impl Sync for PoolInner {}

impl WorkerPool {
    /// Pool targeting `workers` total threads (the caller of
    /// [`WorkerPool::run`] counts as one). Helper threads are clamped to
    /// the machine's available parallelism — extra logical workers change
    /// nothing about results, so there is no point paying wake-ups for
    /// helpers the hardware cannot run.
    pub fn new(workers: usize) -> Self {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let helpers = workers.min(hw).saturating_sub(1);
        let inner = Arc::new(PoolInner {
            cursor: AtomicU64::new(0),
            completed: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            job: Mutex::new(None),
        });
        let handles = (0..helpers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || helper_loop(&inner))
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Total threads that can claim items (helpers + the caller).
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Execute `f(0), …, f(items - 1)`, each exactly once, distributed
    /// over the caller and the helper threads; returns when every item has
    /// completed. Panics if any item of **this** call panicked (after all
    /// items finished, so borrowed data stays valid throughout); the pool
    /// remains usable afterwards.
    ///
    /// Takes `&mut self`: one job at a time per pool — concurrent `run`
    /// calls would race the generation protocol.
    pub fn run(&mut self, items: usize, f: &(dyn Fn(usize) + Sync)) {
        assert!(items < u32::MAX as usize, "item count exceeds the cursor's range");
        if items == 0 {
            return;
        }
        let inner = &*self.inner;
        let seq = inner.seq.load(Ordering::Relaxed).wrapping_add(1);
        let gen = (seq & 0xFFFF_FFFF) << 32;
        // The lifetime erasure is sound because the pointer is only
        // re-borrowed under a same-generation claim, and `run` does not
        // return until every claimed item completed (see the struct docs).
        let f_erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        *inner.job.lock().expect("pool job mutex poisoned") = Some((f_erased, items, gen));
        inner.poisoned.store(false, Ordering::Relaxed);
        *inner.panic_payload.lock().expect("pool panic mutex poisoned") = None;
        inner.completed.store(0, Ordering::Relaxed);
        inner.cursor.store(gen, Ordering::Release);
        inner.seq.store(seq, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        claim_items(inner, gen, items, f_erased);
        let mut spins = 0u32;
        while inner.completed.load(Ordering::Acquire) < items {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                // A helper still owns an item; give it the core.
                std::thread::yield_now();
            }
        }
        if inner.poisoned.load(Ordering::Acquire) {
            // Re-raise the first failed item's panic with its original
            // payload so the real assertion message survives. (Take it and
            // release the lock *before* unwinding, or the mutex poisons.)
            let payload = inner.panic_payload.lock().expect("pool panic mutex poisoned").take();
            match payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("a WorkerPool item panicked"),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claim and execute items of generation `gen` until the cursor leaves the
/// generation or exhausts. CAS (not fetch-add) so a stale claimer can
/// never consume a slot of a generation it does not belong to.
fn claim_items(inner: &PoolInner, gen: u64, items: usize, f: *const (dyn Fn(usize) + Sync)) {
    loop {
        let cur = inner.cursor.load(Ordering::Acquire);
        let i = (cur & !GEN_MASK) as usize;
        if cur & GEN_MASK != gen || i >= items {
            return;
        }
        if inner
            .cursor
            .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        // SAFETY: a successful same-generation claim means the publishing
        // `run` is still waiting on `completed`, so the closure is alive.
        let f = unsafe { &*f };
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
            let mut slot = inner.panic_payload.lock().expect("pool panic mutex poisoned");
            slot.get_or_insert(payload);
            drop(slot);
            inner.poisoned.store(true, Ordering::Release);
        }
        inner.completed.fetch_add(1, Ordering::Release);
    }
}

fn helper_loop(inner: &PoolInner) {
    let mut last_seq = 0u64;
    loop {
        // Wait for a new generation: spin briefly in case the next run
        // follows closely, then park.
        let mut spins = 0u32;
        let seq = loop {
            let s = inner.seq.load(Ordering::Acquire);
            if s != last_seq {
                break s;
            }
            if inner.stop.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < 4_096 {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        };
        last_seq = seq;
        // The mutex makes this read safe against a concurrent republish by
        // a later `run`. The generation comes from the job itself, never
        // from the observed `seq`: reading a newer job than the wake-up
        // seq just means claiming against the newer generation.
        let Some((f, items, gen)) = *inner.job.lock().expect("pool job mutex poisoned") else {
            continue;
        };
        claim_items(inner, gen, items, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sweep() {
        let out: Vec<u32> = run_sweep(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let params: Vec<u64> = (0..257).collect();
        let out = run_sweep(&params, 8, |&x| x * 3);
        assert_eq!(out, params.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_path_used_for_single_thread() {
        let params = vec![1, 2, 3];
        let out = run_sweep(&params, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items slow so completion order inverts submission order.
        let params: Vec<u64> = (0..32).collect();
        let out = run_sweep(&params, 4, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, params);
    }

    #[test]
    fn effective_threads_bounds() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn matrix_groups_by_param_in_order() {
        let params: Vec<u64> = (0..9).collect();
        let m = run_matrix(&params, 4, 3, |&p, rep| p * 10 + rep as u64);
        assert_eq!(m.len(), 9);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(
                row,
                &vec![i as u64 * 10, i as u64 * 10 + 1, i as u64 * 10 + 2, i as u64 * 10 + 3]
            );
        }
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let params = [3u64, 1, 4, 1, 5];
        let runs: Vec<Vec<Vec<u64>>> = [1usize, 2, 8]
            .iter()
            .map(|&t| run_matrix(&params, 2, t, |&p, rep| p ^ rep as u64))
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn matrix_handles_empty_axes() {
        let none: Vec<Vec<u32>> = run_matrix(&[] as &[u32], 3, 2, |&x, _| x);
        assert!(none.is_empty());
        let zero_reps = run_matrix(&[1u32, 2], 0, 2, |&x, _| x);
        assert_eq!(zero_reps, vec![Vec::<u32>::new(), Vec::new()]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let params = vec![0u32, 1, 2];
        let _ = run_sweep(&params, 2, |&x| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_reuse_across_many_generations() {
        // An engine pool serves thousands of tiny runs over its life.
        // Totals must stay exact across generations.
        let mut pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for round in 0..5_000usize {
            let items = 1 + round % 7;
            pool.run(items, &|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
        }
        let expected: usize = (0..5_000).map(|r| (1..=(1 + r % 7)).sum::<usize>()).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn pool_zero_items_is_a_noop_and_drop_joins() {
        let mut pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("must not be called"));
        assert!(pool.workers() >= 1);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_item_panic_propagates_after_completion() {
        let mut pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "pool must surface the item panic");
        assert_eq!(done.load(Ordering::Relaxed), 7, "other items still complete");
        // Poisoning is per-run: a later, healthy generation must succeed.
        let ok = AtomicUsize::new(0);
        pool.run(5, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 5, "pool must stay usable after a panic");
    }
}
