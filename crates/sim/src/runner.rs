//! Parallel fan-out: parameter sweeps and the engine's sharded passes.
//!
//! Each figure in the paper sweeps a parameter (threshold δ, relevant-node
//! percentage, …) over full 20 000-epoch simulations. Individual simulations
//! are single-threaded and deterministic; the sweep fans the parameter
//! points across worker threads and returns results in input order, so
//! parallel and sequential execution produce byte-identical reports.
//!
//! [`fan_out`] is the one threading primitive underneath: scoped threads
//! that live for one call and claim owned parts from a shared queue. The
//! sweeps fan out `(parameter, result slot)` pairs; the engine's sharded
//! world advance, sensor sampling and repair scan fan out disjoint
//! per-node slices once per epoch. No thread outlives the call that
//! spawned it.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

/// Run `f` over every element of `params`, in parallel, preserving order.
///
/// `threads = 0` selects the available CPU parallelism. A panic in `f` is
/// re-raised with its original payload once every other parameter ran
/// (see [`fan_out`]).
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
    let mut slots: Vec<Option<R>> = params.iter().map(|_| None).collect();
    let parts: Vec<(&P, &mut Option<R>)> = params.iter().zip(slots.iter_mut()).collect();
    fan_out(effective_threads(threads, params.len()), parts, |(p, slot)| *slot = Some(f(p)));
    slots.into_iter().map(|s| s.expect("fan_out runs every part")).collect()
}

/// Run a parameter matrix with seed replication: every element of
/// `params` is evaluated `replicates` times (`f(param, replicate)`), all
/// cells fanned out together, and the results returned as
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

/// Clamp a requested worker count to `1..=available`.
fn clamp_workers(requested: usize, available: usize) -> usize {
    requested.min(available).max(1)
}

/// `requested` workers clamped to this host's available parallelism.
/// Worker counts reach the engine from configuration and from the `dirqd`
/// wire, so the world and the engine resolve them through here once, when
/// they are configured, before a count sizes a thread fan-out or a buffer.
/// Workers beyond the host's cores would change nothing about results.
pub fn host_workers(requested: usize) -> usize {
    // One worker needs no probe: `available_parallelism` reads cgroup
    // files, which costs a small engine's setup ~0.15 ms.
    if requested <= 1 {
        return 1;
    }
    clamp_workers(requested, std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f` once on every element of `parts`, over `workers` threads: the
/// calling thread plus up to `workers - 1` scoped helpers that live for
/// this call only. Every thread claims the next part from one shared
/// queue, so uneven parts balance dynamically; on a host with fewer cores
/// than workers the caller simply drains the queue itself.
///
/// Parts are owned, so each can carry its own `&mut` slices of disjoint
/// state (the engine's per-epoch passes split their per-node arrays by
/// node range). Parts may run on any thread in any order: callers that
/// need determinism make parts independent and merge their outputs in a
/// fixed order afterwards.
///
/// A panicking part does not stop the others. Once every part has run,
/// the first panic's original payload is re-raised, so its message
/// survives.
///
/// ```
/// let mut sums = vec![0u64; 4];
/// let parts: Vec<(u64, &mut u64)> = (1..=4).zip(sums.iter_mut()).collect();
/// dirq_sim::runner::fan_out(2, parts, |(x, out)| *out = x * x);
/// assert_eq!(sums, vec![1, 4, 9, 16]);
/// ```
pub fn fan_out<P, F>(workers: usize, parts: Vec<P>, f: F)
where
    P: Send,
    F: Fn(P) + Sync,
{
    let helpers = workers.min(parts.len()).saturating_sub(1);
    let queue = Mutex::new(parts.into_iter());
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // Neither lock is held while a part runs, so a panicking part cannot
    // poison them.
    let drain = || loop {
        let Some(part) = queue.lock().expect("fan-out queue lock poisoned").next() else {
            return;
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(part))) {
            first_panic.lock().expect("fan-out panic slot poisoned").get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(drain);
        }
        drain();
    });
    if let Some(payload) = first_panic.into_inner().expect("fan-out panic slot poisoned") {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn fan_out_runs_every_part_exactly_once() {
        // 1, 2 and 4 workers; zero parts, fewer parts than workers, more.
        for workers in [1usize, 2, 4] {
            for n in [0usize, 1, 3, 97] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                fan_out(workers, (0..n).collect(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{workers} workers, {n} parts"
                );
            }
        }
    }

    #[test]
    fn fan_out_reraises_the_panicking_parts_payload_after_the_rest_ran() {
        for workers in [1usize, 2, 4] {
            let done = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                fan_out(workers, (0..8).collect(), |i: usize| {
                    if i == 3 {
                        panic!("part {i} failed");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }));
            let payload = result.expect_err("fan_out must surface the part's panic");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("part 3 failed"), "{workers} workers: payload replaced");
            assert_eq!(done.load(Ordering::Relaxed), 7, "{workers} workers: other parts still run");
        }
    }

    #[test]
    fn worker_counts_clamp_to_the_host() {
        assert_eq!(clamp_workers(usize::MAX, 2), 2);
        assert_eq!(clamp_workers(usize::MAX, 1), 1);
        assert_eq!(clamp_workers(3, 8), 3);
        assert_eq!(clamp_workers(0, 8), 1);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(host_workers(usize::MAX), hw);
        assert_eq!(host_workers(0), 1);
    }
}
