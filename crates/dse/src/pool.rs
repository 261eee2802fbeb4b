//! The one worker pool every parallel DSE loop runs on.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The results of [`par_map`], in index order, plus what the pool spent.
pub(crate) struct PoolRun<T> {
    /// `task(_, i)` at position `i`.
    pub(crate) results: Vec<T>,
    /// Worker threads spawned.
    pub(crate) workers: usize,
    /// Time spent inside `task`, summed across workers: busy ÷
    /// (workers × wall) is the pool's utilization.
    pub(crate) busy_ns: u64,
}

/// Runs `task(state, i)` for every `i` in `0..len` on a scoped pool of at
/// most [`std::thread::available_parallelism`] workers. Workers claim
/// indices from a shared cursor, so uneven tasks balance themselves; each
/// worker builds its own `state` once with `init` (a scratch arena, say)
/// and reuses it for every index it claims.
pub(crate) fn par_map<S, T: Send>(
    len: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> T + Sync,
) -> PoolRun<T> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(len)
        .max(1);
    let next = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, busy_ns, init, task) = (&next, &busy_ns, &init, &task);
                scope.spawn(move || {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= len {
                            break;
                        }
                        let start = Instant::now();
                        out.push((idx, task(&mut state, idx)));
                        busy_ns.fetch_add(
                            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            Ordering::Relaxed,
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("DSE worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(idx, _)| idx);
    PoolRun {
        results: indexed.into_iter().map(|(_, t)| t).collect(),
        workers,
        busy_ns: busy_ns.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_with_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let run = par_map(100, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i * i);
        assert_eq!(run.results, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(inits.into_inner(), run.workers);
    }

    #[test]
    fn empty_input_runs_no_task() {
        let run = par_map(0, || (), |_, _| -> usize { unreachable!() });
        assert!(run.results.is_empty());
        assert_eq!(run.busy_ns, 0);
    }
}
