//! Scoped jobs joined in order: the one way a compute pass goes onto
//! several cores.
//!
//! The round engine ([`crate::runner::run_phase_threaded`]) steps each
//! round's machines with [`par_jobs`]; the protocol layer maps Fig. 3 step
//! 4's leaves with [`par_map`] and cuts establishment's keygen slots with
//! [`chunks`]. Every job's output lands at its job's index, so a result is
//! the same at every worker count, and the lowest job's panic is the one
//! raised.

use std::ops::Range;

/// `0..len` cut into `workers.clamp(1, len.max(1))` contiguous chunks, in
/// order.
pub fn chunks(len: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let workers = workers.clamp(1, len.max(1));
    (0..workers).map(move |w| w * len / workers..(w + 1) * len / workers)
}

/// `jobs.map(f).collect()` with the first job on the calling thread and
/// each other on a scoped thread of its own, joined in job order.
///
/// # Panics
///
/// Resumes the panic of the lowest job that panicked, after every job has
/// ended.
pub fn par_jobs<J: Send, T: Send>(jobs: Vec<J>, f: impl Fn(J) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let rest: Vec<_> = jobs.map(|job| scope.spawn(move || f(job))).collect();
        let mut out = vec![f(first)];
        out.extend(rest.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e))
        }));
        out
    })
}

/// `(0..len).map(f).collect()` on up to `workers` threads: `0..len` is cut
/// into contiguous [`chunks`], mapped by [`par_jobs`] and joined in order,
/// so the output is the same at every worker count.
///
/// # Panics
///
/// Resumes a panic of `f`, as [`par_jobs`] does.
pub fn par_map<T: Send>(len: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mapped = par_jobs(chunks(len, workers).collect(), |chunk| {
        chunk.map(&f).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(len);
    for chunk in mapped {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every `(len, workers)` pair the `par_map` tests run, including more
    /// workers than items.
    fn par_map_shapes() -> impl Iterator<Item = (usize, usize)> {
        [0, 1, 2, 5, 64]
            .into_iter()
            .flat_map(|len| [1, 2, 3, 8, len + 3].map(|workers| (len, workers)))
    }

    #[test]
    fn par_map_equals_the_sequential_map_in_order() {
        let f = |i: usize| (i, i.wrapping_mul(0x9e37_79b9) ^ 0x5a);
        for (len, workers) in par_map_shapes() {
            let sequential: Vec<_> = (0..len).map(f).collect();
            assert_eq!(
                par_map(len, workers, f),
                sequential,
                "len {len}, workers {workers}"
            );
        }
    }

    #[test]
    fn par_map_runs_the_closure_once_per_index() {
        for (len, workers) in par_map_shapes() {
            let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            par_map(len, workers, |i| runs[i].fetch_add(1, Ordering::Relaxed));
            let runs: Vec<usize> = runs.into_iter().map(AtomicUsize::into_inner).collect();
            assert_eq!(runs, vec![1; len], "len {len}, workers {workers}");
        }
    }

    #[test]
    fn par_map_panics_the_caller_when_any_index_panics() {
        for (len, workers) in par_map_shapes().filter(|&(len, _)| len > 0) {
            // The first index (the caller's chunk) and the last (the last
            // worker's chunk, a spawned thread's whenever workers > 1).
            for bad in [0, len - 1] {
                let run = std::panic::catch_unwind(|| {
                    par_map(len, workers, |i| assert_ne!(i, bad, "leaf {i} panicked"))
                });
                assert!(run.is_err(), "len {len}, workers {workers}, bad {bad}");
            }
        }
    }
}
