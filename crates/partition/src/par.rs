//! The crate's one parallel primitive.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A minimal scoped work-sharing map: runs `f(&mut state, i)` for `i in
/// 0..tasks` across `workers` threads (the caller included) and returns
/// results in task order. Each thread builds its own `state` with `init`
/// once and reuses it for every task it claims, so scratch space is
/// allocated per worker, not per task. Local to this crate — the partition
/// layer sits below `twoface-core`'s pool and cannot depend on it.
pub(crate) fn par_map_indexed<S, R, I, F>(workers: usize, tasks: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if workers <= 1 || tasks <= 1 {
        let mut state = init();
        return (0..tasks).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let work = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            *slots[i].lock().expect("slot poisoned") = Some(f(&mut state, i));
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(tasks) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("every task ran"))
        .collect()
}
