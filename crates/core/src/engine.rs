//! The worker pool every parallel run uses: the corpus runners and
//! `sierra serve`.
//!
//! [`run_each`] runs a pool of scoped worker threads
//! (`std::thread::scope`, no dependencies). Each worker pulls the next
//! item from one iterator held under one lock, so an item is taken only
//! by a free worker and nothing is read ahead into a queue. Guarantees:
//!
//! - **deterministic, input-ordered results**: [`run_jobs`] stores each
//!   result at its input position, so scheduling never reorders results —
//!   combined with the analyses' own determinism, `--jobs 8` output is
//!   byte-identical to `--jobs 1`;
//! - **panic isolation**: [`isolate`] turns an item that panics into an
//!   [`EngineError`]; the other workers and the run as a whole survive;
//! - a `jobs = 0` request resolves to the machine's available
//!   parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A job that died (panicked) inside a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// The name of the failed work item.
    pub item: String,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: analysis panicked: {}", self.item, self.message)
    }
}

impl std::error::Error for EngineError {}

/// Resolves a `--jobs` request: `0` means "all available cores", and a
/// pool larger than the number of items is clamped.
pub fn effective_jobs(requested: usize, items: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    jobs.clamp(1, items.max(1))
}

/// Runs `f` on the item named `item`, turning a panic into an
/// [`EngineError`].
pub fn isolate<O>(item: &str, f: impl FnOnce() -> O) -> Result<O, EngineError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| EngineError {
        item: item.to_owned(),
        message: panic_message(payload.as_ref()),
    })
}

/// Runs `f` on every item `items` yields, on a pool of `jobs` scoped
/// worker threads (0 = all cores, clamped to the iterator's upper size
/// bound), and returns once the iterator is exhausted and every item is
/// done. A worker calls `items.next()` under one lock only when it is
/// free, so a streamed iterator is never read ahead. `f` isolates its
/// own panics with [`isolate`].
pub fn run_each<T, It, F>(jobs: usize, items: It, f: F)
where
    It: Iterator<Item = T> + Send,
    F: Fn(T) + Sync,
{
    let workers = effective_jobs(jobs, items.size_hint().1.unwrap_or(usize::MAX));
    let items = Mutex::new(items);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = items.lock().expect("item iterator lock").next();
                match next {
                    Some(item) => f(item),
                    None => break,
                }
            });
        }
    });
}

/// Runs `f` over every `(name, input)` item on a pool of `jobs` scoped
/// worker threads and returns the results **in input order**.
///
/// Workers pull items from the shared pool ([`run_each`]), so large
/// items don't serialize behind a static partition. A panicking item
/// yields an `Err(EngineError)` in its slot; the remaining items still
/// run.
pub fn run_jobs<I, O, F>(jobs: usize, items: Vec<(String, I)>, f: F) -> Vec<Result<O, EngineError>>
where
    I: Send,
    O: Send,
    F: Fn(&str, I) -> O + Sync,
{
    let results: Vec<Mutex<Option<Result<O, EngineError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    run_each(jobs, items.into_iter().enumerate(), |(i, (name, input))| {
        let row = isolate(&name, || f(&name, input));
        *results[i].lock().expect("result lock") = Some(row);
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<(String, usize)> = (0..32).map(|i| (format!("item-{i}"), i)).collect();
        // Make early items the slowest so a naive collect-by-completion
        // would reorder them.
        let out = run_jobs(8, items, |_, i| {
            std::thread::sleep(std::time::Duration::from_millis((32 - i as u64) / 8));
            i * 2
        });
        let values: Vec<usize> = out.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(values, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_does_not_kill_the_run() {
        let items: Vec<(String, usize)> = (0..8).map(|i| (format!("it-{i}"), i)).collect();
        let out = run_jobs(4, items, |_, i| {
            if i == 3 {
                panic!("boom on {i}");
            }
            i
        });
        assert_eq!(out.len(), 8);
        for (i, row) in out.iter().enumerate() {
            if i == 3 {
                let err = row.as_ref().expect_err("item 3 panicked");
                assert_eq!(err.item, "it-3");
                assert!(err.message.contains("boom"), "{err}");
            } else {
                assert_eq!(*row.as_ref().expect("ok"), i);
            }
        }

        // The same through a streamed iterator: the pool reads it lazily,
        // and the items after the panicking one still run.
        let outcomes = Mutex::new(Vec::new());
        let streamed = (0..8).map(|i| (format!("it-{i}"), i));
        run_each(2, streamed, |(name, i)| {
            let outcome = isolate(&name, || {
                if i == 3 {
                    panic!("boom on {i}");
                }
                i
            });
            outcomes.lock().expect("outcomes lock").push(outcome);
        });
        let outcomes = outcomes.into_inner().expect("outcomes lock");
        let errors: Vec<&EngineError> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
        assert_eq!(errors.len(), 1, "{outcomes:?}");
        assert_eq!(errors[0].item, "it-3");
        assert!(errors[0].message.contains("boom"), "{}", errors[0]);
        let mut ran: Vec<usize> = outcomes.iter().filter_map(|o| o.clone().ok()).collect();
        ran.sort_unstable();
        assert_eq!(ran, [0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(5, 2), 2, "pool clamped to item count");
        assert_eq!(effective_jobs(3, 100), 3);
        assert_eq!(effective_jobs(1, 0), 1);
    }

    #[test]
    fn single_job_pool_runs_everything() {
        let items: Vec<(String, u64)> = (0..5).map(|i| (i.to_string(), i)).collect();
        let out = run_jobs(1, items, |name, i| format!("{name}:{i}"));
        let values: Vec<String> = out.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(values, vec!["0:0", "1:1", "2:2", "3:3", "4:4"]);
    }
}
