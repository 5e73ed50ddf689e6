//! Round scheduling over per-deployment index spans.
//!
//! The unit of scheduling is a [`Span`]: a contiguous range of round
//! indices of one deployment. An advance lists its spans once, span index
//! major ([`list_spans`]), and workers take the next listed span from one
//! shared cursor (a relaxed `fetch_add`) whenever they finish one. So a
//! deployment's next span is taken only after every other deployment's
//! span of the same rank; in a fleet its previous span has usually ended
//! by then and parked the driver the next one resumes. The round loop
//! inside a span touches no lock: its only shared state is one relaxed
//! atomic load of the failure floor.
//!
//! # Deterministic failure selection
//!
//! Rounds are ordered by a 64-bit key, `(round_index << 32) | deployment`
//! — index-major, so "the first failure" means the failing round with the
//! lowest index (ties broken by deployment id), independent of which
//! worker ran which span. A round fails by returning an error or by
//! panicking: a panic is caught at the span boundary, so one broken
//! deployment cannot take down the pool, and [`SpanRunner::panicked`]
//! turns it into an error. The floor starts at `u64::MAX` and is lowered
//! (`fetch_min`) to every failing round's key:
//!
//! * a round whose key is **below** the floor always executes, so the
//!   true minimum failing key is always reached and reported;
//! * a round whose key is **at or above** the floor is skipped, so the
//!   fleet stops doing doomed work soon after the first failure.
//!
//! Because round outcomes are pure functions of their coordinates, the
//! surfaced failure is identical for every worker count.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A contiguous range of round indices of one deployment: the unit of
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// Deployment id (slot index in the engine).
    pub dep: u32,
    /// First round index of the span (inclusive).
    pub start: u64,
    /// Number of rounds in the span.
    pub len: u64,
}

/// The spans of one advance: `rounds` more rounds of each deployment,
/// starting at its entry of `bases`, cut into spans of at most `chunk`
/// rounds (`chunk` ≥ 1) and listed span index major — every deployment's
/// first span in deployment order, then every deployment's second, and
/// so on.
pub(crate) fn list_spans(bases: &[u64], rounds: u64, chunk: u64) -> Vec<Span> {
    let per_deployment = rounds.div_ceil(chunk);
    let mut spans = Vec::with_capacity(bases.len() * per_deployment as usize);
    for offset in (0..per_deployment).map(|k| k * chunk) {
        let len = chunk.min(rounds - offset);
        spans.extend(bases.iter().enumerate().map(|(dep, &base)| Span {
            dep: dep as u32,
            start: base + offset,
            len,
        }));
    }
    spans
}

/// The scheduling key of one round: index-major, deployment-minor.
///
/// Round indices above `u32::MAX` would collide; campaigns are bounded
/// far below that (the engine checks on `advance`).
pub(crate) fn round_key(dep: u32, index: u64) -> u64 {
    (index << 32) | dep as u64
}

/// Per-span execution hooks the scheduler drives. `begin`/`finish`
/// bracket each span so implementations can amortize per-deployment
/// state (a round driver, a local accumulator) over the span's rounds,
/// hand it on to whichever span of the deployment begins next, and
/// publish results once per span instead of once per round.
pub(crate) trait SpanRunner: Sync {
    /// Span-scoped state.
    type State;
    /// Per-round failure; surfaced as the minimum-key failure of the run.
    type Error: Send;

    /// Called once when a worker starts a span of deployment `dep`.
    fn begin(&self, dep: u32) -> Self::State;

    /// Run one round. Errors lower the floor but do not abort the span:
    /// remaining rounds *below* the floor still run.
    fn round(&self, state: &mut Self::State, dep: u32, index: u64) -> Result<(), Self::Error>;

    /// Called once when the span ends (even if every round was skipped),
    /// unless the span panicked.
    fn finish(&self, dep: u32, state: Self::State);

    /// The failure of round `index` of deployment `dep`, whose span
    /// panicked with `message` while attempting it.
    fn panicked(&self, dep: u32, index: u64, message: String) -> Self::Error;
}

/// Outcome of one scheduling run.
pub(crate) struct RunOutcome<E> {
    /// Rounds each worker executed successfully, indexed by worker.
    pub per_worker: Vec<u64>,
    /// The failing round with the lowest key, if any round failed.
    pub error: Option<E>,
}

/// A failure and its round key.
type Keyed<E> = Option<(u64, E)>;

/// Keep the lower-keyed of `best` and `(key, error)`.
fn keep_lowest<E>(best: &mut Keyed<E>, key: u64, error: E) {
    if best.as_ref().is_none_or(|&(k, _)| key < k) {
        *best = Some((key, error));
    }
}

/// Best-effort human-readable panic payload (the common `&str`/`String`
/// payloads verbatim, a placeholder otherwise).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute every span of `spans` on `workers` scoped threads (the
/// calling thread when `workers` is 1), each taking the next listed span
/// from one shared cursor.
///
/// Returns per-worker round counts and the minimum-key failure (see the
/// module docs for why that minimum is deterministic).
pub(crate) fn run_spans<R: SpanRunner>(
    spans: &[Span],
    workers: usize,
    runner: &R,
) -> RunOutcome<R::Error> {
    assert!(workers > 0, "scheduler needs at least one worker");
    // Relaxed orderings suffice for both: the cursor hands out indices
    // into a list every worker already reads, and the floor only decides
    // which rounds to skip; neither publishes other data.
    let cursor = AtomicUsize::new(0);
    // The lowest failing key so far (see the module docs).
    let floor = AtomicU64::new(u64::MAX);
    let work = || worker_loop(spans, &cursor, &floor, runner);
    let outcomes: Vec<(u64, Keyed<R::Error>)> = if workers == 1 {
        // Single worker: same code path, no thread spawn.
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scheduler worker panicked"))
                .collect()
        })
    };

    // The run's failure is the minimum key over the workers' local minima.
    let mut per_worker = Vec::with_capacity(workers);
    let mut best = None;
    for (executed, failure) in outcomes {
        per_worker.push(executed);
        if let Some((key, error)) = failure {
            keep_lowest(&mut best, key, error);
        }
    }
    RunOutcome {
        per_worker,
        error: best.map(|(_, error)| error),
    }
}

/// One worker: take spans from the shared cursor until the list runs
/// out. Returns the rounds it executed and its lowest-key failure.
fn worker_loop<R: SpanRunner>(
    spans: &[Span],
    cursor: &AtomicUsize,
    floor: &AtomicU64,
    runner: &R,
) -> (u64, Keyed<R::Error>) {
    let mut executed = 0;
    let mut best = None;
    let mut fail = |key: u64, error: R::Error| {
        floor.fetch_min(key, Ordering::Relaxed);
        keep_lowest(&mut best, key, error);
    };
    while let Some(span) = spans.get(cursor.fetch_add(1, Ordering::Relaxed)) {
        // The whole span runs inside one catch_unwind so a panicking
        // runner (a poisoned deployment, a bug in observer code) is
        // contained: the worker keeps taking spans, and the panic fails
        // its round like an error. `at` tracks the round being attempted
        // so the panic is attributed to a precise key.
        let at = Cell::new(span.start);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut state = runner.begin(span.dep);
            for index in span.start..span.start + span.len {
                at.set(index);
                let key = round_key(span.dep, index);
                if key >= floor.load(Ordering::Relaxed) {
                    continue;
                }
                match runner.round(&mut state, span.dep, index) {
                    Ok(()) => executed += 1,
                    Err(e) => fail(key, e),
                }
            }
            runner.finish(span.dep, state);
        }));
        if let Err(payload) = caught {
            let index = at.get();
            let error = runner.panicked(span.dep, index, panic_message(payload));
            fail(round_key(span.dep, index), error);
        }
    }
    (executed, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// A synthetic failure: the round's coordinates and, for a panic, its
    /// message.
    type Failure = (u32, u64, Option<String>);

    /// Records executed (dep, index) pairs in execution order; errors on
    /// one configured set, panics on another.
    struct SyntheticRunner {
        fail: HashSet<(u32, u64)>,
        panics: HashSet<(u32, u64)>,
        executed: Mutex<Vec<(u32, u64)>>,
        begins: AtomicUsize,
        finishes: AtomicUsize,
    }

    impl SyntheticRunner {
        fn new(fail: impl IntoIterator<Item = (u32, u64)>) -> Self {
            SyntheticRunner {
                fail: fail.into_iter().collect(),
                panics: HashSet::new(),
                executed: Mutex::new(Vec::new()),
                begins: AtomicUsize::new(0),
                finishes: AtomicUsize::new(0),
            }
        }

        fn with_panics(mut self, panics: impl IntoIterator<Item = (u32, u64)>) -> Self {
            self.panics = panics.into_iter().collect();
            self
        }
    }

    impl SpanRunner for SyntheticRunner {
        type State = ();
        type Error = Failure;

        fn begin(&self, _dep: u32) {
            self.begins.fetch_add(1, Ordering::Relaxed);
        }

        fn round(&self, _state: &mut (), dep: u32, index: u64) -> Result<(), Failure> {
            if self.panics.contains(&(dep, index)) {
                panic!("synthetic panic at ({dep}, {index})");
            }
            if self.fail.contains(&(dep, index)) {
                return Err((dep, index, None));
            }
            self.executed.lock().unwrap().push((dep, index));
            Ok(())
        }

        fn finish(&self, _dep: u32, _state: ()) {
            self.finishes.fetch_add(1, Ordering::Relaxed);
        }

        fn panicked(&self, dep: u32, index: u64, message: String) -> Failure {
            (dep, index, Some(message))
        }
    }

    /// 4 deployments × 40 rounds in spans of 8.
    fn fleet_spans() -> Vec<Span> {
        list_spans(&[0; 4], 40, 8)
    }

    /// Every (dep, index) pair of `spans`, in list order.
    fn rounds_of(spans: &[Span]) -> Vec<(u32, u64)> {
        spans
            .iter()
            .flat_map(|s| (s.start..s.start + s.len).map(move |index| (s.dep, index)))
            .collect()
    }

    /// Run `runner` over the fleet with the default panic hook silenced:
    /// it would print every caught panic to stderr.
    fn run_quietly(workers: usize, runner: &SyntheticRunner) -> RunOutcome<Failure> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = run_spans(&fleet_spans(), workers, runner);
        std::panic::set_hook(hook);
        outcome
    }

    #[test]
    fn spans_are_listed_span_index_major() {
        // Three deployments at different clocks, 10 rounds in spans of 3:
        // four spans each, the last one round long.
        let bases = [0u64, 5, 17];
        let spans = list_spans(&bases, 10, 3);
        assert_eq!(spans.len(), 3 * 4);
        // Each (deployment, index) once.
        let mut rounds = rounds_of(&spans);
        rounds.sort_unstable();
        let expected: Vec<(u32, u64)> = (0..3u32)
            .flat_map(|dep| (0..10).map(move |i| (dep, bases[dep as usize] + i)))
            .collect();
        assert_eq!(rounds, expected);
        // Each deployment's spans ascend.
        for (dep, &base) in bases.iter().enumerate() {
            let starts: Vec<u64> = spans
                .iter()
                .filter(|s| s.dep as usize == dep)
                .map(|s| s.start - base)
                .collect();
            assert_eq!(starts, [0, 3, 6, 9], "deployment {dep}");
        }
        // Span k of every deployment comes before span k + 1 of any.
        let ranks: Vec<u64> = spans
            .iter()
            .map(|s| (s.start - bases[s.dep as usize]) / 3)
            .collect();
        assert!(ranks.is_sorted(), "{ranks:?}");
        assert!(list_spans(&bases, 0, 3).is_empty());
    }

    #[test]
    fn keys_order_index_major() {
        assert!(round_key(3, 5) < round_key(0, 6));
        assert!(round_key(0, 5) < round_key(3, 5));
        assert!(round_key(u32::MAX, 7) < round_key(0, 8));
    }

    #[test]
    fn one_worker_runs_spans_in_list_order() {
        let spans = fleet_spans();
        let runner = SyntheticRunner::new([]);
        run_spans(&spans, 1, &runner);
        assert_eq!(runner.executed.into_inner().unwrap(), rounds_of(&spans));
    }

    #[test]
    fn every_round_runs_exactly_once_for_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let runner = SyntheticRunner::new([]);
            let outcome = run_spans(&fleet_spans(), workers, &runner);
            assert!(outcome.error.is_none());
            assert_eq!(outcome.per_worker.len(), workers);
            assert_eq!(outcome.per_worker.iter().sum::<u64>(), 4 * 40);
            let executed = runner.executed.into_inner().unwrap();
            let unique: HashSet<_> = executed.iter().copied().collect();
            assert_eq!(unique.len(), executed.len(), "a round ran twice");
            assert_eq!(runner.begins.into_inner(), 20);
            assert_eq!(runner.finishes.into_inner(), 20);
        }
    }

    #[test]
    fn surfaced_error_is_the_minimum_key_for_any_worker_count() {
        // dep 2 fails at index 5, dep 1 at index 9, dep 0 at index 5:
        // minimum key = (5, dep 0).
        for workers in [1usize, 2, 4] {
            let runner = SyntheticRunner::new([(2, 5), (1, 9), (0, 5)]);
            let outcome = run_spans(&fleet_spans(), workers, &runner);
            assert_eq!(outcome.error, Some((0, 5, None)));
            // Everything strictly below the final floor executed.
            let executed = runner.executed.into_inner().unwrap();
            for dep in 0..4u32 {
                for index in 0..5u64 {
                    assert!(executed.contains(&(dep, index)), "({dep}, {index}) skipped");
                }
            }
        }
    }

    #[test]
    fn an_error_stops_later_rounds() {
        // Fail the very first round of dep 0: with one worker (fully
        // sequential, list order) only keys below the floor may still
        // run afterwards, so the whole fleet is skipped.
        let runner = SyntheticRunner::new([(0, 0)]);
        let outcome = run_spans(&fleet_spans(), 1, &runner);
        assert!(outcome.error.is_some());
        // Only rounds with key < (0 << 32 | 0) = 0 could run: none.
        assert_eq!(outcome.per_worker.iter().sum::<u64>(), 0);
    }

    /// No-op runner that holds every worker at its first `begin` until
    /// all of them have taken a span — so on any host (including a
    /// single hardware thread) no worker can drain the list alone.
    struct RendezvousRunner {
        barrier: std::sync::Barrier,
        arrived: Mutex<HashSet<std::thread::ThreadId>>,
    }

    impl SpanRunner for RendezvousRunner {
        type State = ();
        type Error = ();

        fn begin(&self, _dep: u32) {
            // Each worker runs on its own thread.
            let worker = std::thread::current().id();
            if self.arrived.lock().unwrap().insert(worker) {
                self.barrier.wait();
            }
        }

        fn round(&self, _state: &mut (), _dep: u32, _index: u64) -> Result<(), ()> {
            Ok(())
        }

        fn finish(&self, _dep: u32, _state: ()) {}

        fn panicked(&self, _dep: u32, _index: u64, _message: String) {}
    }

    #[test]
    fn every_worker_takes_a_span() {
        // Four workers must each take a span to reach the rendezvous.
        let runner = RendezvousRunner {
            barrier: std::sync::Barrier::new(4),
            arrived: Mutex::new(HashSet::new()),
        };
        let outcome = run_spans(&fleet_spans(), 4, &runner);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.per_worker.iter().sum::<u64>(), 4 * 40);
        assert!(
            outcome.per_worker.iter().all(|&rounds| rounds > 0),
            "{:?}",
            outcome.per_worker
        );
    }

    #[test]
    fn a_panic_is_contained_and_surfaces_at_its_round_key() {
        for workers in [1usize, 2, 4] {
            let runner = SyntheticRunner::new([]).with_panics([(1, 3)]);
            let outcome = run_quietly(workers, &runner);
            let (dep, index, message) = outcome.error.expect("the panic must surface");
            assert_eq!((dep, index), (1, 3));
            let message = message.expect("a panic carries its message");
            assert!(message.contains("synthetic panic at (1, 3)"), "{message}");
            // The panic lowers the floor like an error: every round
            // strictly below it still executed — the pool survived.
            let executed = runner.executed.into_inner().unwrap();
            for dep in 0..4u32 {
                for index in 0..3u64 {
                    assert!(executed.contains(&(dep, index)), "({dep}, {index}) skipped");
                }
            }
            // The panicking span aborted before its `finish`; every
            // other begun span finished normally.
            let begins = runner.begins.into_inner();
            let finishes = runner.finishes.into_inner();
            assert_eq!(begins, finishes + 1);
        }
    }

    #[test]
    fn the_lowest_key_failure_wins_whether_error_or_panic() {
        for workers in [1usize, 2, 4] {
            // Error below panic: the error is the run's failure.
            let runner = SyntheticRunner::new([(0, 5)]).with_panics([(2, 5)]);
            assert_eq!(run_quietly(workers, &runner).error, Some((0, 5, None)));

            // Panic below error: the panic is.
            let runner = SyntheticRunner::new([(2, 5)]).with_panics([(0, 5)]);
            let (dep, index, message) = run_quietly(workers, &runner)
                .error
                .expect("the panic surfaces");
            assert_eq!((dep, index), (0, 5));
            assert!(message.is_some(), "the error won over a lower panic");
        }
    }

    #[test]
    fn an_empty_list_returns_immediately() {
        let runner = SyntheticRunner::new([]);
        let outcome = run_spans(&[], 4, &runner);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.per_worker, [0; 4]);
    }
}
