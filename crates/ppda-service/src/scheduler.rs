//! Work-stealing round scheduling over per-deployment index spans.
//!
//! The unit of scheduling is a [`Span`]: a contiguous range of round
//! indices of one deployment. Each worker owns a deque of spans; it pops
//! its own front, and when its deque runs dry it steals from the *back* of
//! a victim's deque — the classic split that keeps owner and thief on
//! opposite ends. Every span of a deployment is dealt to one deque, in
//! start order, so unstolen spans of a deployment run one after another,
//! each resuming the driver the previous one parked. A stolen span (the
//! last span of the victim's last deployment) can run beside another span
//! of its deployment, and one of the two then builds a fresh driver; that
//! is also how one long deployment spreads over several workers. The hot
//! path (the round loop inside a span) touches no lock at all: queues are
//! locked only to pop or steal a whole span, and the only shared state per
//! round is one relaxed atomic load on the error [`Floor`].
//!
//! # Deterministic error selection
//!
//! Rounds are ordered by a 64-bit key, `(round_index << 32) | deployment`
//! — index-major, so "the first error" means the erroring round with the
//! lowest index (ties broken by deployment id), independent of how spans
//! were scheduled or stolen. The floor starts at `u64::MAX` and is
//! lowered (`fetch_min`) to every erroring round's key:
//!
//! * a round whose key is **below** the floor always executes, so the
//!   true minimum erroring key is always reached and reported;
//! * a round whose key is **at or above** the floor is skipped, so the
//!   fleet stops doing doomed work soon after the first failure.
//!
//! Because round outcomes are pure functions of their coordinates, the
//! surfaced `(key, error)` pair is identical for every worker count.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A contiguous range of round indices of one deployment: the unit of
/// scheduling and stealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// Deployment id (slot index in the engine).
    pub dep: u32,
    /// First round index of the span (inclusive).
    pub start: u64,
    /// Number of rounds in the span.
    pub len: u64,
}

/// The scheduling key of one round: index-major, deployment-minor.
///
/// Round indices above `u32::MAX` would collide; campaigns are bounded
/// far below that (the engine checks on `advance`).
pub(crate) fn round_key(dep: u32, index: u64) -> u64 {
    (index << 32) | dep as u64
}

/// The lowered-only error watermark shared by all workers.
pub(crate) struct Floor(AtomicU64);

impl Floor {
    pub(crate) fn new() -> Self {
        Floor(AtomicU64::new(u64::MAX))
    }

    /// Should the round with this key still run? (Strictly below the
    /// lowest erroring key seen so far; everything if no error yet.)
    pub(crate) fn allows(&self, key: u64) -> bool {
        key < self.0.load(Ordering::Relaxed)
    }

    /// Record an erroring round's key, lowering the watermark.
    pub(crate) fn sink(&self, key: u64) {
        self.0.fetch_min(key, Ordering::Relaxed);
    }
}

/// Per-span execution hooks the scheduler drives. `begin`/`finish`
/// bracket each span so implementations can amortize per-deployment
/// state (a round driver, a local accumulator) over the span's rounds,
/// hand it on to whichever span of the deployment begins next, and
/// publish results once per span instead of once per round.
pub(crate) trait SpanRunner: Sync {
    /// Span-scoped state (constructed outside any queue lock).
    type State;
    /// Per-round error; surfaced as the minimum-key error of the run.
    type Error: Send;

    /// Called once when a worker starts a span of deployment `dep`.
    fn begin(&self, dep: u32) -> Self::State;

    /// Run one round. Errors lower the floor but do not abort the span:
    /// remaining rounds *below* the floor still run.
    fn round(&self, state: &mut Self::State, dep: u32, index: u64) -> Result<(), Self::Error>;

    /// Called once when the span ends (even if every round was skipped).
    fn finish(&self, dep: u32, state: Self::State);
}

/// Per-worker tallies of one scheduling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerStats {
    /// Rounds this worker executed successfully.
    pub executed: u64,
    /// Spans this worker stole from another worker's deque.
    pub steals: u64,
}

/// Outcome of one scheduling run.
pub(crate) struct RunOutcome<E> {
    /// Per-worker execution tallies, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// The erroring round with the lowest key, if any round failed.
    pub error: Option<(u64, E)>,
    /// The panicking round with the lowest key, if runner code panicked:
    /// `(key, panic message)`. Panics are caught per span so one broken
    /// deployment cannot take down the whole fleet's worker pool; like
    /// errors they lower the floor, so the surfaced minimum is
    /// deterministic for any worker count.
    pub panic: Option<(u64, String)>,
}

impl<E> RunOutcome<E> {
    /// Total rounds executed across all workers.
    pub fn executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Total spans stolen across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

/// One worker's result: tallies plus its locally-best (minimum-key)
/// error and panic.
struct WorkerOutcome<E> {
    stats: WorkerStats,
    error: Option<(u64, E)>,
    panic: Option<(u64, String)>,
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

/// Execute every span in `queues` (one deque per worker) on
/// `queues.len()` scoped threads, stealing across deques on exhaustion.
///
/// Returns per-worker stats and the minimum-key error (see the module
/// docs for why that minimum is deterministic).
pub(crate) fn run_spans<R: SpanRunner>(
    queues: Vec<VecDeque<Span>>,
    runner: &R,
) -> RunOutcome<R::Error> {
    let workers = queues.len();
    assert!(workers > 0, "scheduler needs at least one worker");
    let queues: Vec<Mutex<VecDeque<Span>>> = queues.into_iter().map(Mutex::new).collect();
    let floor = Floor::new();

    let mut outcomes: Vec<WorkerOutcome<R::Error>> = if workers == 1 {
        // Single worker: same code path, no thread spawn.
        vec![worker_loop(0, &queues, &floor, runner)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let floor = &floor;
                    s.spawn(move || worker_loop(w, queues, floor, runner))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scheduler worker panicked"))
                .collect()
        })
    };

    // The run's error is the minimum key over the workers' local minima;
    // panics are selected the same way, independently.
    let winner = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.error.as_ref().map(|(key, _)| (*key, i)))
        .min();
    let error = winner.map(|(_, i)| outcomes[i].error.take().expect("winner has an error"));
    let panic = outcomes
        .iter_mut()
        .filter_map(|o| o.panic.take())
        .min_by_key(|&(key, _)| key);
    RunOutcome {
        workers: outcomes.into_iter().map(|o| o.stats).collect(),
        error,
        panic,
    }
}

fn worker_loop<R: SpanRunner>(
    worker: usize,
    queues: &[Mutex<VecDeque<Span>>],
    floor: &Floor,
    runner: &R,
) -> WorkerOutcome<R::Error> {
    let mut stats = WorkerStats::default();
    let mut best: Option<(u64, R::Error)> = None;
    let mut best_panic: Option<(u64, String)> = None;
    loop {
        // Own work from the front; steal from a victim's back.
        let mut next = queues[worker].lock().expect("queue poisoned").pop_front();
        if next.is_none() {
            for off in 1..queues.len() {
                let victim = (worker + off) % queues.len();
                if let Some(span) = queues[victim].lock().expect("queue poisoned").pop_back() {
                    stats.steals += 1;
                    next = Some(span);
                    break;
                }
            }
        }
        let Some(span) = next else { break };

        // The whole span runs inside one catch_unwind so a panicking
        // runner (a poisoned deployment, a bug in observer code) is
        // contained: the worker keeps draining other spans, and the
        // panic surfaces through the same floor machinery as a typed
        // round error. `at` tracks the round being attempted so the
        // panic is attributed to a precise key.
        let at = Cell::new(span.start);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut state = runner.begin(span.dep);
            for index in span.start..span.start + span.len {
                at.set(index);
                let key = round_key(span.dep, index);
                if !floor.allows(key) {
                    continue;
                }
                match runner.round(&mut state, span.dep, index) {
                    Ok(()) => stats.executed += 1,
                    Err(e) => {
                        floor.sink(key);
                        if best.as_ref().is_none_or(|(k, _)| key < *k) {
                            best = Some((key, e));
                        }
                    }
                }
            }
            runner.finish(span.dep, state);
        }));
        if let Err(payload) = caught {
            let key = round_key(span.dep, at.get());
            floor.sink(key);
            if best_panic.as_ref().is_none_or(|(k, _)| key < *k) {
                best_panic = Some((key, panic_message(payload)));
            }
        }
    }
    WorkerOutcome {
        stats,
        error: best,
        panic: best_panic,
    }
}

/// Deal `spans` into `workers` deques, every span of deployment `d` to
/// deque `d % workers` in the order given (start order), so a
/// deployment's spans run one after another on one worker unless one is
/// stolen; with one worker every span lands in one deque, in order.
pub(crate) fn deal_spans(
    spans: impl IntoIterator<Item = Span>,
    workers: usize,
) -> Vec<VecDeque<Span>> {
    let mut queues: Vec<VecDeque<Span>> = (0..workers).map(|_| VecDeque::new()).collect();
    for span in spans {
        queues[span.dep as usize % workers].push_back(span);
    }
    queues
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// Records executed (dep, index) pairs; errors on one configured
    /// set, panics on another.
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
        type Error = (u32, u64);

        fn begin(&self, _dep: u32) {
            self.begins.fetch_add(1, Ordering::Relaxed);
        }

        fn round(&self, _state: &mut (), dep: u32, index: u64) -> Result<(), (u32, u64)> {
            if self.panics.contains(&(dep, index)) {
                panic!("synthetic panic at ({dep}, {index})");
            }
            if self.fail.contains(&(dep, index)) {
                return Err((dep, index));
            }
            self.executed.lock().unwrap().push((dep, index));
            Ok(())
        }

        fn finish(&self, _dep: u32, _state: ()) {
            self.finishes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// 4 deployments × 40 rounds in spans of 8.
    fn fleet_spans() -> Vec<Span> {
        let mut spans = Vec::new();
        for dep in 0..4u32 {
            for chunk in 0..5u64 {
                spans.push(Span {
                    dep,
                    start: chunk * 8,
                    len: 8,
                });
            }
        }
        spans
    }

    #[test]
    fn each_deployment_deals_to_one_deque_in_start_order() {
        for workers in [1usize, 2, 3, 8] {
            let queues = deal_spans(fleet_spans(), workers);
            assert_eq!(queues.iter().map(VecDeque::len).sum::<usize>(), 20);
            for dep in 0..4u32 {
                let holders: Vec<usize> = (0..workers)
                    .filter(|&w| queues[w].iter().any(|s| s.dep == dep))
                    .collect();
                assert_eq!(holders.len(), 1, "dep {dep} split at {workers} workers");
                let starts: Vec<u64> = queues[holders[0]]
                    .iter()
                    .filter(|s| s.dep == dep)
                    .map(|s| s.start)
                    .collect();
                assert_eq!(starts, [0, 8, 16, 24, 32], "dep {dep} out of order");
            }
        }
        // One worker keeps the spans exactly as given.
        assert_eq!(
            deal_spans(fleet_spans(), 1)[0],
            fleet_spans().into_iter().collect::<VecDeque<_>>()
        );
    }

    #[test]
    fn keys_order_index_major() {
        assert!(round_key(3, 5) < round_key(0, 6));
        assert!(round_key(0, 5) < round_key(3, 5));
        assert!(round_key(u32::MAX, 7) < round_key(0, 8));
    }

    #[test]
    fn every_round_runs_exactly_once_for_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let runner = SyntheticRunner::new([]);
            let outcome = run_spans(deal_spans(fleet_spans(), workers), &runner);
            assert!(outcome.error.is_none());
            assert_eq!(outcome.executed(), 4 * 40);
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
            let outcome = run_spans(deal_spans(fleet_spans(), workers), &runner);
            let (key, (dep, index)) = outcome.error.expect("a round failed");
            assert_eq!((dep, index), (0, 5));
            assert_eq!(key, round_key(0, 5));
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
        // sequential, dealt order) only keys below the floor may still
        // run afterwards, so almost the whole fleet is skipped.
        let runner = SyntheticRunner::new([(0, 0)]);
        let outcome = run_spans(deal_spans(fleet_spans(), 1), &runner);
        assert!(outcome.error.is_some());
        // Only rounds with key < (0 << 32 | 0) = 0 could run: none.
        assert_eq!(outcome.executed(), 0);
    }

    /// No-op runner that holds every worker at its first `begin` until
    /// all of them have picked up a span — so on any host (including a
    /// single hardware thread) idle workers provably steal before the
    /// loaded worker can drain its own deque.
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
    }

    #[test]
    fn idle_workers_steal_loaded_queues() {
        // All spans dealt to worker 0; three idle workers must each
        // steal a span to reach the rendezvous.
        let mut queues = deal_spans(fleet_spans(), 1);
        queues.extend((0..3).map(|_| VecDeque::new()));
        let runner = RendezvousRunner {
            barrier: std::sync::Barrier::new(4),
            arrived: Mutex::new(HashSet::new()),
        };
        let outcome = run_spans(queues, &runner);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.executed(), 4 * 40);
        assert!(outcome.steals() >= 3, "idle workers never stole");
    }

    #[test]
    fn a_panic_is_contained_and_surfaces_at_its_round_key() {
        // A std panic hook would spam stderr for every caught panic;
        // silence it for the duration of the run.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for workers in [1usize, 2, 4] {
            let runner = SyntheticRunner::new([]).with_panics([(1, 3)]);
            let outcome = run_spans(deal_spans(fleet_spans(), workers), &runner);
            assert!(outcome.error.is_none());
            let (key, message) = outcome.panic.expect("the panic must surface");
            assert_eq!(key, round_key(1, 3));
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
        std::panic::set_hook(hook);
    }

    #[test]
    fn the_lowest_key_failure_wins_whether_error_or_panic() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for workers in [1usize, 2, 4] {
            // Error below panic: the error is the run's minimum; the
            // floor may mask the panic entirely, but never with a
            // lower key than the error's.
            let runner = SyntheticRunner::new([(0, 5)]).with_panics([(2, 5)]);
            let outcome = run_spans(deal_spans(fleet_spans(), workers), &runner);
            let (error_key, (dep, index)) = outcome.error.expect("error surfaces");
            assert_eq!((dep, index), (0, 5));
            assert_eq!(error_key, round_key(0, 5));
            if let Some((panic_key, _)) = outcome.panic {
                assert!(panic_key > error_key);
            }

            // Panic below error: roles swap.
            let runner = SyntheticRunner::new([(2, 5)]).with_panics([(0, 5)]);
            let outcome = run_spans(deal_spans(fleet_spans(), workers), &runner);
            let (panic_key, _) = outcome.panic.expect("panic surfaces");
            assert_eq!(panic_key, round_key(0, 5));
            if let Some((error_key, _)) = outcome.error {
                assert!(error_key > panic_key);
            }
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn empty_queues_return_immediately() {
        let runner = SyntheticRunner::new([]);
        let outcome = run_spans(deal_spans([], 4), &runner);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.executed(), 0);
        assert_eq!(outcome.steals(), 0);
    }
}
