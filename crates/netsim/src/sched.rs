//! The conservative virtual-time scheduler.
//!
//! Actors are logical threads of control; at most one executes at a
//! time, and the one allowed to run is always the one with the minimum
//! local virtual clock (ties broken by actor id, i.e. spawn order). This
//! makes every simulation fully deterministic while letting protocol
//! code be written in ordinary blocking style.
//!
//! Actors run on pooled OS worker threads. A spawn hands the actor to an
//! idle worker and starts a new thread only when none is idle; a worker
//! rejoins the idle list when its actor finishes. A simulation that
//! spawns one short actor per pipelined RPC therefore starts a handful
//! of threads, not one per call. Dropping the [`Sim`], which
//! [`Sim::run`] does as it returns, ends the workers and joins them.
//!
//! Each worker waits on a condition variable of its own, and
//! [`Sim::run`] on another, all on the one state mutex. A handoff signals
//! exactly the worker whose actor runs next (nobody, when the yielding
//! actor is itself next), `Sim::run` only once no actor is live, and
//! every worker only when the simulation fails or ends. With one shared
//! condition variable every waiting thread would wake on every handoff
//! just to find it was not its turn. A spawn signals nobody: the worker
//! takes up its new actor when the actor is first scheduled.

use crate::time::SimTime;

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

type ActorId = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    /// Waiting for virtual time to reach `wake_at`; unparks are banked.
    Sleeping,
    /// Waiting for an unpark (optionally with a timeout).
    Parked,
}

#[derive(Debug)]
struct Block {
    kind: BlockKind,
    /// `None` means "until unparked".
    wake_at: Option<SimTime>,
    unparked: bool,
}

struct ActorRec {
    name: String,
    block: Option<Block>,
    /// A banked unpark delivered while the actor was running or sleeping.
    permit: bool,
    /// Index of the worker in [`State::workers`] that runs this actor.
    worker: usize,
}

/// An actor's body, as handed to a worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One pooled OS thread.
struct Worker {
    /// Signalled when the worker's actor is scheduled, and when the
    /// simulation fails or ends; only the worker's own thread waits on it.
    wake: Arc<Condvar>,
    /// The actor handed to this worker and not yet taken up.
    job: Option<(ActorId, Job)>,
}

#[derive(Default)]
struct State {
    time: SimTime,
    running: Option<ActorId>,
    actors: HashMap<ActorId, ActorRec>,
    live: usize,
    next_id: ActorId,
    failed: Option<String>,
    started: bool,
    /// Pending wake-ups `(wake_at, actor)`, lazily invalidated: an entry
    /// is honored only while the actor's *current* block still wakes at
    /// exactly that time; anything else (finished actor, consumed
    /// block, rescheduled wake) is discarded on pop. Keeps picking the
    /// next actor O(log n) instead of a linear scan over all actors —
    /// the scheduling hot path once simulations carry thousands of
    /// actors.
    ready: BinaryHeap<Reverse<(SimTime, ActorId)>>,
    /// Every worker started, indexed by worker id.
    workers: Vec<Worker>,
    /// The workers' threads, joined when the [`Sim`] is dropped.
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Ids of the workers without an actor.
    idle: Vec<usize>,
    /// Set once the [`Sim`] is dropped: idle workers exit.
    closed: bool,
    /// Waits that returned with nothing for the waiter to do: its actor
    /// not scheduled, or `Sim::run` with actors live, and no failure.
    #[cfg(test)]
    idle_wakeups: u64,
}

pub(crate) struct Scheduler {
    state: Mutex<State>,
    /// Signalled only when no actor is live or the simulation fails;
    /// [`Sim::run`] waits on it.
    done: Condvar,
}

impl Scheduler {
    fn new() -> Arc<Self> {
        Arc::new(Scheduler { state: Mutex::new(State::default()), done: Condvar::new() })
    }

    /// Waits on `cv` until `ready` holds, or returns the failure message
    /// once the simulation has failed.
    fn wait_until(
        st: &mut MutexGuard<'_, State>,
        cv: &Condvar,
        ready: impl Fn(&State) -> bool,
    ) -> Option<String> {
        loop {
            if let Some(msg) = &st.failed {
                return Some(msg.clone());
            }
            if ready(st) {
                return None;
            }
            cv.wait(st);
            #[cfg(test)]
            if !ready(st) && st.failed.is_none() {
                st.idle_wakeups += 1;
            }
        }
    }

    /// Wakes the threads that have something to do after a handoff:
    /// every worker and [`Sim::run`] once the simulation has failed, so
    /// that all of them exit; otherwise the scheduled actor's worker,
    /// unless the actor is `yielding` (the caller, which keeps the token
    /// without waiting), or `Sim::run` once no actor is live.
    fn wake_next(&self, st: &State, yielding: Option<ActorId>) {
        if st.failed.is_some() {
            Self::wake_workers(st);
            self.done.notify_one();
        } else if let Some(id) = st.running {
            if Some(id) != yielding {
                st.workers[st.actors[&id].worker].wake.notify_one();
            }
        } else if st.live == 0 {
            self.done.notify_one();
        }
    }

    fn wake_workers(st: &State) {
        for worker in &st.workers {
            worker.wake.notify_one();
        }
    }

    /// Picks the next actor to run. Must be called with `running == None`.
    ///
    /// Pops the minimum `(wake_at, actor)` entry — ties therefore still
    /// resolve by actor id, i.e. spawn order, exactly as the previous
    /// full scan did — skipping entries the lazy invalidation scheme
    /// has made stale.
    fn schedule_next(st: &mut State) {
        debug_assert!(st.running.is_none());
        while let Some(&Reverse((wake, id))) = st.ready.peek() {
            let current_wake =
                st.actors.get(&id).and_then(|rec| rec.block.as_ref()).and_then(|b| b.wake_at);
            st.ready.pop();
            if current_wake != Some(wake) {
                continue; // stale: finished, already woken, or re-timed
            }
            debug_assert!(wake >= st.time, "virtual time went backwards");
            st.time = st.time.max(wake);
            st.running = Some(id);
            return;
        }
        if st.live > 0 && st.failed.is_none() {
            let stuck: Vec<&str> = st.actors.values().map(|r| r.name.as_str()).collect();
            st.failed = Some(format!(
                "virtual-time deadlock at {}: all live actors parked: {stuck:?}",
                st.time
            ));
        }
    }

    /// Blocks the calling actor and waits to be rescheduled.
    /// Returns whether it was unparked (vs. woken by time).
    fn block_and_wait(ctx: &Ctx, kind: BlockKind, wake_at: Option<SimTime>) -> bool {
        let (sched, id) = (&ctx.sched, ctx.id);
        let mut st = sched.state.lock();
        debug_assert_eq!(st.running, Some(id), "only the running actor may block");
        {
            let rec = st.actors.get_mut(&id).expect("actor record");
            rec.block = Some(Block { kind, wake_at, unparked: false });
        }
        if let Some(wake) = wake_at {
            st.ready.push(Reverse((wake, id)));
        }
        st.running = None;
        Self::schedule_next(&mut st);
        sched.wake_next(&st, Some(id));
        if let Some(msg) = Self::wait_until(&mut st, &ctx.wake, |st| st.running == Some(id)) {
            drop(st);
            panic!("{msg}");
        }
        let rec = st.actors.get_mut(&id).expect("actor record");
        rec.block.take().map(|b| b.unparked).unwrap_or(false)
    }

    fn spawn_inner(self: &Arc<Self>, name: &str, f: Job) -> ActorHandle {
        let mut st = self.state.lock();
        if st.failed.is_some() {
            panic!("cannot spawn into a failed simulation");
        }
        let id = st.next_id;
        st.next_id += 1;
        let birth = st.time;
        let worker = st.idle.pop().unwrap_or_else(|| {
            let worker = st.workers.len();
            let wake = Arc::new(Condvar::new());
            st.workers.push(Worker { wake: Arc::clone(&wake), job: None });
            let sched = Arc::clone(self);
            let thread = std::thread::Builder::new()
                .name(format!("sim-worker-{worker}"))
                .spawn(move || sched.work(worker, &wake))
                .expect("failed to spawn a simulation worker thread");
            st.threads.push(thread);
            worker
        });
        st.workers[worker].job = Some((id, f));
        st.actors.insert(
            id,
            ActorRec {
                name: name.to_string(),
                block: Some(Block {
                    kind: BlockKind::Sleeping,
                    wake_at: Some(birth),
                    unparked: false,
                }),
                permit: false,
                worker,
            },
        );
        st.ready.push(Reverse((birth, id)));
        st.live += 1;
        ActorHandle { sched: Arc::clone(self), id }
    }

    /// A worker thread's loop: runs each actor handed to it, waiting idle
    /// in between, and exits once the simulation has failed or ended.
    fn work(self: Arc<Self>, worker: usize, wake: &Arc<Condvar>) {
        loop {
            let (id, f) = {
                let mut st = self.state.lock();
                loop {
                    if let Some(job) = st.workers[worker].job.take() {
                        break job;
                    }
                    if st.closed || st.failed.is_some() {
                        return;
                    }
                    wake.wait(&mut st);
                }
            };
            self.run_actor(id, wake, f);
        }
    }

    /// Runs one actor on the calling worker: binds the actor context,
    /// waits for the first schedule, runs `f` and deregisters the actor.
    fn run_actor(self: &Arc<Self>, id: ActorId, wake: &Arc<Condvar>, f: Job) {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Ctx { sched: Arc::clone(self), id, wake: Arc::clone(wake) })
        });
        let scheduled = {
            let mut st = self.state.lock();
            let failed = Self::wait_until(&mut st, wake, |st| st.running == Some(id)).is_some();
            if !failed {
                st.actors.get_mut(&id).expect("actor record").block = None;
            }
            !failed
        };
        // A simulation that failed first just deregisters the actor.
        let panic = if scheduled {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err().map(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string())
            })
        } else {
            None
        };
        CURRENT.with(|c| *c.borrow_mut() = None);
        self.finish_actor(id, panic);
    }

    /// Deregisters a finished actor and returns its worker to the idle
    /// list. `panic` is the detail of the actor's panic, if it panicked.
    fn finish_actor(&self, id: ActorId, panic: Option<String>) {
        let mut st = self.state.lock();
        let rec = st.actors.remove(&id).expect("a live actor has a record");
        st.live -= 1;
        st.idle.push(rec.worker);
        if let Some(detail) = panic {
            if st.failed.is_none() {
                st.failed = Some(format!("actor '{}' panicked: {detail}", rec.name));
            }
        }
        if st.running == Some(id) {
            st.running = None;
            if st.failed.is_none() {
                Self::schedule_next(&mut st);
            }
        }
        self.wake_next(&st, None);
    }
}

struct Ctx {
    sched: Arc<Scheduler>,
    id: ActorId,
    wake: Arc<Condvar>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let ctx = borrow.as_ref().expect("this operation must run inside a simulation actor");
        f(ctx)
    })
}

/// Whether the calling thread is a simulation actor, i.e. whether
/// [`now`]/[`sleep`]/[`park`] may be called without panicking. Lets code
/// shared between actors and ordinary threads (tests, setup) charge
/// virtual-time costs only when there is a clock to charge.
pub fn in_actor() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The calling actor's current virtual time.
///
/// # Panics
///
/// Panics when called from a thread that is not a simulation actor.
pub fn now() -> SimTime {
    with_ctx(|ctx| ctx.sched.state.lock().time)
}

/// Advances the calling actor's clock by `d`, yielding to any actor whose
/// clock is earlier. Unparks received while sleeping are banked as a
/// permit for the next [`park`].
///
/// # Panics
///
/// Panics outside an actor, or if the simulation has failed.
pub fn sleep(d: Duration) {
    with_ctx(|ctx| {
        let wake = {
            let st = ctx.sched.state.lock();
            st.time + d
        };
        Scheduler::block_and_wait(ctx, BlockKind::Sleeping, Some(wake));
    });
}

/// Advances the calling actor's clock to `t` (no-op if `t` is in the past).
///
/// # Panics
///
/// Panics outside an actor, or if the simulation has failed.
pub fn advance_to(t: SimTime) {
    with_ctx(|ctx| {
        let wake = {
            let st = ctx.sched.state.lock();
            if t <= st.time {
                return;
            }
            t
        };
        Scheduler::block_and_wait(ctx, BlockKind::Sleeping, Some(wake));
    });
}

/// Parks the calling actor until some other actor unparks it.
///
/// If an unpark permit is already banked, consumes it and returns
/// immediately without yielding.
///
/// # Panics
///
/// Panics outside an actor. A simulation in which every live actor is
/// parked is reported as a deadlock and fails.
pub fn park() {
    with_ctx(|ctx| {
        {
            let mut st = ctx.sched.state.lock();
            let rec = st.actors.get_mut(&ctx.id).expect("actor record");
            if rec.permit {
                rec.permit = false;
                return;
            }
        }
        Scheduler::block_and_wait(ctx, BlockKind::Parked, None);
    });
}

/// Parks the calling actor until unparked or until `d` of virtual time
/// elapses. Returns `true` if it was unparked, `false` on timeout.
///
/// # Panics
///
/// Panics outside an actor.
pub fn park_timeout(d: Duration) -> bool {
    with_ctx(|ctx| {
        let wake = {
            let mut st = ctx.sched.state.lock();
            let rec = st.actors.get_mut(&ctx.id).expect("actor record");
            if rec.permit {
                rec.permit = false;
                return true;
            }
            st.time + d
        };
        Scheduler::block_and_wait(ctx, BlockKind::Parked, Some(wake))
    })
}

/// Returns a handle to the calling actor (for handing to peers that will
/// unpark it).
///
/// # Panics
///
/// Panics outside an actor.
pub fn current_actor() -> ActorHandle {
    with_ctx(|ctx| ActorHandle { sched: Arc::clone(&ctx.sched), id: ctx.id })
}

/// A handle to a spawned actor.
#[derive(Clone)]
pub struct ActorHandle {
    sched: Arc<Scheduler>,
    id: ActorId,
}

/// Two handles are equal when they name the same actor.
impl PartialEq for ActorHandle {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.sched, &other.sched)
    }
}

impl std::fmt::Debug for ActorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorHandle").field("id", &self.id).finish()
    }
}

impl ActorHandle {
    /// Wakes the actor if it is parked; otherwise banks a permit that the
    /// actor's next [`park`] will consume. Unparking a finished actor is
    /// a no-op.
    pub fn unpark(&self) {
        let mut st = self.sched.state.lock();
        let time = st.time;
        let Some(rec) = st.actors.get_mut(&self.id) else { return };
        let mut woke_at = None;
        match rec.block.as_mut() {
            Some(b) if b.kind == BlockKind::Parked => {
                b.unparked = true;
                let wake = match b.wake_at {
                    Some(t) if t <= time => t,
                    _ => time,
                };
                b.wake_at = Some(wake);
                woke_at = Some(wake);
            }
            _ => rec.permit = true,
        }
        if let Some(wake) = woke_at {
            st.ready.push(Reverse((wake, self.id)));
        }
        // The unparker keeps running; the scheduler will consider the
        // woken actor at the unparker's next yield.
    }
}

/// A virtual-time simulation: spawn actors, then [`Sim::run`] to completion.
///
/// See the [crate docs](crate) for an example.
pub struct Sim {
    sched: Arc<Scheduler>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.sched.state.lock();
        f.debug_struct("Sim").field("time", &st.time).field("live_actors", &st.live).finish()
    }
}

impl Drop for Sim {
    /// Ends the worker threads once the simulation is over and joins
    /// them, so no thread outlives the `Sim`. Dropping a simulation that
    /// was never [run](Sim::run) fails it: its spawned actors are
    /// deregistered unrun instead of blocking forever.
    fn drop(&mut self) {
        let threads = {
            let mut st = self.sched.state.lock();
            if !st.started && st.live > 0 && st.failed.is_none() {
                st.failed = Some("simulation dropped without running".to_string());
            }
            st.closed = true;
            Scheduler::wake_workers(&st);
            std::mem::take(&mut st.threads)
        };
        for thread in threads {
            // A worker catches its actors' panics, so the join cannot fail.
            let _ = thread.join();
        }
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim { sched: Scheduler::new() }
    }

    /// Spawns an actor. Actors spawned before [`Sim::run`] start at time
    /// zero; actors spawned by other actors start at their parent's
    /// current time.
    ///
    /// The closure runs on a pooled OS worker thread but only ever
    /// executes while it holds the virtual-time token.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) -> ActorHandle {
        self.sched.spawn_inner(name, Box::new(f))
    }

    /// Runs the simulation until every actor has finished, returning the
    /// final virtual time.
    ///
    /// # Panics
    ///
    /// Panics if any actor panicked or if the simulation deadlocked
    /// (every live actor parked with no pending wake).
    pub fn run(self) -> SimTime {
        let mut st = self.sched.state.lock();
        assert!(!st.started, "run may only be called once");
        st.started = true;
        if st.running.is_none() {
            Scheduler::schedule_next(&mut st);
        }
        self.sched.wake_next(&st, None);
        if let Some(msg) = Scheduler::wait_until(&mut st, &self.sched.done, |st| st.live == 0) {
            drop(st);
            panic!("{msg}");
        }
        st.time
    }
}

/// How many worker threads the calling actor's simulation has started.
#[cfg(test)]
pub(crate) fn workers_started() -> usize {
    with_ctx(|ctx| ctx.sched.state.lock().workers.len())
}

/// Spawns an actor from within another actor, on the same scheduler.
///
/// Equivalent to [`Sim::spawn`] but callable where the [`Sim`] handle is
/// not available; the child starts at the parent's current virtual time.
///
/// # Panics
///
/// Panics when called from a thread that is not a simulation actor.
pub fn spawn_from_actor<F: FnOnce() + Send + 'static>(name: &str, f: F) -> ActorHandle {
    with_ctx(|ctx| ctx.sched.spawn_inner(name, Box::new(f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    #[test]
    fn single_actor_advances_time() {
        let sim = Sim::new();
        sim.spawn("a", || {
            assert_eq!(now(), SimTime::ZERO);
            sleep(Duration::from_secs(3));
            assert_eq!(now(), SimTime::from_secs(3));
        });
        assert_eq!(sim.run(), SimTime::from_secs(3));
    }

    #[test]
    fn actors_interleave_by_virtual_time() {
        let sim = Sim::new();
        let log = Arc::new(PMutex::new(Vec::new()));
        for (name, step_ms) in [("a", 30u64), ("b", 20)] {
            let log = log.clone();
            sim.spawn(name, move || {
                for _ in 0..3 {
                    sleep(Duration::from_millis(step_ms));
                    log.lock().push((name, now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run();
        let log = log.lock();
        assert_eq!(*log, vec![("b", 20), ("a", 30), ("b", 40), ("a", 60), ("b", 60), ("a", 90)]);
    }

    #[test]
    fn ties_resolve_by_spawn_order() {
        let sim = Sim::new();
        let log = Arc::new(PMutex::new(Vec::new()));
        for name in ["first", "second"] {
            let log = log.clone();
            sim.spawn(name, move || {
                sleep(Duration::from_millis(5));
                log.lock().push(name);
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec!["first", "second"]);
    }

    #[test]
    fn park_and_unpark() {
        let sim = Sim::new();
        let result = Arc::new(PMutex::new(None));
        let r2 = result.clone();
        let waiter = sim.spawn("waiter", move || {
            park();
            *r2.lock() = Some(now());
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_secs(1));
            waiter.unpark();
        });
        sim.run();
        assert_eq!(result.lock().unwrap(), SimTime::from_secs(1));
    }

    #[test]
    fn unpark_before_park_is_banked() {
        let sim = Sim::new();
        let sim2 = &sim;
        let handle = Arc::new(PMutex::new(None::<ActorHandle>));
        let h2 = handle.clone();
        let done = Arc::new(PMutex::new(false));
        let d2 = done.clone();
        let target = sim2.spawn("target", move || {
            sleep(Duration::from_secs(2)); // unpark arrives during this sleep
            park(); // consumes the banked permit, returns immediately
            *d2.lock() = true;
            assert_eq!(now(), SimTime::from_secs(2));
        });
        *handle.lock() = Some(target);
        let h3 = handle.clone();
        sim.spawn("poker", move || {
            sleep(Duration::from_secs(1));
            h3.lock().as_ref().unwrap().unpark();
        });
        sim.run();
        assert!(*done.lock());
        let _ = h2;
    }

    #[test]
    fn park_timeout_times_out() {
        let sim = Sim::new();
        let out = Arc::new(PMutex::new(None));
        let o = out.clone();
        sim.spawn("a", move || {
            let unparked = park_timeout(Duration::from_millis(100));
            *o.lock() = Some((unparked, now()));
        });
        sim.run();
        assert_eq!(out.lock().unwrap(), (false, SimTime::from_millis(100)));
    }

    #[test]
    fn park_timeout_unparked_early() {
        let sim = Sim::new();
        let out = Arc::new(PMutex::new(None));
        let o = out.clone();
        let waiter = sim.spawn("waiter", move || {
            let unparked = park_timeout(Duration::from_secs(60));
            *o.lock() = Some((unparked, now()));
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_millis(250));
            waiter.unpark();
        });
        sim.run();
        assert_eq!(out.lock().unwrap(), (true, SimTime::from_millis(250)));
    }

    #[test]
    fn nested_spawn_starts_at_parent_time() {
        let sim = Sim::new();
        let out = Arc::new(PMutex::new(None));
        let o = out.clone();
        sim.spawn("parent", move || {
            sleep(Duration::from_secs(5));
            current_actor(); // smoke-test handle acquisition
            spawn_from_actor("child", move || {
                *o.lock() = Some(now());
            });
        });
        sim.run();
        assert_eq!(out.lock().unwrap(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn all_parked_is_deadlock() {
        let sim = Sim::new();
        sim.spawn("stuck", park);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn actor_panic_propagates() {
        let sim = Sim::new();
        sim.spawn("bad", || panic!("boom"));
        sim.spawn("good", || sleep(Duration::from_secs(1)));
        sim.run();
    }

    #[test]
    fn advance_to_past_is_noop() {
        let sim = Sim::new();
        sim.spawn("a", || {
            sleep(Duration::from_secs(1));
            advance_to(SimTime::ZERO);
            assert_eq!(now(), SimTime::from_secs(1));
            advance_to(SimTime::from_secs(2));
            assert_eq!(now(), SimTime::from_secs(2));
        });
        sim.run();
    }

    #[test]
    fn run_returns_zero_with_no_actors() {
        assert_eq!(Sim::new().run(), SimTime::ZERO);
    }

    #[test]
    fn dropping_an_unrun_sim_releases_its_actors() {
        let spawned = Arc::new(PMutex::new(false));
        let token = Arc::new(());
        let sched;
        {
            let sim = Sim::new();
            sched = Arc::clone(&sim.sched);
            let s = spawned.clone();
            sim.spawn("never-scheduled", move || {
                *s.lock() = true; // must never execute
            });
            spawn_bystanders(&sim, &token);
            // sim dropped here without run()
        }
        wait_for_release(&token);
        wait_for_release(&sched);
        assert!(!*spawned.lock(), "the actor body never ran");
    }

    /// Spawns 4 actors that finish after 1 ms, leaving their workers
    /// idle for the rest of the run.
    fn spawn_finished(sim: &Sim) {
        for i in 0..4 {
            sim.spawn(&format!("finished-{i}"), || sleep(Duration::from_millis(1)));
        }
    }

    /// Spawns 16 actors that each own a clone of `token`: half park at
    /// once, half sleep an hour ahead and then park.
    fn spawn_bystanders(sim: &Sim, token: &Arc<()>) {
        for i in 0..16 {
            let token = Arc::clone(token);
            sim.spawn(&format!("bystander-{i}"), move || {
                let _token = token;
                if i % 2 == 1 {
                    sleep(Duration::from_secs(3600));
                }
                park();
            });
        }
    }

    /// Waits, on the wall clock, until every other holder of `token` has
    /// dropped it: the actors that own a clone, or, for the scheduler,
    /// its worker threads.
    fn wait_for_release<T>(token: &Arc<T>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(token) > 1 {
            let left = Arc::strong_count(token) - 1;
            assert!(std::time::Instant::now() < deadline, "{left} holders never let go");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `sim`, which must fail, and returns its panic message.
    fn run_failure(sim: Sim) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the simulation must fail");
        err.downcast_ref::<String>().cloned().expect("string panic payload")
    }

    #[test]
    fn actor_panic_releases_every_bystander() {
        let token = Arc::new(());
        let sim = Sim::new();
        let sched = Arc::clone(&sim.sched);
        spawn_finished(&sim);
        spawn_bystanders(&sim, &token);
        sim.spawn("bad", || {
            sleep(Duration::from_secs(1));
            panic!("boom");
        });
        assert_eq!(run_failure(sim), "actor 'bad' panicked: boom");
        wait_for_release(&token);
        wait_for_release(&sched);
    }

    #[test]
    fn deadlock_releases_every_bystander() {
        let token = Arc::new(());
        let sim = Sim::new();
        let sched = Arc::clone(&sim.sched);
        spawn_finished(&sim);
        spawn_bystanders(&sim, &token);
        let msg = run_failure(sim);
        assert!(msg.starts_with("virtual-time deadlock at 3600.000"), "{msg}");
        wait_for_release(&token);
        wait_for_release(&sched);
    }

    #[test]
    fn finished_actors_hand_their_workers_on() {
        let sim = Sim::new();
        let sched = Arc::clone(&sim.sched);
        spawn_finished(&sim);
        sim.spawn("late", || {
            sleep(Duration::from_millis(2));
            for i in 0..4 {
                spawn_from_actor(&format!("child-{i}"), move || sleep(Duration::from_millis(i)));
            }
        });
        assert_eq!(sim.run(), SimTime::from_millis(5));
        assert_eq!(sched.state.lock().workers.len(), 5, "the children reuse idle workers");
        wait_for_release(&sched);
    }

    #[test]
    fn a_handoff_wakes_only_the_actor_that_runs_next() {
        let sim = Sim::new();
        for i in 0..32 {
            sim.spawn(&format!("bystander-{i}"), || {
                assert!(!park_timeout(Duration::from_secs(3600)));
            });
        }
        sim.spawn("worker", || {
            for _ in 0..10_000 {
                sleep(Duration::from_micros(1));
            }
        });
        let sched = Arc::clone(&sim.sched);
        assert_eq!(sim.run(), SimTime::from_secs(3600));
        assert_eq!(sched.state.lock().idle_wakeups, 0, "waits that returned out of turn");
    }
}
