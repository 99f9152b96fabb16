//! Deferred packet-level measurements on a process-wide worker pool.
//!
//! Nearly all of a campaign's wall time goes into the packet simulations
//! behind `moongen`, yet the control plane never needs their results: a
//! run's virtual duration is fixed by its arguments (`--time` plus the
//! tool's 200 ms wind-down), and every failure exit of the command is
//! decided from testbed state before the simulation starts. The
//! simulation is a pure function of a `Copy` [`ForwardingScenario`], so
//! it can run anywhere, later.
//!
//! This module runs it on a lazily started pool of
//! [`std::thread::available_parallelism`] persistent threads (persistent
//! so each keeps its thread-local frame pool warm). A worker renders the
//! report text, and the pcap bytes when a capture was requested; no frame
//! ever crosses a thread. The caller gets a `Measurement` handle and
//! blocks only when it needs the text.
//!
//! While a `DeferScope` is open on a thread, the `moongen` command does
//! not wait for its report: it stashes the handle for the controller
//! (`take_deferred`) and returns an empty stdout. The controller splices
//! the report into the run's captured output when it commits the run —
//! see the commit window in [`crate::controller`].

use pos_loadgen::scenario::{run_forwarding_experiment, ForwardingScenario};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// What a worker produced for one scenario.
#[derive(Debug)]
pub(crate) struct Rendered {
    /// The MoonGen-format report: the command's stdout.
    pub stdout: String,
    /// The TX capture as a pcap file, when one was requested; `Err`
    /// carries the writer's error text.
    pub pcap: Option<Result<Vec<u8>, String>>,
}

type Outcome = Result<Rendered, Box<dyn Any + Send>>;

#[derive(Default)]
struct Slot {
    outcome: Mutex<Option<Outcome>>,
    ready: Condvar,
}

/// A measurement submitted to the pool: resolves to its [`Rendered`]
/// output. Dropping every handle before a worker picks the job up
/// cancels it — the simulation never runs.
pub(crate) struct Measurement(Arc<Slot>);

impl std::fmt::Debug for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Measurement")
    }
}

impl Measurement {
    /// Blocks until the worker has rendered the output. A panic inside
    /// the simulation resurfaces here, on the caller's thread.
    pub(crate) fn wait(self) -> Rendered {
        let mut outcome = self.0.outcome.lock().expect(SLOT);
        loop {
            if let Some(done) = outcome.take() {
                return done.unwrap_or_else(|payload| panic::resume_unwind(payload));
            }
            outcome = self.0.ready.wait(outcome).expect(SLOT);
        }
    }
}

type Job = Box<dyn FnOnce() + Send>;

struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    queued: Condvar,
}

/// Worker threads in the pool, and the number of measurements a campaign
/// driver keeps in flight ahead of its commits.
pub fn parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The pool, started on first use. Its workers are never joined: they
/// live as long as the process, and a panic inside a simulation is
/// caught and handed to the waiting [`Measurement`], so nothing a
/// detached worker could hide is lost.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        for i in 0..parallelism() {
            std::thread::Builder::new()
                .name(format!("pos-measure-{i}"))
                .spawn(work)
                .expect("spawn measurement worker");
        }
        Pool {
            jobs: Mutex::new(VecDeque::new()),
            queued: Condvar::new(),
        }
    })
}

/// Queue locks are held only to push or pop a job, never across one.
const QUEUE: &str = "no code panics while holding the measurement queue";

/// Slot locks are held only to store or take an outcome; a simulation
/// panic is caught before its worker locks the slot.
const SLOT: &str = "no code panics while holding a measurement slot";

fn work() {
    let pool = pool();
    loop {
        let job = {
            let mut jobs = pool.jobs.lock().expect(QUEUE);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = pool.queued.wait(jobs).expect(QUEUE);
            }
        };
        job();
    }
}

/// Hands `scenario` to the pool. With `pcap` the worker also renders the
/// first recorded TX frames as a pcap file.
pub(crate) fn submit(scenario: ForwardingScenario, pcap: bool) -> Measurement {
    let slot = Arc::new(Slot::default());
    let weak: Weak<Slot> = Arc::downgrade(&slot);
    let job: Job = Box::new(move || {
        let Some(slot) = weak.upgrade() else {
            return;
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| render(&scenario, pcap)));
        *slot.outcome.lock().expect(SLOT) = Some(outcome);
        slot.ready.notify_all();
    });
    let pool = pool();
    pool.jobs.lock().expect(QUEUE).push_back(job);
    pool.queued.notify_one();
    Measurement(slot)
}

fn render(scenario: &ForwardingScenario, pcap: bool) -> Rendered {
    let result = run_forwarding_experiment(scenario);
    let pcap = pcap.then(|| {
        let mut writer =
            pos_packet::pcap::PcapWriter::new(Vec::new()).map_err(|e| e.to_string())?;
        for cap in &result.tx_capture {
            writer
                .write(cap.ts_ns, &cap.frame)
                .map_err(|e| e.to_string())?;
        }
        writer.finish().map_err(|e| e.to_string())
    });
    Rendered {
        stdout: result.report.render_text(),
        pcap,
    }
}

thread_local! {
    static DEFERRING: Cell<bool> = const { Cell::new(false) };
    static DEFERRED: RefCell<Option<Measurement>> = const { RefCell::new(None) };
}

/// While alive, `moongen` on this thread defers its report (see the
/// module docs). Scopes do not nest.
pub(crate) struct DeferScope(());

impl DeferScope {
    pub(crate) fn open() -> DeferScope {
        DEFERRING.with(|d| d.set(true));
        DeferScope(())
    }
}

impl Drop for DeferScope {
    fn drop(&mut self) {
        DEFERRING.with(|d| d.set(false));
        DEFERRED.with(|m| m.borrow_mut().take());
    }
}

/// Whether a [`DeferScope`] is open on this thread.
pub(crate) fn deferring() -> bool {
    DEFERRING.with(Cell::get)
}

/// Parks the measurement the current command deferred.
pub(crate) fn stash(m: Measurement) {
    DEFERRED.with(|slot| *slot.borrow_mut() = Some(m));
}

/// The measurement the last command deferred, if it deferred one. The
/// controller calls this after every command it runs in a scope, so a
/// handle never leaks into the next command's result.
pub(crate) fn take_deferred() -> Option<Measurement> {
    DEFERRED.with(|slot| slot.borrow_mut().take())
}
