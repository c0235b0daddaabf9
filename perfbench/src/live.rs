//! The live phase: each iteration runs every live program through every
//! execution path, in an order that rotates by iteration so no path always
//! runs first (or always right after a cache-heavy neighbour).
//!
//! The untraced phase times the four end-to-end paths with nothing attached.
//! The traced phase adds the layer ladder — bare serial, values-only
//! sessions, timed-sink sessions, enforced and metrics-attached runs — and
//! records one span per call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use racedet::{detect_races, LiveDetector};
use sphybrid::HybridBackend;
use spmaint::BackendConfig;
use spmetrics::{CounterId, MetricsHandle};
use spprog::{
    build_proc, run_program, run_session, run_uninstrumented, try_run_program, Proc, RunConfig,
    SessionMode,
};

use crate::probe::{BoundaryTotals, TimedSink, Tracer, ValuesOnlySink};
use crate::setup::{LiveCase, Setup};
use crate::stats::median;
use crate::sys::Watchdog;
use crate::Tally;

/// Fewest iterations a live phase makes, whatever its deadline.
pub const MIN_ITERATIONS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f`, turning a panic into a failed operation named `what`.
fn guarded<T>(tally: &mut Tally, what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            tally.fail(format!("{what} panicked: {msg}"));
            None
        }
    }
}

/// The four end-to-end paths.
#[derive(Clone, Copy, Debug)]
enum Path {
    Bare,
    Serial,
    Parallel,
    Offline,
}

/// Per-iteration times (ms, summed over the workload's live programs) of the
/// untraced phase.
#[derive(Default, Debug)]
pub struct LiveTimes {
    /// `run_uninstrumented` at `nproc` workers.
    pub bare_parallel: Vec<f64>,
    /// 1-worker `run_program`.
    pub serial: Vec<f64>,
    /// `nproc`-worker `run_program`.
    pub parallel: Vec<f64>,
    /// Offline `detect_races::<HybridBackend>` at `nproc` workers.
    pub offline: Vec<f64>,
}

/// Run one path over one case, checking its output.  Returns the elapsed
/// time and, for the paths that detect races, the racy locations reported.
fn run_path(
    path: Path,
    case: &LiveCase,
    workers: usize,
    tally: &mut Tally,
) -> (Duration, Option<Vec<u32>>) {
    let what = format!("{path:?} run of {}", case.name);
    let t0 = Instant::now();
    let out = guarded(tally, &what, || match path {
        Path::Bare => {
            let (threads, _, _) = run_uninstrumented(&case.prog, workers, case.locations);
            (
                threads == case.threads(),
                None,
                format!("executed {threads} threads"),
            )
        }
        Path::Serial => {
            let run = run_program(&case.prog, &RunConfig::serial(case.locations));
            let racy = run.report.racy_locations();
            (
                racy == case.expected_racy,
                Some(racy),
                format!("racy {:?}", run.report.racy_locations()),
            )
        }
        Path::Parallel => {
            let run = run_program(
                &case.prog,
                &RunConfig::with_workers(workers, case.locations),
            );
            let racy = run.report.racy_locations();
            let ok = racy == case.expected_racy
                && run.traces as u64 == 4 * run.steals + 1
                && run.threads == case.threads();
            (
                ok,
                Some(racy),
                format!(
                    "racy {:?}, traces {} for {} steals",
                    run.report.racy_locations(),
                    run.traces,
                    run.steals
                ),
            )
        }
        Path::Offline => {
            let (report, _) = detect_races::<HybridBackend>(
                &case.recorded.tree,
                &case.recorded.script,
                BackendConfig::with_workers(workers),
            );
            let racy = report.racy_locations();
            (
                racy == case.expected_racy,
                Some(racy),
                format!("racy {:?}", report.racy_locations()),
            )
        }
    });
    let elapsed = t0.elapsed();
    let racy = out.and_then(|(ok, racy, detail)| {
        tally.check(ok, || {
            format!("{what}: {detail}, expected racy {:?}", case.expected_racy)
        });
        racy
    });
    (elapsed, racy)
}

/// Called between live iterations (the service phase's episodes run
/// there).
pub type Between<'a> = dyn FnMut(&mut Tally, Option<&mut Tracer>) + 'a;

/// Untraced live phase: iterate until `deadline` (at least
/// [`MIN_ITERATIONS`] times), calling `between` after every iteration.
pub fn untraced(
    setup: &Setup,
    workers: usize,
    deadline: Instant,
    wd: &Watchdog,
    tally: &mut Tally,
    between: &mut Between<'_>,
) -> LiveTimes {
    const ORDER: [Path; 4] = [Path::Bare, Path::Serial, Path::Parallel, Path::Offline];
    let mut times = LiveTimes::default();
    let mut iter = 0usize;
    while iter < MIN_ITERATIONS || Instant::now() < deadline {
        let mut sums = [0.0f64; 4];
        let mut racy = vec![[None, None]; setup.live.len()];
        for k in 0..ORDER.len() {
            let idx = (k + iter) % ORDER.len();
            for (case, racy) in setup.live.iter().zip(&mut racy) {
                wd.enter(format!("{:?} run of {}", ORDER[idx], case.name));
                let (elapsed, found) = run_path(ORDER[idx], case, workers, tally);
                sums[idx] += ms(elapsed);
                match ORDER[idx] {
                    Path::Serial => racy[0] = found,
                    Path::Offline => racy[1] = found,
                    _ => {}
                }
            }
        }
        // The offline report must match this iteration's serial live
        // report.  Offline detection runs on `nproc` workers, where which
        // access pair is reported depends on the schedule, so the two are
        // compared by racy location.
        for (case, [serial, offline]) in setup.live.iter().zip(racy) {
            if let (Some(serial), Some(offline)) = (serial, offline) {
                tally.check(offline == serial, || {
                    format!(
                        "offline report of {} has racy {offline:?}, the serial live report {serial:?}",
                        case.name
                    )
                });
            }
        }
        times.bare_parallel.push(sums[0]);
        times.serial.push(sums[1]);
        times.parallel.push(sums[2]);
        times.offline.push(sums[3]);
        iter += 1;
        between(tally, None);
    }
    times
}

/// The traced phase's ladder of calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    BareSerial,
    BareParallel,
    EmptyParallel,
    ValuesSerial,
    ValuesParallel,
    Serial,
    TimedSerial,
    TimedParallel,
    PlainParallel,
    EnforcedParallel,
    AttachedParallel,
    Offline,
}

const RUNGS: [Rung; 12] = [
    Rung::BareSerial,
    Rung::BareParallel,
    Rung::EmptyParallel,
    Rung::ValuesSerial,
    Rung::ValuesParallel,
    Rung::Serial,
    Rung::TimedSerial,
    Rung::TimedParallel,
    Rung::PlainParallel,
    Rung::EnforcedParallel,
    Rung::AttachedParallel,
    Rung::Offline,
];

impl Rung {
    fn span_name(self) -> &'static str {
        match self {
            Rung::BareSerial | Rung::BareParallel | Rung::EmptyParallel => {
                "spprog.run_uninstrumented"
            }
            Rung::ValuesSerial | Rung::ValuesParallel | Rung::TimedSerial | Rung::TimedParallel => {
                "spprog.run_session"
            }
            Rung::Serial | Rung::PlainParallel | Rung::AttachedParallel => "spprog.run_program",
            Rung::EnforcedParallel => "spprog.try_run_program",
            Rung::Offline => "racedet.detect_races",
        }
    }
}

/// Everything the traced phase measured.
#[derive(Default, Debug)]
pub struct TracedLive {
    /// Iterations made.
    pub iterations: usize,
    /// Per-iteration milliseconds of each rung (index = position in the
    /// ladder).
    pub times: Vec<Vec<f64>>,
    /// SP threads per iteration (exact).
    pub threads: u64,
    /// Timed-sink totals of all serial runs.
    pub serial_totals: BoundaryTotals,
    /// Timed-sink totals of all parallel runs.
    pub parallel_totals: BoundaryTotals,
    /// Per-worker timed-sink figures of the last parallel iteration.
    pub parallel_per_worker: Vec<BoundaryTotals>,
    /// Races of one serial iteration (exact).
    pub races: usize,
    /// Steals per attached iteration.
    pub steals: Vec<f64>,
    /// Traces per attached iteration.
    pub traces: Vec<f64>,
    /// SP-structure bytes per attached iteration.
    pub sp_bytes: Vec<f64>,
    /// Failed steal attempts over the attached runs.
    pub failed_steals: u64,
    /// Idle park episodes over the attached runs.
    pub parks: u64,
    /// OM slab chunks published over the attached runs.
    pub om_growth: u64,
    /// Union-find slab chunks published over the attached runs.
    pub dsu_growth: u64,
    /// Shadow accesses resolved lock-free over the attached runs.
    pub lock_free: u64,
    /// Shadow access groups that took a lock over the attached runs.
    pub locked: u64,
    /// Value plus shadow bytes of one detector per live program.
    pub shadow_bytes: u64,
}

impl TracedLive {
    /// Median milliseconds per iteration of `rung`.
    fn median(&self, rung: Rung) -> f64 {
        let i = RUNGS
            .iter()
            .position(|r| *r == rung)
            .expect("rung is in the ladder");
        median(&self.times[i])
    }

    /// `forkrt.bare_serial_ms`.
    pub fn bare_serial_ms(&self) -> f64 {
        self.median(Rung::BareSerial)
    }
    /// `forkrt.empty_run_us`.
    pub fn empty_run_us(&self) -> f64 {
        self.median(Rung::EmptyParallel) * 1e3
    }
    /// `spprog.maint_serial_ms`: values-only serial session minus bare serial.
    pub fn maint_serial_ms(&self) -> f64 {
        self.median(Rung::ValuesSerial) - self.median(Rung::BareSerial)
    }
    /// `sphybrid.maint_parallel_ms`: values-only parallel session minus bare
    /// parallel.
    pub fn maint_parallel_ms(&self) -> f64 {
        self.median(Rung::ValuesParallel) - self.median(Rung::BareParallel)
    }
    /// Share of the serial instrumentation cost (serial `run_program` minus
    /// bare serial) that is maintenance rather than detection.
    pub fn maint_share(&self) -> f64 {
        self.maint_serial_ms() / (self.median(Rung::Serial) - self.median(Rung::BareSerial))
    }
    /// Share of a timed serial session spent in the shadow check and the SP
    /// queries it issues.
    pub fn check_share(&self, timer_ns: f64) -> f64 {
        let t = &self.serial_totals;
        let busy_ns = t.check_ns as f64 - t.queries as f64 * timer_ns;
        busy_ns / (self.median(Rung::TimedSerial) * 1e6 * self.iterations as f64)
    }
    /// `spprog.enforce_x`.
    pub fn enforce_x(&self) -> f64 {
        self.median(Rung::EnforcedParallel) / self.median(Rung::PlainParallel)
    }
    /// `spmetrics.attached_x`.
    pub fn attached_x(&self) -> f64 {
        self.median(Rung::AttachedParallel) / self.median(Rung::PlainParallel)
    }
    /// `trace.overhead_x`: timed-sink parallel session over plain parallel
    /// run.
    pub fn overhead_x(&self) -> f64 {
        self.median(Rung::TimedParallel) / self.median(Rung::PlainParallel)
    }
}

/// One iteration of one rung over every live program; returns milliseconds.
#[allow(clippy::too_many_arguments)]
fn traced_rung(
    rung: Rung,
    setup: &Setup,
    empty: &Proc,
    workers: usize,
    handle: &MetricsHandle,
    out: &mut TracedLive,
    tally: &mut Tally,
    tracer: &mut Tracer,
    parent: usize,
    iter: u64,
) -> f64 {
    let mut total = 0.0;
    if rung == Rung::EmptyParallel {
        let span = tracer.open(rung.span_name(), Some(parent), iter);
        let t0 = Instant::now();
        let out = guarded(tally, "empty parallel run", || {
            run_uninstrumented(empty, workers, 1)
        });
        total += ms(t0.elapsed());
        tracer.close(span);
        if let Some((threads, _, _)) = out {
            let expected = empty_threads(empty);
            tally.check(threads == expected, || {
                format!("empty program ran {threads} threads, expected {expected}")
            });
        }
        return total;
    }
    let (mut steals, mut traces, mut sp_bytes, mut races) = (0.0, 0.0, 0.0, 0);
    for case in &setup.live {
        let what = format!("traced {rung:?} run of {}", case.name);
        let loc = case.locations;
        let span = tracer.open(rung.span_name(), Some(parent), iter);
        let t0 = Instant::now();
        let ok = guarded(tally, &what, || match rung {
            Rung::BareSerial => run_uninstrumented(&case.prog, 1, loc).0 == case.threads(),
            Rung::BareParallel => run_uninstrumented(&case.prog, workers, loc).0 == case.threads(),
            Rung::ValuesSerial => {
                run_session(&case.prog, SessionMode::Serial, &ValuesOnlySink::new(loc)).threads
                    == case.threads()
            }
            Rung::ValuesParallel => {
                run_session(
                    &case.prog,
                    SessionMode::Hybrid { workers },
                    &ValuesOnlySink::new(loc),
                )
                .threads
                    == case.threads()
            }
            Rung::Serial => {
                run_program(&case.prog, &RunConfig::serial(loc))
                    .report
                    .racy_locations()
                    == case.expected_racy
            }
            Rung::TimedSerial => {
                let sink = TimedSink::new(LiveDetector::new(loc, 1));
                run_session(&case.prog, SessionMode::Serial, &sink);
                let t = sink.totals();
                out.serial_totals = out.serial_totals.plus(t);
                let report = sink.into_inner().into_report();
                races += report.len();
                report.racy_locations() == case.expected_racy
            }
            Rung::TimedParallel => {
                let sink = TimedSink::new(LiveDetector::new(loc, workers));
                let run = run_session(&case.prog, SessionMode::Hybrid { workers }, &sink);
                out.parallel_totals = out.parallel_totals.plus(sink.totals());
                out.parallel_per_worker = sink.per_worker();
                sink.into_inner().into_report().racy_locations() == case.expected_racy
                    && run.traces as u64 == 4 * run.steals + 1
            }
            Rung::PlainParallel => {
                run_program(&case.prog, &RunConfig::with_workers(workers, loc))
                    .report
                    .racy_locations()
                    == case.expected_racy
            }
            Rung::EnforcedParallel => match try_run_program(
                &case.prog,
                &RunConfig::with_workers(workers, loc).enforced(),
            ) {
                Ok(run) => run.report.racy_locations() == case.expected_racy,
                Err(violation) => panic!("determinacy violation: {violation}"),
            },
            Rung::AttachedParallel => {
                let run = run_program(
                    &case.prog,
                    &RunConfig::with_workers(workers, loc).with_metrics(handle.clone()),
                );
                steals += run.steals as f64;
                traces += run.traces as f64;
                sp_bytes += run.sp_space_bytes as f64;
                run.report.racy_locations() == case.expected_racy
                    && run.traces as u64 == 4 * run.steals + 1
            }
            Rung::Offline => {
                let (report, _) = detect_races::<HybridBackend>(
                    &case.recorded.tree,
                    &case.recorded.script,
                    BackendConfig::with_workers(workers),
                );
                report.racy_locations() == case.expected_racy
            }
            Rung::EmptyParallel => unreachable!("handled above"),
        });
        total += ms(t0.elapsed());
        tracer.close(span);
        if let Some(ok) = ok {
            tally.check(ok, || format!("{what}: wrong threads, races or traces"));
        }
    }
    if rung == Rung::TimedSerial {
        out.races = races;
    }
    if rung == Rung::AttachedParallel {
        out.steals.push(steals);
        out.traces.push(traces);
        out.sp_bytes.push(sp_bytes);
    }
    total
}

/// SP threads of the one-step program: its step plus the implicit sync
/// thread closing its block.
fn empty_threads(empty: &Proc) -> u64 {
    spprog::record_program(empty, 1).tree.num_threads() as u64
}

/// Traced live phase: the full layer ladder per iteration, rotating, until
/// `deadline` (at least [`MIN_ITERATIONS`] times), calling `between` after
/// every iteration.  Metrics-attached runs report into `handle`, whose
/// registry only they report into (the service has its own).
#[allow(clippy::too_many_arguments)]
pub fn traced(
    setup: &Setup,
    workers: usize,
    deadline: Instant,
    handle: &MetricsHandle,
    tracer: &mut Tracer,
    wd: &Watchdog,
    tally: &mut Tally,
    between: &mut Between<'_>,
) -> TracedLive {
    let registry = handle
        .registry()
        .expect("the traced phase runs with a registry attached");
    let empty = build_proc(|p| {
        p.step(|_| {});
    });
    // Seed each program's serial determinacy reference outside the timing.
    for case in &setup.live {
        wd.enter(format!("enforcement reference of {}", case.name));
        let _ = guarded(tally, "enforcement reference", || {
            try_run_program(&case.prog, &RunConfig::serial(case.locations).enforced())
        });
    }
    let mut out = TracedLive {
        times: vec![Vec::new(); RUNGS.len()],
        threads: setup.live.iter().map(LiveCase::threads).sum(),
        shadow_bytes: setup
            .live
            .iter()
            .map(|c| LiveDetector::new(c.locations, workers).space_bytes() as u64)
            .sum(),
        ..TracedLive::default()
    };
    let mut iter = 0usize;
    while iter < MIN_ITERATIONS || Instant::now() < deadline {
        let it = tracer.open("live.iteration", None, iter as u64);
        let mut row = [0.0f64; RUNGS.len()];
        for k in 0..RUNGS.len() {
            let idx = (k + iter) % RUNGS.len();
            wd.enter(format!("traced {:?} rung", RUNGS[idx]));
            row[idx] = traced_rung(
                RUNGS[idx],
                setup,
                &empty,
                workers,
                handle,
                &mut out,
                tally,
                tracer,
                it,
                iter as u64,
            );
        }
        tracer.close(it);
        for (times, v) in out.times.iter_mut().zip(row) {
            times.push(v);
        }
        iter += 1;
        between(tally, Some(&mut *tracer));
    }
    out.iterations = iter;
    let counters = registry.snapshot();
    out.failed_steals = counters.counter(CounterId::FailedSteals);
    out.parks = counters.counter(CounterId::Parks);
    out.om_growth = counters.counter(CounterId::OmGrowth);
    out.dsu_growth = counters.counter(CounterId::DsuGrowth);
    out.lock_free = counters.counter(CounterId::ShadowLockFree);
    out.locked = counters.counter(CounterId::ShadowLocked);
    out
}
