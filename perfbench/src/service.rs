//! The service phase: session streams into one `spservice::DetectionService`
//! with `nproc` detector workers running the default `Serial` sessions, run
//! as short episodes between live iterations.
//!
//! Open-loop slices at the workload's fixed reference rate give the session
//! latency percentiles; a binary search over the fixed rate ladder finds the
//! highest rung whose tail meets the latency limit with no growing backlog;
//! closed-loop saturation runs give the service's throughput.

use std::time::Duration;

use spmetrics::MetricsHandle;
use spservice::{DetectionService, ServiceConfig, ServiceStats, SessionHandle, SessionOutcome};

use crate::openloop::{closed_loop, drive, Consumer, Sample, Served, SplitMix};
use crate::probe::{Span, Tracer};
use crate::setup::{draw_stream, PoolEntry, Setup, Stream};
use crate::stats::{median, slope, tail};
use crate::sys::Watchdog;
use crate::Tally;

/// Per-session figures the service reports beyond latency.
#[derive(Clone, Copy, Debug)]
pub struct SessionFacts {
    /// P² runtime estimate at admission (0 before any history).
    pub estimated_ns: f64,
    /// Measured runtime.
    pub actual_ns: f64,
}

struct ServiceConsumer<'a> {
    service: &'a DetectionService,
    pool: &'a [PoolEntry],
    entries: &'a [usize],
    facts: Vec<SessionFacts>,
    failures: Vec<String>,
}

impl Consumer for ServiceConsumer<'_> {
    type Ticket = (usize, SessionHandle);

    fn submit(&mut self, index: usize) -> Self::Ticket {
        let entry = &self.pool[self.entries[index]];
        (
            self.entries[index],
            self.service.submit(&entry.prog, entry.locations),
        )
    }

    fn finish(&mut self, (index, handle): Self::Ticket) -> Served {
        let entry = &self.pool[index];
        let outcome = handle.wait();
        let ok = match (&outcome, entry.panics) {
            (SessionOutcome::Panicked(_), true) => true,
            (SessionOutcome::Completed(done), false) => {
                done.report.races() == entry.reference.as_slice()
            }
            _ => false,
        };
        if !ok {
            self.failures.push(format!(
                "session of {}: {}",
                entry.name,
                match &outcome {
                    SessionOutcome::Panicked(p) => format!("unplanted quarantine ({})", p.message),
                    SessionOutcome::Completed(_) if entry.panics =>
                        "planted panic completed".to_string(),
                    SessionOutcome::Completed(_) =>
                        "report differs from the standalone serial run".to_string(),
                }
            ));
        }
        let m = outcome.metrics();
        self.facts.push(SessionFacts {
            estimated_ns: m.estimated_ns,
            actual_ns: m.actual_ns,
        });
        Served {
            queue_wait: m.queue_wait,
            run_time: m.run_time,
            ok,
        }
    }
}

/// One stream's results.
pub struct StreamResult {
    /// Open-loop samples, in submission order.
    pub samples: Vec<Sample>,
    /// Service figures per session, in submission order.
    pub facts: Vec<SessionFacts>,
    /// Planted panics submitted.
    pub planted: u64,
}

impl StreamResult {
    /// Latencies (ms) of each of `slices` equal consecutive slices.
    fn slice_latencies_ms(&self, slices: usize) -> Vec<Vec<f64>> {
        let size = self.samples.len().div_ceil(slices.max(1)).max(1);
        self.samples
            .chunks(size)
            .map(|c| c.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect())
            .collect()
    }

    /// `(percentile, ms)`: the median over `slices` slices of each slice's
    /// latency tail (the highest percentile with ten samples beyond it).
    pub fn tail_ms(&self, slices: usize) -> (f64, f64) {
        let tails: Vec<(f64, f64)> = self
            .slice_latencies_ms(slices)
            .iter()
            .filter_map(|l| tail(l))
            .collect();
        let pct = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
        (pct, median(&values))
    }

    /// Median latency, ms.
    pub fn p50_ms(&self) -> f64 {
        let latencies: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        median(&latencies)
    }

    /// Growth of queue wait over the stream, ms of wait per second of
    /// arrivals: the median of the slices' least-squares slopes, so one
    /// stalled slice cannot fake (or hide) a growing backlog.
    pub fn backlog_slope(&self, slices: usize) -> f64 {
        let size = self.samples.len().div_ceil(slices.max(1)).max(1);
        let slopes: Vec<f64> = self
            .samples
            .chunks(size)
            .map(|c| {
                let xs: Vec<f64> = c.iter().map(|s| s.due.as_secs_f64()).collect();
                let ys: Vec<f64> = c.iter().map(|s| s.queue_wait.as_secs_f64() * 1e3).collect();
                slope(&xs, &ys)
            })
            .collect();
        median(&slopes)
    }

    /// Arrival span of the stream, seconds.
    pub fn span_s(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.due.as_secs_f64())
    }
}

fn run_stream(
    service: &DetectionService,
    pool: &[PoolEntry],
    stream: &Stream,
    tally: &mut Tally,
    tracer: Option<(&mut Tracer, usize, u64)>,
) -> StreamResult {
    let mut consumer = ServiceConsumer {
        service,
        pool,
        entries: &stream.entries,
        facts: Vec::with_capacity(stream.entries.len()),
        failures: Vec::new(),
    };
    let start_ns = tracer.as_ref().map_or(0, |(t, _, _)| t.now_ns());
    let samples = drive(&stream.due, &mut consumer);
    for s in &samples {
        tally.check(s.ok, String::new);
    }
    for failure in consumer.failures {
        tally.note(failure);
    }
    if let Some((tracer, parent, run)) = tracer {
        for s in &samples {
            let due_ns = start_ns + s.due.as_nanos() as u64;
            let session = tracer.push(Span::interval(
                "spservice.session",
                due_ns,
                s.latency,
                parent,
                run,
            ));
            let submit_ns = due_ns + s.late.as_nanos() as u64;
            tracer.push(Span::interval(
                "spservice.queue",
                submit_ns,
                s.queue_wait,
                session,
                run,
            ));
            let run_ns = submit_ns + s.queue_wait.as_nanos() as u64;
            tracer.push(Span::interval(
                "spservice.run",
                run_ns,
                s.run_time,
                session,
                run,
            ));
        }
    }
    let planted = stream.entries.iter().filter(|&&i| pool[i].panics).count() as u64;
    StreamResult {
        samples,
        facts: consumer.facts,
        planted,
    }
}

/// Outcome of one ladder rung.
#[derive(Clone, Copy, Debug)]
pub struct RungResult {
    /// Rung index.
    pub index: usize,
    /// Offered rate, sessions/s.
    pub rate: f64,
    /// Latency tail, ms.
    pub tail_ms: f64,
    /// Queue-wait growth, ms per second.
    pub backlog_slope: f64,
    /// Tail within the limit, no growing backlog, every output correct.
    pub sustained: bool,
}

/// Everything the service phase measured.
pub struct ServiceResult {
    /// The reference-rate stream, one result per slice.
    pub reference: Vec<StreamResult>,
    /// Ladder rungs evaluated, in evaluation order.
    pub rungs: Vec<RungResult>,
    /// Highest sustained rate (see [`max_sustained`]).
    pub max_sps: f64,
    /// Sessions per second of each saturation run.
    pub saturation_sps: Vec<f64>,
    /// Service counters at the end of the phase.
    pub stats: ServiceStats,
    /// Planted panics submitted over the phase.
    pub planted: u64,
}

impl ServiceResult {
    /// `session_p50_ms`: median over reference slices of each slice's
    /// median latency.
    pub fn session_p50_ms(&self) -> f64 {
        median(
            &self
                .reference
                .iter()
                .map(|r| r.p50_ms())
                .collect::<Vec<_>>(),
        )
    }

    /// `session_tail_ms` as `(percentile, ms)`: median over reference
    /// slices of each slice's tail.
    pub fn session_tail_ms(&self) -> (f64, f64) {
        let tails: Vec<(f64, f64)> = self.reference.iter().map(|r| r.tail_ms(1)).collect();
        let pct = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        (pct, median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()))
    }

    /// `service_sat_sps`: median over saturation runs of sessions served
    /// per second with the service kept busy.
    pub fn saturation_sps(&self) -> f64 {
        median(&self.saturation_sps)
    }

    /// Every reference-rate sample, slice after slice.
    pub fn reference_samples(&self) -> impl Iterator<Item = &Sample> {
        self.reference.iter().flat_map(|r| r.samples.iter())
    }

    /// Every reference-rate session's service figures.
    pub fn reference_facts(&self) -> impl Iterator<Item = &SessionFacts> {
        self.reference.iter().flat_map(|r| r.facts.iter())
    }
}

/// Highest sustained rate from the evaluated rungs: the highest sustained
/// rung, refined by interpolating `ln(tail)` linearly between it and the
/// next rung up (which failed) to where the tail meets `limit_ms`.  A fixed
/// ladder alone would move in whole-rung steps; the interpolation keeps the
/// figure continuous.  Below the ladder, the bottom rung scaled down by how
/// far its tail missed; above it, the top rung.
pub fn max_sustained(ladder: &[f64], rungs: &[RungResult], limit_ms: f64) -> f64 {
    let best = rungs.iter().filter(|r| r.sustained).max_by_key(|r| r.index);
    let next = |i: usize| rungs.iter().find(|r| r.index == i);
    match best {
        None => {
            let bottom = next(0).map_or(f64::NAN, |r| r.tail_ms);
            ladder[0] * (limit_ms / bottom).min(1.0)
        }
        Some(b) if b.index + 1 == ladder.len() => b.rate,
        Some(b) => match next(b.index + 1) {
            Some(f) if f.tail_ms > limit_ms && f.tail_ms > b.tail_ms && b.tail_ms > 0.0 => {
                let frac = (limit_ms.ln() - b.tail_ms.ln()) / (f.tail_ms.ln() - b.tail_ms.ln());
                b.rate + (f.rate - b.rate) * frac.clamp(0.0, 1.0)
            }
            _ => b.rate,
        },
    }
}

/// The service phase, run as short episodes spread over the whole run:
/// reference-rate slices alternate with ladder probes, so a noisy stretch
/// of a few seconds on a shared machine touches only one or two of them.
pub struct ServicePhase<'s> {
    setup: &'s Setup,
    service: DetectionService,
    reference: Vec<StreamResult>,
    saturation_sps: Vec<f64>,
    lo: i64,
    hi: i64,
    rungs: Vec<RungResult>,
    planted: u64,
    episodes: u64,
}

impl<'s> ServicePhase<'s> {
    /// Start a service with `workers` detector workers and warm it up
    /// (closed loop, one session of every pool program) so arenas and
    /// runtime estimates exist before the first timed episode.
    pub fn start(
        setup: &'s Setup,
        workers: usize,
        metrics: MetricsHandle,
        wd: &Watchdog,
        tally: &mut Tally,
    ) -> Self {
        let service =
            DetectionService::new(ServiceConfig::with_workers(workers).with_metrics(metrics));
        wd.enter("service warm-up");
        let warm = Stream {
            due: vec![Duration::ZERO; setup.pool.len()],
            entries: (0..setup.pool.len()).collect(),
        };
        let planted = run_stream(&service, &setup.pool, &warm, tally, None).planted;
        ServicePhase {
            setup,
            service,
            reference: Vec::new(),
            saturation_sps: Vec::new(),
            lo: -1,
            hi: setup.plan.ladder.len() as i64,
            rungs: Vec::new(),
            planted,
            episodes: 0,
        }
    }

    fn slices_left(&self) -> bool {
        self.reference.len() < self.setup.plan.slices
    }

    fn probes_left(&self) -> bool {
        self.hi - self.lo > 1
    }

    fn saturation_left(&self) -> bool {
        self.saturation_sps.len() < self.setup.plan.saturation_runs
    }

    /// Episodes a full phase makes at most: the reference slices, the
    /// saturation runs, and a binary search over the ladder.
    pub fn planned_episodes(&self) -> usize {
        let plan = &self.setup.plan;
        plan.slices
            + plan.saturation_runs
            + (usize::BITS - plan.ladder.len().leading_zeros()) as usize
    }

    /// Whether any episode remains.
    pub fn episodes_left(&self) -> bool {
        self.slices_left() || self.saturation_left() || self.probes_left()
    }

    /// Run the next episode: a reference slice, a saturation run and a
    /// ladder probe in turn, skipping kinds that are done.
    pub fn episode(&mut self, wd: &Watchdog, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        for turn in self.episodes..self.episodes + 3 {
            match turn % 3 {
                0 if self.slices_left() => self.reference_slice(wd, tally, tracer),
                1 if self.saturation_left() => self.saturation(wd, tally, tracer),
                2 if self.probes_left() => self.probe(wd, tally, tracer),
                _ => continue,
            }
            break;
        }
        self.episodes += 1;
    }

    fn saturation(&mut self, wd: &Watchdog, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let plan = &self.setup.plan;
        let i = self.saturation_sps.len();
        wd.enter(format!("service saturation run {i}"));
        let mut rng = SplitMix::new(self.setup.seed, 50 + i as u64);
        let drawn = draw_stream(
            &self.setup.pool,
            plan,
            1.0,
            plan.saturation_sessions,
            &mut rng,
        );
        let mut consumer = ServiceConsumer {
            service: &self.service,
            pool: &self.setup.pool,
            entries: &drawn.entries,
            facts: Vec::new(),
            failures: Vec::new(),
        };
        let span = tracer.map(|t| (t.open("service.saturation", None, i as u64), t));
        let (elapsed, served) =
            closed_loop(drawn.entries.len(), plan.saturation_window, &mut consumer);
        if let Some((id, t)) = span {
            t.close(id);
        }
        for s in &served {
            tally.check(s.ok, String::new);
        }
        for failure in consumer.failures {
            tally.note(failure);
        }
        self.planted += drawn
            .entries
            .iter()
            .filter(|&&e| self.setup.pool[e].panics)
            .count() as u64;
        self.saturation_sps
            .push(served.len() as f64 / elapsed.as_secs_f64());
    }

    fn reference_slice(&mut self, wd: &Watchdog, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let plan = &self.setup.plan;
        let i = self.reference.len();
        wd.enter(format!("service reference slice {i}"));
        let full = &self.setup.reference_stream;
        let size = full.entries.len().div_ceil(plan.slices);
        let range = i * size..((i + 1) * size).min(full.entries.len());
        let base = full.due[range.start];
        let slice = Stream {
            due: full.due[range.clone()].iter().map(|d| *d - base).collect(),
            entries: full.entries[range].to_vec(),
        };
        let result = self.traced_stream("service.reference", i as u64, &slice, tally, tracer);
        self.planted += result.planted;
        self.reference.push(result);
    }

    fn probe(&mut self, wd: &Watchdog, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let plan = &self.setup.plan;
        let index = ((self.lo + self.hi) / 2) as usize;
        let rate = plan.ladder[index];
        wd.enter(format!("service ladder rung {index} ({rate:.0}/s)"));
        let stream = draw_stream(
            &self.setup.pool,
            plan,
            rate,
            plan.rung_sessions(rate),
            &mut SplitMix::new(self.setup.seed, 100 + index as u64),
        );
        let failed_before = tally.failed;
        let result = self.traced_stream("service.rung", index as u64, &stream, tally, tracer);
        self.planted += result.planted;
        let (_, tail_ms) = result.tail_ms(plan.rung_slices);
        let backlog_slope = result.backlog_slope(plan.rung_slices);
        // Growing backlog: queue wait rose by more than the latency limit
        // over the rung's arrivals.
        let growing = backlog_slope * result.span_s() > plan.limit_ms;
        let sustained = tail_ms <= plan.limit_ms && !growing && tally.failed == failed_before;
        self.rungs.push(RungResult {
            index,
            rate,
            tail_ms,
            backlog_slope,
            sustained,
        });
        if sustained {
            self.lo = index as i64;
        } else {
            self.hi = index as i64;
        }
    }

    fn traced_stream(
        &self,
        name: &'static str,
        run: u64,
        stream: &Stream,
        tally: &mut Tally,
        tracer: Option<&mut Tracer>,
    ) -> StreamResult {
        match tracer {
            Some(t) => {
                let span = t.open(name, None, run);
                let result = run_stream(
                    &self.service,
                    &self.setup.pool,
                    stream,
                    tally,
                    Some((&mut *t, span, run)),
                );
                t.close(span);
                result
            }
            None => run_stream(&self.service, &self.setup.pool, stream, tally, None),
        }
    }

    /// Run any episodes left, shut the service down, and check that every
    /// planted panic (and nothing else) was quarantined.
    pub fn finish(
        mut self,
        wd: &Watchdog,
        tally: &mut Tally,
        mut tracer: Option<&mut Tracer>,
    ) -> ServiceResult {
        while self.episodes_left() {
            self.episode(wd, tally, tracer.as_deref_mut());
        }
        let max_sps = max_sustained(
            &self.setup.plan.ladder,
            &self.rungs,
            self.setup.plan.limit_ms,
        );
        wd.enter("service shutdown");
        let stats = self.service.shutdown();
        let planted = self.planted;
        tally.check(stats.sessions_quarantined == planted, || {
            format!(
                "{} sessions quarantined, {planted} planted panics",
                stats.sessions_quarantined
            )
        });
        ServiceResult {
            reference: self.reference,
            rungs: self.rungs,
            max_sps,
            saturation_sps: self.saturation_sps,
            stats,
            planted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(index: usize, rate: f64, tail_ms: f64, sustained: bool) -> RungResult {
        RungResult {
            index,
            rate,
            tail_ms,
            backlog_slope: 0.0,
            sustained,
        }
    }

    #[test]
    fn max_sustained_interpolates_between_the_straddling_rungs() {
        let ladder = [100.0, 200.0, 400.0, 800.0];
        // Rung 1 passes at 5 ms, rung 2 fails at 20 ms; limit 10 ms sits
        // halfway in log space.
        let rungs = [
            rung(2, 400.0, 20.0, false),
            rung(1, 200.0, 5.0, true),
            rung(0, 100.0, 1.0, true),
        ];
        let got = max_sustained(&ladder, &rungs, 10.0);
        assert!((got - 300.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn max_sustained_handles_the_ladder_ends() {
        let ladder = [100.0, 200.0];
        assert_eq!(
            max_sustained(&ladder, &[rung(1, 200.0, 1.0, true)], 10.0),
            200.0
        );
        assert_eq!(
            max_sustained(&ladder, &[rung(0, 100.0, 40.0, false)], 10.0),
            25.0
        );
        // A rung that failed on backlog with its tail under the limit gives
        // no interpolation: the passing rung stands.
        let rungs = [rung(0, 100.0, 2.0, true), rung(1, 200.0, 8.0, false)];
        assert_eq!(max_sustained(&ladder, &rungs, 10.0), 100.0);
    }
}
