//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's inputs from the seed (several times; the median
//! build time is `setup_s`), measures for `--seconds`, checks every output,
//! and prints one JSON object as the last line of standard output:
//! end-to-end metrics for `--trace 0`, per-layer metrics for `--trace 1`.
//! Earlier lines are `#`-prefixed reproducibility and diagnostic notes.
//!
//! A `--trace 0` run splits its window over [`PARTS`] processes, run one
//! after another (`--part <i>`, see `README.md`), and combines their
//! figures.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use spmetrics::{validate_chrome_trace, MetricsHandle, MetricsRegistry};

use perfbench::live::{self, LiveTimes, TracedLive};
use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::probe::{timer_cost_ns, Tracer};
use perfbench::service::{ServicePhase, ServiceResult};
use perfbench::setup::{self, Setup, Workload, PLANTED_PANIC};
use perfbench::stats::{mean, median, tail};
use perfbench::sys::{self, json_num, json_str, Watchdog, WATCHDOG_EXIT};
use perfbench::Tally;

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Processes a `--trace 0` run is split into.  A process can run in a fast
/// or a slow mode for its whole life (offline detection on fib-spawn took
/// 5.2 ms in some processes and 8.3 ms in others, on the same binary and
/// inputs).  Averaging over processes samples the modes instead of letting
/// one process decide the figure.
const PARTS: u32 = 10;
/// Longest any single operation may take before the watchdog fails the run.
const OP_LIMIT: Duration = Duration::from_secs(60);
/// Longest a whole run may take.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the processes a `--trace 0` run starts: which part this is.
    part: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut part = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds must be in 1..=120, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--part" => {
                part = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|p| *p < PARTS)
                        .ok_or_else(|| format!("bad --part {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if trace == Some(true) && part.is_some() {
        return Err("--part is only for --trace 0".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

/// Planted panics are expected; keep them off stderr.  Every other panic
/// still reports through the default hook.
fn quiet_planted_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains(PLANTED_PANIC) {
            default(info);
        }
    }));
}

/// Median seconds of the set-ups' parts, for the `setup_s` breakdown.
struct SetupParts {
    gen_s: f64,
    record_s: f64,
    reference_s: f64,
}

/// One part's end-to-end figures: medians over its iterations.
fn end_to_end(setup_s: f64, live: &LiveTimes) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", setup_s),
        ("live_serial_ms", median(&live.serial)),
        ("live_parallel_ms", median(&live.parallel)),
        ("bare_parallel_ms", median(&live.bare_parallel)),
        ("offline_parallel_ms", median(&live.offline)),
        ("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN)),
    ])
}

fn per_layer(
    parts: &SetupParts,
    tl: &TracedLive,
    svc: &ServiceResult,
    timer_ns: f64,
    trace_events: usize,
    tally: &Tally,
) -> BTreeMap<&'static str, f64> {
    let iters = tl.iterations as f64;
    let st = &tl.serial_totals;
    let pt = &tl.parallel_totals;
    let accesses_per_iter = st.accesses as f64 / iters;
    let steals = tl.steals.iter().sum::<f64>();
    let waits: Vec<f64> = svc
        .reference_samples()
        .map(|s| s.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let runs: Vec<f64> = svc
        .reference_samples()
        .map(|s| s.run_time.as_secs_f64() * 1e3)
        .collect();
    let lates: Vec<f64> = svc
        .reference_samples()
        .map(|s| s.late.as_secs_f64() * 1e3)
        .collect();
    let estimate_errs: Vec<f64> = svc
        .reference_facts()
        .filter(|f| f.estimated_ns > 0.0 && f.actual_ns > 0.0)
        .map(|f| (f.estimated_ns - f.actual_ns).abs() / f.actual_ns)
        .collect();
    let stats = &svc.stats;
    let admissions = (stats.scheduled_admissions + stats.sequential_admissions) as f64;
    let top = svc
        .rungs
        .iter()
        .filter(|r| r.sustained)
        .max_by_key(|r| r.index)
        .or(svc.rungs.first());
    BTreeMap::from([
        ("forkrt.bare_serial_ms", tl.bare_serial_ms()),
        ("forkrt.empty_run_us", tl.empty_run_us()),
        ("forkrt.steals", median(&tl.steals)),
        (
            "forkrt.steal_success",
            steals / (steals + tl.failed_steals as f64),
        ),
        ("forkrt.parks", tl.parks as f64 / iters),
        ("spprog.threads", tl.threads as f64),
        ("spprog.accesses", accesses_per_iter),
        ("spprog.maint_serial_ms", tl.maint_serial_ms()),
        ("spprog.maint_share", tl.maint_share()),
        ("sphybrid.maint_parallel_ms", tl.maint_parallel_ms()),
        ("sphybrid.traces", median(&tl.traces)),
        ("sphybrid.query_ns", pt.query_mean_ns(timer_ns)),
        ("spmaint.query_ns", st.query_mean_ns(timer_ns)),
        ("spmaint.queries", st.queries as f64 / iters),
        ("sphybrid.sp_bytes", median(&tl.sp_bytes)),
        ("racedet.shadow_bytes", tl.shadow_bytes as f64),
        ("om.growth", tl.om_growth as f64 / iters),
        ("dsu.growth", tl.dsu_growth as f64 / iters),
        (
            "racedet.check_serial_ns",
            st.check_self_ns(timer_ns) / st.accesses.max(1) as f64,
        ),
        (
            "racedet.check_parallel_ns",
            pt.check_self_ns(timer_ns) / pt.accesses.max(1) as f64,
        ),
        ("racedet.check_share", tl.check_share(timer_ns)),
        (
            "racedet.lockfree_share",
            tl.lock_free as f64 / (accesses_per_iter * iters).max(1.0),
        ),
        ("racedet.locked", tl.locked as f64 / iters),
        ("racedet.races", tl.races as f64),
        ("session_p50_ms", svc.session_p50_ms()),
        ("session_tail_ms", svc.session_tail_ms().1),
        ("service_max_sps", svc.max_sps),
        ("service_sat_sps", svc.saturation_sps()),
        ("spservice.queue_wait_p50_ms", median(&waits)),
        (
            "spservice.queue_wait_tail_ms",
            tail(&waits).map_or(f64::NAN, |t| t.1),
        ),
        ("spservice.run_p50_ms", median(&runs)),
        (
            "spservice.sjf_share",
            stats.scheduled_admissions as f64 / admissions,
        ),
        ("spservice.estimate_err", median(&estimate_errs)),
        (
            "spservice.arena_reuse",
            stats.epoch_resets as f64 / (stats.sessions + stats.sessions_quarantined) as f64,
        ),
        ("spservice.arenas", stats.arenas_created as f64),
        ("spservice.quarantined", stats.sessions_quarantined as f64),
        (
            "spservice.backlog_slope",
            top.map_or(f64::NAN, |r| r.backlog_slope),
        ),
        ("spprog.enforce_x", tl.enforce_x()),
        ("spmetrics.attached_x", tl.attached_x()),
        (
            "loadgen.late_ms_tail",
            tail(&lates).map_or(f64::NAN, |t| t.1),
        ),
        ("trace.overhead_x", tl.overhead_x()),
        ("trace.events", trace_events as f64),
        ("workloads.gen_s", parts.gen_s),
        ("spprog.record_s", parts.record_s),
        ("spservice.reference_s", parts.reference_s),
        ("error_rate", tally.error_rate()),
    ])
}

/// Validate each registry's Chrome export, merge the registries' events
/// and the bench-side spans into one trace (spans as process 0, registry
/// `i` as process `i + 1`), and write it next to the benchmark's sources.
/// Returns the number of registry events that round-tripped.
fn export_trace(
    registries: &[&MetricsRegistry],
    tracer: &Tracer,
    args: &Args,
    tally: &mut Tally,
) -> usize {
    let mut events = Vec::new();
    let mut total = 0;
    for (pid, registry) in registries.iter().enumerate() {
        // Registries count from their own creation; shift onto the span clock.
        let shift = tracer.now_ns() as i64 - registry.now_ns() as i64;
        let snapshot = registry.snapshot();
        match validate_chrome_trace(&snapshot.chrome_trace_json()) {
            Ok(n) => {
                tally.check(n == snapshot.events.len(), || {
                    format!(
                        "trace export round-tripped {n} of {} events",
                        snapshot.events.len()
                    )
                });
                total += n;
            }
            Err(e) => tally.fail(format!("trace export failed validation: {e}")),
        }
        for e in &snapshot.events {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"args\":{{\"a\":{},\"b\":{}}}}}",
                e.kind.name(),
                pid + 1,
                e.slot,
                (e.ts_ns as i64 + shift) as f64 / 1e3,
                e.a,
                e.b
            ));
        }
    }
    let spans = tracer.chrome_events();
    if !spans.is_empty() {
        events.push(spans);
    }
    let json = format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => tally.fail(format!("writing {}: {e}", path.display())),
    }
    total
}

/// `#` notes naming the tail percentile and sample counts behind the
/// service figures, and the ladder rungs tried.
fn print_service_notes(setup: &Setup, svc: &ServiceResult) {
    let (pct, _) = svc.session_tail_ms();
    println!(
        "# session_tail_ms is the median p{pct} of {} slices of {} sessions at {}/s; \
         service_sat_sps is the median of {} closed-loop runs of {} sessions",
        svc.reference.len(),
        svc.reference.first().map_or(0, |r| r.samples.len()),
        setup.plan.reference_rate,
        svc.saturation_sps.len(),
        setup.plan.saturation_sessions,
    );
    let sat: Vec<String> = svc
        .saturation_sps
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    println!("# saturation runs (sessions/s): {}", sat.join(", "));
    let rungs: Vec<_> = svc
        .rungs
        .iter()
        .map(|r| {
            format!(
                "{:.0}/s tail {:.2} ms{}",
                r.rate,
                r.tail_ms,
                if r.sustained { "" } else { " failed" }
            )
        })
        .collect();
    println!("# ladder rungs: {}", rungs.join(", "));
}

/// The result line: `correct`, `attempted`, `failed` and `expected`'s
/// metrics with their units.  A missing or non-finite value makes the
/// result incorrect.
fn result_line(values: &BTreeMap<&'static str, f64>, expected: &[Metric], tally: &Tally) -> String {
    let mut parts = Vec::with_capacity(expected.len());
    let mut all_finite = true;
    for m in expected {
        let v = values.get(m.name).copied().unwrap_or(f64::NAN);
        all_finite &= v.is_finite();
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(v),
            json_str(m.unit)
        ));
    }
    let correct = tally.failed == 0 && all_finite;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        parts.join(", ")
    )
}

fn print_result(values: &BTreeMap<&'static str, f64>, expected: &[Metric], tally: &Tally) {
    for msg in &tally.messages {
        println!("# failure: {msg}");
    }
    println!("{}", result_line(values, expected, tally));
}

fn print_header(args: &Args, digest: &str) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} digest={digest} nproc={} cpu={:?} l2={} aslr={} rustc={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        sys::cpu_model(),
        sys::l2_size(),
        sys::aslr_state(),
        sys::rustc_version(),
    );
}

/// A part's result line, as [`result_line`] wrote it.
struct PartResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

fn parse_result(line: &str) -> Option<PartResult> {
    let after = |key: &str| {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut values = BTreeMap::new();
    for m in END_TO_END {
        let v = after(&format!("{}: {{\"value\": ", json_str(m.name)))?;
        values.insert(m.name, v.parse().unwrap_or(f64::NAN));
    }
    Some(PartResult {
        correct: after("\"correct\": ")? == "true",
        attempted: after("\"attempted\": ")?.parse().ok()?,
        failed: after("\"failed\": ")?.parse().ok()?,
        values,
    })
}

/// Run part `part` of a `--trace 0` run to completion and return its
/// standard output.  A part that fails, or that is still running at the
/// run's `deadline`, is stopped and ends the run with a non-zero exit and
/// no result.
fn run_part(exe: &Path, args: &Args, part: u32, deadline: Instant) -> String {
    let fail = |msg: String, code: i32| -> ! {
        eprintln!("perfbench: part {part}: {msg}");
        std::process::exit(code);
    };
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--part", &part.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(format!("starting: {e}"), 2));
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                fail(
                    "still running at the run's deadline; stopped".to_string(),
                    WATCHDOG_EXIT,
                );
            }
            Err(e) => fail(format!("waiting: {e}"), 2),
        }
    };
    let out = reader
        .join()
        .expect("output reader panicked")
        .unwrap_or_else(|e| fail(format!("reading its output: {e}"), 2));
    if !status.success() {
        fail(format!("exited with {status}"), status.code().unwrap_or(2));
    }
    out
}

/// A `--trace 0` run: [`PARTS`] processes one after another, each measuring
/// `1/PARTS` of the window, combined into one result.  `setup_s` and
/// `peak_rss_mb` are the medians of the parts' figures, and each live
/// metric is the mean of the parts' medians: a mean, so that a share of
/// parts in a slow mode moves it smoothly instead of flipping it.
fn run_parts(args: &Args) {
    let deadline = Instant::now() + RUN_DEADLINE;
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perfbench: locating the benchmark binary: {e}");
        std::process::exit(2);
    });
    let mut tally = Tally::default();
    let mut figures: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut digests = Vec::new();
    let mut notes = Vec::new();
    for part in 0..PARTS {
        let out = run_part(&exe, args, part, deadline);
        let mut lines = out.lines().peekable();
        while let Some(line) = lines.next() {
            if lines.peek().is_none() {
                match parse_result(line) {
                    Some(r) => {
                        tally.attempted += r.attempted;
                        tally.failed += r.failed;
                        tally.check(r.correct, || {
                            format!("part {part} reported an incorrect result")
                        });
                        for (name, v) in r.values {
                            figures.entry(name).or_default().push(v);
                        }
                    }
                    None => tally.fail(format!("part {part} printed no result: {line:?}")),
                }
            } else if let Some(header) = line.strip_prefix("# perfbench ") {
                digests.extend(
                    header
                        .split_whitespace()
                        .find_map(|w| w.strip_prefix("digest="))
                        .map(str::to_string),
                );
            } else if let Some(note) = line.strip_prefix("# ") {
                notes.push(format!("# part {part}: {note}"));
            }
        }
    }
    let digest = digests.first().cloned().unwrap_or_default();
    tally.check(
        digests.len() == PARTS as usize && digests.iter().all(|d| *d == digest),
        || format!("parts of one seed produced different inputs: {digests:?}"),
    );
    print_header(args, &digest);
    for note in notes {
        println!("{note}");
    }
    for (name, v) in &figures {
        let per_part: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("# {name} per part: {}", per_part.join(" "));
    }
    let values = figures
        .into_iter()
        .map(|(name, v)| {
            let combined = match name {
                "setup_s" | "peak_rss_mb" => median(&v),
                _ => mean(&v),
            };
            (name, combined)
        })
        .collect();
    print_result(&values, END_TO_END, &tally);
}

/// Spreads the service phase's episodes evenly over the measuring window.
struct EpisodeClock {
    every: Duration,
    next: Instant,
}

impl EpisodeClock {
    fn new(start: Instant, window: Duration, phase: &ServicePhase<'_>) -> Self {
        let every = window / (phase.planned_episodes() as u32 + 1);
        EpisodeClock {
            every,
            next: start + every,
        }
    }

    /// Run the phase's next episode if one is due.
    fn tick(
        &mut self,
        phase: &mut ServicePhase<'_>,
        wd: &Watchdog,
        tally: &mut Tally,
        tracer: Option<&mut Tracer>,
    ) {
        if phase.episodes_left() && Instant::now() >= self.next {
            phase.episode(wd, tally, tracer);
            self.next += self.every;
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    sys::keep_heap_mapped();
    if !args.trace && args.part.is_none() {
        run_parts(&args);
        return;
    }
    quiet_planted_panics();
    let wd = Watchdog::start(OP_LIMIT, RUN_DEADLINE);
    let workers = sys::nproc();
    let mut tally = Tally::default();
    // The service phase feeds only per-layer metrics, except on
    // service-open, whose sessions are checked in every run (in its first
    // part; every part builds the same inputs).
    let build_service = args.trace || args.workload == Workload::ServiceOpen;
    let with_service = args.trace || (build_service && args.part == Some(0));

    // Set up `SETUPS` times; keep the last set-up only, so the high-water
    // RSS counts one copy of the inputs.
    let mut kept: Option<Setup> = None;
    let (mut times, mut gen, mut record, mut reference) = (vec![], vec![], vec![], vec![]);
    let mut digests = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        drop(kept.take());
        wd.enter(format!("set-up {i}"));
        let t0 = Instant::now();
        let s = match setup::build(args.workload, args.seed, build_service) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(2);
            }
        };
        times.push(t0.elapsed().as_secs_f64());
        gen.push(s.gen_s);
        record.push(s.record_s);
        reference.push(s.reference_s);
        digests.push(s.digest);
        kept = Some(s);
    }
    let setup_s = median(&times);
    let parts = SetupParts {
        gen_s: median(&gen),
        record_s: median(&record),
        reference_s: median(&reference),
    };
    let setup = &kept.expect("at least one set-up");
    tally.check(digests.iter().all(|&d| d == setup.digest), || {
        "set-ups of one seed produced different inputs".to_string()
    });
    print_header(&args, &format!("{:016x}", setup.digest));

    // One measuring window of `--seconds` (a part's share of it): live
    // iterations fill it, and the service phase's episodes (if it runs) go
    // between them, spread evenly over it.
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds) / args.part.map_or(1, |_| PARTS);
    let deadline = start + window;
    let (values, expected): (_, &[Metric]) = if args.trace {
        let live_registry = MetricsRegistry::new();
        let service_registry = MetricsRegistry::new();
        let handle = MetricsHandle::attached(&live_registry);
        let mut tracer = Tracer::new(live_registry.clone());
        wd.enter("timer calibration");
        let timer_ns = timer_cost_ns();
        let mut phase = ServicePhase::start(
            setup,
            workers,
            MetricsHandle::attached(&service_registry),
            &wd,
            &mut tally,
        );
        let mut clock = EpisodeClock::new(start, window, &phase);
        let tl = live::traced(
            setup,
            workers,
            deadline,
            &handle,
            &mut tracer,
            &wd,
            &mut tally,
            &mut |tally, tracer| clock.tick(&mut phase, &wd, tally, tracer),
        );
        let svc = phase.finish(&wd, &mut tally, Some(&mut tracer));
        wd.enter("trace export");
        let events = export_trace(
            &[&live_registry, &service_registry],
            &tracer,
            &args,
            &mut tally,
        );
        print_service_notes(setup, &svc);
        println!(
            "# timer {timer_ns:.1} ns; {} traced iterations; per-worker parallel checks {:?}",
            tl.iterations,
            tl.parallel_per_worker
                .iter()
                .map(|w| w.checks)
                .collect::<Vec<_>>()
        );
        (
            per_layer(&parts, &tl, &svc, timer_ns, events, &tally),
            PER_LAYER,
        )
    } else {
        let mut service = with_service.then(|| {
            let phase =
                ServicePhase::start(setup, workers, MetricsHandle::detached(), &wd, &mut tally);
            let clock = EpisodeClock::new(start, window, &phase);
            (phase, clock)
        });
        let live = live::untraced(
            setup,
            workers,
            deadline,
            &wd,
            &mut tally,
            &mut |tally, tracer| {
                if let Some((phase, clock)) = service.as_mut() {
                    clock.tick(phase, &wd, tally, tracer);
                }
            },
        );
        println!("# {} live iterations", live.serial.len());
        if let Some((phase, _)) = service {
            let svc = phase.finish(&wd, &mut tally, None);
            print_service_notes(setup, &svc);
        }
        (end_to_end(setup_s, &live), END_TO_END)
    };
    wd.stop();
    print_result(&values, expected, &tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_part_result_round_trips() {
        let values: BTreeMap<_, _> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 0.5 + i as f64 / 3.0))
            .collect();
        let tally = Tally {
            attempted: 12,
            failed: 0,
            messages: Vec::new(),
        };
        let r = parse_result(&result_line(&values, END_TO_END, &tally)).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.values, values);
    }

    #[test]
    fn a_failed_or_non_finite_part_reads_as_incorrect() {
        let mut values: BTreeMap<_, _> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        let mut tally = Tally::default();
        tally.fail("wrong report".to_string());
        let r = parse_result(&result_line(&values, END_TO_END, &tally)).unwrap();
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (1, 1));
        values.insert("setup_s", f64::NAN);
        let r = parse_result(&result_line(&values, END_TO_END, &Tally::default())).unwrap();
        assert!(!r.correct && r.values["setup_s"].is_nan());
        assert!(parse_result("not a result").is_none());
    }
}
