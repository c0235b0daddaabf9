//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API used by `spbench`:
//! `Criterion` configuration builders, benchmark groups with
//! `bench_function` / `bench_with_input` / `throughput`, `BenchmarkId`, and
//! the `criterion_group!` / `criterion_main!` macros.  Instead of criterion's
//! statistical machinery it runs each benchmark for a warm-up pass plus a
//! bounded measuring loop and prints a single mean-time line, which is enough
//! to reproduce the paper's relative comparisons without registry access.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group (reported, not analyzed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` — e.g. `BenchmarkId::new("query", "fib-20k")`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Id consisting of the parameter alone — e.g. a worker count.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Things accepted as a benchmark id (`&str`, `String`, or [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self.to_string() }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters_done: u64,
    total: Duration,
    warm_up_time: Duration,
    measurement_time: Duration,
    max_iters: u64,
}

impl Bencher {
    /// Run `routine` repeatedly, recording the mean wall time per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up for the configured duration (at least one call).
        let warm_start = Instant::now();
        loop {
            std::hint::black_box(routine());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // Measure in geometrically growing batches so the clock is read
        // rarely relative to the routine — a per-iteration `elapsed()` costs
        // tens of ns, which would swamp nanosecond-scale routines.
        let budget = self.measurement_time;
        let mut iters = 0u64;
        let mut batch = 1u64;
        let start = Instant::now();
        loop {
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            iters += batch;
            let elapsed = start.elapsed();
            if elapsed >= budget || iters >= self.max_iters {
                self.iters_done = iters;
                self.total = elapsed;
                return;
            }
            // Double the batch only in the first half of the budget: the next
            // batch then costs at most ~the time already spent, bounding the
            // overshoot past `budget` to roughly one budget.
            if elapsed < budget / 2 {
                batch *= 2;
            }
            batch = batch.min(self.max_iters - iters);
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_size: 100,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(500),
        }
    }
}

/// The benchmark-harness entry point (a small subset of criterion's).
#[derive(Default)]
pub struct Criterion {
    config: Config,
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.config.warm_up_time = t;
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.config.measurement_time = t;
        self
    }

    /// No-op in the shim (kept so real-criterion setups port unchanged).
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, group_name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: group_name.into(),
            config: self.config,
            throughput: None,
            _criterion: self,
        }
    }

    /// Group-less single benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self {
        let config = self.config;
        run_one("", &id.into_benchmark_id(), config, None, f);
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    config: Config,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n;
        self
    }

    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.config.warm_up_time = t;
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.config.measurement_time = t;
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self {
        run_one(&self.name, &id.into_benchmark_id(), self.config, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&self.name, &id, self.config, self.throughput, |b| f(b, input));
        self
    }

    /// Consume the group (report output already happened per benchmark).
    pub fn finish(self) {}
}

/// Smoke mode (`SPBENCH_SMOKE=1` in the environment): run every benchmark
/// routine for a single measured iteration instead of a timed loop.  CI uses
/// this to execute bench targets end-to-end on every push — numbers are
/// meaningless, rot is impossible.  Bench files can also consult this to
/// scale their workload construction down.
pub fn smoke_mode() -> bool {
    static SMOKE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SMOKE.get_or_init(|| std::env::var_os("SPBENCH_SMOKE").is_some_and(|v| v != "0"))
}

fn run_one<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &BenchmarkId,
    mut config: Config,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if smoke_mode() {
        // Zero budgets: one warm-up call plus one measured batch of one.
        config.warm_up_time = Duration::ZERO;
        config.measurement_time = Duration::ZERO;
        config.sample_size = 1;
    }
    let mut b = Bencher {
        iters_done: 0,
        total: Duration::ZERO,
        warm_up_time: config.warm_up_time,
        measurement_time: config.measurement_time,
        // The sample size bounds total iterations, like criterion's sampling.
        max_iters: (config.sample_size as u64).max(1) * 10_000,
    };
    f(&mut b);
    let full = if group.is_empty() {
        id.id.clone()
    } else {
        format!("{group}/{}", id.id)
    };
    if b.iters_done == 0 {
        println!("{full:<48} (no timing loop executed)");
        return;
    }
    let per_iter = b.total.as_nanos() as f64 / b.iters_done as f64;
    let extra = match throughput {
        Some(Throughput::Elements(n)) if n > 0 => {
            format!("  ({:.1} ns/elem)", per_iter / n as f64)
        }
        Some(Throughput::Bytes(n)) if n > 0 => {
            let bytes_per_sec = n as f64 / (per_iter * 1e-9);
            format!("  ({:.1} MiB/s)", bytes_per_sec / (1024.0 * 1024.0))
        }
        _ => String::new(),
    };
    println!(
        "{full:<48} {:>14.1} ns/iter  ({} iters){extra}",
        per_iter, b.iters_done
    );
}

/// Define a benchmark-group function. Supports both criterion forms:
/// `criterion_group!(name, target, ...)` and
/// `criterion_group! { name = n; config = expr; targets = t, ... }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test`/`cargo bench` pass harness flags (e.g. `--bench`);
            // they are irrelevant to the shim and ignored.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(10)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        let mut group = c.benchmark_group("g");
        let mut calls = 0u64;
        group.throughput(Throughput::Elements(4));
        group.bench_function(BenchmarkId::new("f", 1), |b| {
            b.iter(|| {
                calls += 1;
                std::hint::black_box(calls)
            })
        });
        group.finish();
        assert!(calls > 0);
    }

    criterion_group!(simple_form, noop_bench);
    criterion_group! {
        name = full_form;
        config = Criterion::default().measurement_time(Duration::from_millis(1));
        targets = noop_bench
    }

    fn noop_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| std::hint::black_box(1)));
    }

    #[test]
    fn macro_forms_compile_and_run() {
        simple_form();
        full_form();
    }
}
