//! The four workloads: their live programs, their session pools, and the
//! service plan (rates, session counts, latency limit), all generated from
//! the benchmark seed.  See `README.md` for why each was chosen.

use std::time::{Duration, Instant};

use racedet::Race;
use spprog::{build_proc, record_program, run_program, Proc, Recorded, RunConfig};
use workloads::{
    bfs_plan, branch_bound_plan, live_bfs_from_plan, live_branch_bound, live_fib, live_growth,
    live_matmul, live_quicksort, live_reduction, power_law_digraph, quicksort_input,
    reduction_input, reduction_plan, BfsVariant, LiveWorkload,
};

use crate::openloop::{poisson_schedule, SplitMix};
use crate::sys::Digest;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Race-free `live_fib`: spawns and SP maintenance, almost no accesses.
    FibSpawn,
    /// `live_matmul` with its planted race: shadow reads and SP queries.
    MatmulRead,
    /// Racy-visited power-law BFS: blind write–write races, many steals.
    BfsWrite,
    /// Open-loop session stream into one detection service.
    ServiceOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FibSpawn,
        Workload::MatmulRead,
        Workload::BfsWrite,
        Workload::ServiceOpen,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FibSpawn => "fib-spawn",
            Workload::MatmulRead => "matmul-read",
            Workload::BfsWrite => "bfs-write",
            Workload::ServiceOpen => "service-open",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Depth of the fib-spawn live program.
pub const FIB_DEPTH: u32 = 18;
/// Matrix order of the matmul-read live program (3n²+1 words: fits L2).
pub const MATMUL_N: u32 = 40;
/// Nodes of the bfs-write graph: 3n words of value plus 3n of shadow memory
/// is about 3 MiB, beyond a 2 MiB per-core L2.
pub const BFS_NODES: u32 = 1 << 16;
/// Extra out-edges per node of the bfs-write graph.
pub const BFS_DEGREE: u32 = 3;
/// Fair-chunk granularity of the bfs-write BFS.
pub const BFS_GRANULARITY: u32 = 64;

/// A live program run through every execution path.
pub struct LiveCase {
    /// Name for diagnostics.
    pub name: String,
    /// The program.
    pub prog: Proc,
    /// Shared-memory size.
    pub locations: u32,
    /// Locations every detector must report racy.
    pub expected_racy: Vec<u32>,
    /// Serial recording: the offline detector's input.
    pub recorded: Recorded,
}

impl LiveCase {
    /// SP threads of one execution.
    pub fn threads(&self) -> u64 {
        self.recorded.tree.num_threads() as u64
    }
}

/// One program sessions are drawn from.
pub struct PoolEntry {
    /// Name for diagnostics.
    pub name: String,
    /// The program.
    pub prog: Proc,
    /// Shared-memory size.
    pub locations: u32,
    /// Planted panic: the session must come back `Panicked`.
    pub panics: bool,
    /// Draw weight among non-panic entries.
    pub weight: f64,
    /// Races of a standalone serial run (computed at set-up); sessions must
    /// reproduce them bit for bit.
    pub reference: Vec<Race>,
}

/// Fixed parameters of a workload's service phase.
#[derive(Clone, Debug)]
pub struct ServicePlan {
    /// Reference arrival rate (sessions/s), one the seed code sustains.
    pub reference_rate: f64,
    /// Sessions at the reference rate.
    pub reference_sessions: usize,
    /// Fixed rate ladder (sessions/s), ascending.
    pub ladder: Vec<f64>,
    /// Seconds of arrivals per ladder rung (at least
    /// [`ServicePlan::MIN_RUNG_SESSIONS`] sessions).
    pub rung_seconds: f64,
    /// Equal consecutive slices the reference stream is judged in: its
    /// latency figures are the medians of its slices' figures, so one
    /// stalled slice cannot decide them.
    pub slices: usize,
    /// Slices each ladder rung is judged in, the same way.
    pub rung_slices: usize,
    /// Saturation runs: each pushes `saturation_sessions` through the
    /// service closed loop, `saturation_window` outstanding at a time.
    pub saturation_runs: usize,
    /// Sessions per saturation run.
    pub saturation_sessions: usize,
    /// Sessions outstanding during a saturation run.
    pub saturation_window: usize,
    /// Tail-latency limit a rung must meet, milliseconds.
    pub limit_ms: f64,
    /// Share of sessions that are planted panics.
    pub panic_share: f64,
}

impl ServicePlan {
    /// Fewest sessions a ladder rung submits.
    pub const MIN_RUNG_SESSIONS: usize = 400;

    /// Sessions a rung at `rate` submits.
    pub fn rung_sessions(&self, rate: f64) -> usize {
        ((rate * self.rung_seconds) as usize).max(Self::MIN_RUNG_SESSIONS)
    }
}

/// A drawn session stream: due offsets and pool indices.
pub struct Stream {
    /// Due offsets from the stream start.
    pub due: Vec<Duration>,
    /// Pool entry of each session.
    pub entries: Vec<usize>,
}

/// Everything a run needs, built before any timing starts.
pub struct Setup {
    /// Seed.
    pub seed: u64,
    /// Live programs (one for the live workloads, one per family for
    /// service-open).
    pub live: Vec<LiveCase>,
    /// Session pool (empty when built without the service).
    pub pool: Vec<PoolEntry>,
    /// Service plan.
    pub plan: ServicePlan,
    /// Stream at the reference rate (empty when built without the
    /// service).
    pub reference_stream: Stream,
    /// Digest of every generated input.
    pub digest: u64,
    /// Seconds spent generating programs and graphs.
    pub gen_s: f64,
    /// Seconds spent recording the live programs for the offline path.
    pub record_s: f64,
    /// Seconds spent computing the pool's standalone reference reports.
    pub reference_s: f64,
}

/// Marker carried by every planted panic (the panic hook stays quiet on it).
pub const PLANTED_PANIC: &str = "perfbench planted panic";

fn planted_panic_program() -> LiveWorkload {
    let prog = build_proc(|p| {
        p.spawn(|c| {
            c.step(|m| m.write(0, 1));
        });
        p.step(|_| panic!("{PLANTED_PANIC}"));
        p.sync();
    });
    LiveWorkload {
        name: "planted-panic",
        prog,
        locations: 1,
        expected_racy: vec![],
    }
}

/// Sizes of a pool family, smallest first; size class `k` is drawn with
/// weight `2^-k` while its work grows faster, so a few large sessions carry
/// much of the load (heavy-tailed sizes, where shortest-job-first matters).
fn family(make: impl Fn(usize, bool) -> LiveWorkload, classes: usize) -> Vec<(LiveWorkload, f64)> {
    let mut out = Vec::new();
    for k in 0..classes {
        for racy in [false, true] {
            out.push((make(k, racy), 0.5f64.powi(k as i32)));
        }
    }
    out
}

fn bfs_workload(nodes: u32, seed: u64, granularity: u32, variant: BfsVariant) -> LiveWorkload {
    let g = power_law_digraph(nodes, BFS_DEGREE, seed);
    live_bfs_from_plan(&bfs_plan(&g, granularity), variant)
}

fn bfs_variant(racy: bool) -> BfsVariant {
    if racy {
        BfsVariant::RacyVisited
    } else {
        BfsVariant::RaceFree
    }
}

/// The live programs of `workload` (seeded where the workload has seeded
/// inputs) and its pool, weights attached.
fn generate(workload: Workload, seed: u64) -> (Vec<LiveWorkload>, Vec<(LiveWorkload, f64)>) {
    match workload {
        Workload::FibSpawn => (
            vec![live_fib(FIB_DEPTH, false)],
            family(|k, racy| live_fib(6 + 2 * k as u32, racy), 5),
        ),
        Workload::MatmulRead => (
            vec![live_matmul(MATMUL_N, true)],
            family(|k, racy| live_matmul(4 + 4 * k as u32, racy), 5),
        ),
        Workload::BfsWrite => (
            vec![bfs_workload(
                BFS_NODES,
                seed,
                BFS_GRANULARITY,
                BfsVariant::RacyVisited,
            )],
            family(
                |k, racy| bfs_workload(64 << k, 0xB5 + k as u64, 8, bfs_variant(racy)),
                5,
            ),
        ),
        Workload::ServiceOpen => {
            let fib = |k: usize, racy| live_fib(5 + 3 * k as u32, racy);
            let growth = |k: usize, racy| live_growth(3 + 3 * k as u32, racy);
            let qsort = |k: usize, racy| {
                live_quicksort(&quicksort_input(16 << (2 * k), 0x51 + k as u64), racy)
            };
            let bb = |k: usize, racy| {
                live_branch_bound(&branch_bound_plan(4 + 2 * k as u32, 0xBB + k as u64), racy)
            };
            let red = |k: usize, racy| {
                live_reduction(
                    &reduction_plan(&reduction_input(32 << (2 * k), 0x4E + k as u64), 8),
                    racy,
                )
            };
            let bfs =
                |k: usize, racy| bfs_workload(64 << (2 * k), 0xF5 + k as u64, 8, bfs_variant(racy));
            // One mid-size program per family is the live set; the pool
            // holds three size classes of each.
            let live = vec![
                fib(1, true),
                growth(1, false),
                qsort(1, true),
                bb(1, false),
                red(1, true),
                bfs(1, false),
            ];
            let mut pool = Vec::new();
            pool.extend(family(fib, 3));
            pool.extend(family(growth, 3));
            pool.extend(family(qsort, 3));
            pool.extend(family(bb, 3));
            pool.extend(family(red, 3));
            pool.extend(family(bfs, 3));
            (live, pool)
        }
    }
}

fn plan(workload: Workload) -> ServicePlan {
    // One geometric ladder for every workload: 400 · 2^(k/4) sessions/s,
    // 400 to 45,000.
    let ladder: Vec<f64> = (0..28)
        .map(|k| 400.0 * 2f64.powf(f64::from(k) / 4.0))
        .collect();
    ServicePlan {
        reference_rate: 2000.0,
        reference_sessions: 4500,
        ladder,
        rung_seconds: 0.4,
        slices: 9,
        rung_slices: 5,
        saturation_runs: 5,
        saturation_sessions: 4000,
        saturation_window: 32,
        limit_ms: 20.0,
        panic_share: if workload == Workload::ServiceOpen {
            0.01
        } else {
            0.0
        },
    }
}

/// Draw a stream of `n` sessions at `rate` from the pool with `rng`.
pub fn draw_stream(
    pool: &[PoolEntry],
    plan: &ServicePlan,
    rate: f64,
    n: usize,
    rng: &mut SplitMix,
) -> Stream {
    let due = poisson_schedule(rate, n, rng);
    let weights: Vec<f64> = pool
        .iter()
        .map(|e| if e.panics { 0.0 } else { e.weight })
        .collect();
    let panic_entry = pool.iter().position(|e| e.panics);
    let entries = (0..n)
        .map(|_| match panic_entry {
            Some(p) if rng.unit() < plan.panic_share => p,
            _ => rng.weighted(&weights),
        })
        .collect();
    Stream { due, entries }
}

/// Build every input of `workload` for `seed`: the live programs, and with
/// `service` the session pool and reference stream too.  Fails (with the
/// reason) if a generated program does not produce its expected races.
pub fn build(workload: Workload, seed: u64, service: bool) -> Result<Setup, String> {
    let t0 = Instant::now();
    let (live, mut pool) = generate(workload, seed);
    if !service {
        pool.clear();
    }
    let plan = plan(workload);
    let gen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let live: Vec<LiveCase> = live
        .into_iter()
        .map(|w| {
            let recorded = record_program(&w.prog, w.locations);
            LiveCase {
                name: w.name.to_string(),
                prog: w.prog,
                locations: w.locations,
                expected_racy: w.expected_racy,
                recorded,
            }
        })
        .collect();
    let record_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut entries = Vec::with_capacity(pool.len() + 1);
    let mut digest = Digest::default();
    for (w, weight) in pool {
        let run = run_program(&w.prog, &RunConfig::serial(w.locations).enforced());
        if run.report.racy_locations() != w.expected_racy {
            return Err(format!(
                "pool program {} reported {:?}, expected {:?}",
                w.name,
                run.report.racy_locations(),
                w.expected_racy
            ));
        }
        digest.text(w.name);
        digest.word(u64::from(w.locations));
        digest.word(run.structural_hash.expect("enforced runs carry a hash"));
        entries.push(PoolEntry {
            name: w.name.to_string(),
            prog: w.prog,
            locations: w.locations,
            panics: false,
            weight,
            reference: run.report.races().to_vec(),
        });
    }
    if service && plan.panic_share > 0.0 {
        let w = planted_panic_program();
        digest.text(w.name);
        entries.push(PoolEntry {
            name: w.name.to_string(),
            prog: w.prog,
            locations: w.locations,
            panics: true,
            weight: 0.0,
            reference: Vec::new(),
        });
    }
    let reference_s = t2.elapsed().as_secs_f64();

    for case in &live {
        digest.text(&case.name);
        digest.word(u64::from(case.locations));
        digest.word(case.recorded.structural_hash);
        digest.word(case.recorded.script.total_accesses() as u64);
        for &loc in &case.expected_racy {
            digest.word(u64::from(loc));
        }
    }
    let reference_stream = if service {
        draw_stream(
            &entries,
            &plan,
            plan.reference_rate,
            plan.reference_sessions,
            &mut SplitMix::new(seed, 1),
        )
    } else {
        Stream {
            due: Vec::new(),
            entries: Vec::new(),
        }
    };
    for (due, entry) in reference_stream.due.iter().zip(&reference_stream.entries) {
        digest.word(due.as_nanos() as u64);
        digest.word(*entry as u64);
    }
    Ok(Setup {
        seed,
        live,
        pool: entries,
        plan,
        reference_stream,
        digest: digest.value(),
        gen_s,
        record_s,
        reference_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        let a = build(Workload::ServiceOpen, 5, true).unwrap();
        let b = build(Workload::ServiceOpen, 5, true).unwrap();
        let c = build(Workload::ServiceOpen, 6, true).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_ne!(
            a.digest, c.digest,
            "the arrival schedule depends on the seed"
        );
        assert_eq!(a.pool.iter().filter(|e| e.panics).count(), 1);
    }

    #[test]
    fn without_the_service_only_the_live_programs_are_built() {
        let s = build(Workload::MatmulRead, 5, false).unwrap();
        assert_eq!(s.live.len(), 1);
        assert!(s.pool.is_empty() && s.reference_stream.due.is_empty());
        assert_eq!(
            s.digest,
            build(Workload::MatmulRead, 5, false).unwrap().digest
        );
        assert_ne!(
            s.digest,
            build(Workload::MatmulRead, 5, true).unwrap().digest
        );
    }

    #[test]
    fn streams_draw_panics_at_the_planned_share() {
        let s = build(Workload::ServiceOpen, 3, true).unwrap();
        let stream = draw_stream(&s.pool, &s.plan, 1000.0, 20_000, &mut SplitMix::new(3, 2));
        let panics = stream.entries.iter().filter(|&&i| s.pool[i].panics).count();
        assert!(
            (120..280).contains(&panics),
            "{panics} planted panics in 20000"
        );
    }
}
