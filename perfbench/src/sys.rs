//! Machine facts for the reproducibility header, peak RSS, the per-run
//! watchdog, and the input digest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Online CPUs the benchmark sizes its parallel runs to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Per-core L2 size as the kernel reports it (e.g. `2048K`), or `unknown`.
pub fn l2_size() -> String {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            (level.trim() == "2").then(|| std::fs::read_to_string(format!("{dir}/size")).ok())?
        })
        .map(|s| s.trim().to_string())
        .next()
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compiler the benchmark was built with.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// High-water resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Keep freed heap memory mapped for the life of the process.
///
/// glibc returns freed memory at the top of the heap to the kernel and
/// serves large blocks with fresh `mmap`s; every run then faults its pages
/// back in.  On a virtual machine those faults are slow and erratic (they
/// made identical allocation-heavy runs swing 3x), so the benchmark raises
/// the trim and mmap thresholds once at start-up.  Allocation still costs
/// its `malloc`/`free` calls; only the page-fault noise goes.  A no-op on
/// other C libraries.
pub fn keep_heap_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        for (param, value) in [
            (M_TRIM_THRESHOLD, i32::MAX),
            (M_TOP_PAD, 64 << 20),
            (M_MMAP_THRESHOLD, 32 << 20),
        ] {
            // SAFETY: `mallopt` only adjusts glibc allocator tunables; it
            // takes two plain integers, touches no memory of ours, and is
            // called before any other thread exists.
            unsafe {
                mallopt(param, value);
            }
        }
    }
}

/// Whether address-space layout randomization applies to this process:
/// `off` if the kernel disables it (`/proc/sys/kernel/randomize_va_space`
/// is 0) or the process runs with `ADDR_NO_RANDOMIZE` (`setarch -R`), `on`
/// if neither, `unknown` where the files cannot be read.  The benchmark
/// leaves it as it finds it and records it in its header.
pub fn aslr_state() -> &'static str {
    const ADDR_NO_RANDOMIZE: u32 = 0x0040000;
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let kernel = read("/proc/sys/kernel/randomize_va_space");
    let persona =
        read("/proc/self/personality").and_then(|p| u32::from_str_radix(p.trim(), 16).ok());
    match (kernel.as_deref().map(str::trim), persona) {
        (Some("0"), _) => "off",
        (_, Some(p)) if p & ADDR_NO_RANDOMIZE != 0 => "off",
        (Some(_), Some(_)) => "on",
        _ => "unknown",
    }
}

/// FNV-1a style 64-bit digest of the generated inputs: the same seed must
/// give the same digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a string.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Per-run watchdog: every operation the benchmark starts is registered by
/// name; one that runs past its limit (or a run past its overall deadline)
/// prints a named failure and exits non-zero instead of stalling.
pub struct Watchdog {
    current: Arc<Mutex<(String, Instant)>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Exit code of a watchdog abort.
pub const WATCHDOG_EXIT: i32 = 3;

impl Watchdog {
    /// Start watching: any single operation may take `op_limit`, the whole
    /// run `deadline`.
    pub fn start(op_limit: Duration, deadline: Duration) -> Self {
        let begun = Instant::now();
        let current = Arc::new(Mutex::new(("set-up".to_string(), begun)));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let current = Arc::clone(&current);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    let (name, since) = current
                        .lock()
                        .expect("watchdog state lock poisoned")
                        .clone();
                    let stuck = since.elapsed() > op_limit;
                    if stuck || begun.elapsed() > deadline {
                        eprintln!(
                            "perfbench: watchdog: operation `{name}` still running after {:.1}s \
                             (run {:.1}s); aborting as failed",
                            since.elapsed().as_secs_f64(),
                            begun.elapsed().as_secs_f64()
                        );
                        std::process::exit(WATCHDOG_EXIT);
                    }
                }
            })
        };
        Watchdog {
            current,
            stop,
            thread: Some(thread),
        }
    }

    /// Name the operation now running (restarts its clock).
    pub fn enter(&self, name: impl Into<String>) {
        *self.current.lock().expect("watchdog state lock poisoned") = (name.into(), Instant::now());
    }

    /// Stop the watchdog thread and wait for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("watchdog thread panicked");
        }
    }
}

/// Minimal JSON string escaping for names and messages.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`, which the
/// result check then rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_word() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn machine_facts_are_available() {
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
        assert!(["on", "off", "unknown"].contains(&aslr_state()));
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
