//! The repository benchmark: layer-attributed live, offline and service race
//! detection on `nproc` cores.  `src/main.rs` is the command; the modules
//! here are its parts, public so the tests can reach them.  See `README.md`.

pub mod live;
pub mod metrics;
pub mod openloop;
pub mod probe;
pub mod service;
pub mod setup;
pub mod stats;
pub mod sys;

/// Attempted and failed operations of a run, with the first few failure
/// messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong, or that panicked.
    pub failed: u64,
    /// First failure messages (capped).
    pub messages: Vec<String>,
}

impl Tally {
    const MAX_MESSAGES: usize = 8;

    /// Count one checked operation; on `!ok`, a failure described by `msg`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(msg());
        }
        ok
    }

    /// Count one operation that failed outright.
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(msg);
    }

    /// Keep a failure message (without counting an operation).
    pub fn note(&mut self, msg: String) {
        if !msg.is_empty() && self.messages.len() < Self::MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
