//! Race reports.

use parking_lot::Mutex;
use sptree::tree::ThreadId;

/// The kind of conflicting access pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaceKind {
    /// A write racing with an earlier write.
    WriteWrite,
    /// A write racing with an earlier read.
    ReadWrite,
    /// A read racing with an earlier write.
    WriteRead,
}

/// One detected determinacy race.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Race {
    /// The shared location involved.
    pub loc: u32,
    /// The previously recorded thread.
    pub earlier: ThreadId,
    /// The thread whose access triggered the report.
    pub later: ThreadId,
    /// Which kind of conflict.
    pub kind: RaceKind,
}

/// Collection of races found during one run.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    races: Vec<Race>,
}

impl RaceReport {
    /// Empty report.
    pub fn new() -> Self {
        RaceReport::default()
    }

    /// Record a race.
    pub fn push(&mut self, race: Race) {
        self.races.push(race);
    }

    /// All recorded races.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Number of recorded races.
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// True if no race was found.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// The set of locations on which at least one race was reported, sorted.
    pub fn racy_locations(&self) -> Vec<u32> {
        let mut locs: Vec<u32> = self.races.iter().map(|r| r.loc).collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: RaceReport) {
        self.races.extend(other.races);
    }
}

/// Races per full [`RaceLog`] block: 64 KiB, under glibc's default mmap
/// threshold, so blocks come from (and return to) the malloc arenas.  A
/// block grows by doubling up to this size, so small reports stay small.
const LOG_BLOCK: usize = 4096;

/// Races collected from concurrent per-thread checks.
///
/// Races are appended into bounded blocks under a short lock, and the
/// blocks are concatenated once, on the thread that takes the report.  No
/// worker ever regrows a report-sized buffer (under glibc each worker's
/// malloc arena would keep the freed multi-MiB blocks), a racy batch costs
/// no allocation of its own, and the order is the one race-by-race pushes
/// would give, so serial reports stay bit-identical.
#[derive(Debug, Default)]
pub struct RaceLog {
    blocks: Mutex<Vec<Vec<Race>>>,
}

impl RaceLog {
    /// Empty log.
    pub fn new() -> Self {
        RaceLog::default()
    }

    /// Append one thread batch's races, in the batch's program order.
    pub fn push_batch(&self, races: impl IntoIterator<Item = Race>) {
        let mut blocks = self.blocks.lock();
        for race in races {
            match blocks.last_mut() {
                Some(block) if block.len() < LOG_BLOCK => block.push(race),
                _ => blocks.push(vec![race]),
            }
        }
    }

    /// Snapshot of the races logged so far.
    pub fn report(&self) -> RaceReport {
        RaceReport {
            races: self.blocks.lock().concat(),
        }
    }

    /// Consume the log and return the final report.
    pub fn into_report(self) -> RaceReport {
        let mut blocks = self.blocks.into_inner();
        let races = if blocks.len() == 1 {
            blocks.pop().unwrap_or_default()
        } else {
            blocks.concat()
        };
        RaceReport { races }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_locations_are_deduplicated_and_sorted() {
        let mut report = RaceReport::new();
        for loc in [5u32, 1, 5, 3, 1] {
            report.push(Race {
                loc,
                earlier: ThreadId(0),
                later: ThreadId(1),
                kind: RaceKind::WriteWrite,
            });
        }
        assert_eq!(report.len(), 5);
        assert_eq!(report.racy_locations(), vec![1, 3, 5]);
        assert!(!report.is_empty());
    }

    #[test]
    fn race_log_keeps_push_order_across_blocks() {
        let race = |loc| Race {
            loc,
            earlier: ThreadId(0),
            later: ThreadId(1),
            kind: RaceKind::WriteWrite,
        };
        let log = RaceLog::new();
        assert!(log.report().is_empty());
        log.push_batch([race(4), race(2)]);
        log.push_batch([]);
        assert_eq!(log.report().races(), &[race(4), race(2)]);
        // Cross a block boundary: the order must survive concatenation.
        log.push_batch((0..LOG_BLOCK as u32 + 3).map(race));
        let mut expected = vec![race(4), race(2)];
        expected.extend((0..LOG_BLOCK as u32 + 3).map(race));
        assert_eq!(log.report().races(), expected.as_slice());
        assert_eq!(log.into_report().races(), expected.as_slice());
    }
}
