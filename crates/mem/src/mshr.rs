//! Miss Status Holding Registers.
//!
//! Both cache levels in the simulated hierarchy (Fig. 1 of the paper) own
//! an MSHR so that hits can be served under pending misses and secondary
//! misses to an in-flight line merge instead of issuing duplicate bus
//! transactions.
//!
//! The MSHR is generic over the per-target payload `T` (the embedding
//! cache records which core request / upstream miss is waiting on the
//! fill).

use crate::addr::LineAddr;

/// One in-flight miss and the requests waiting on it.
#[derive(Debug, Clone)]
pub struct MshrEntry<T> {
    /// The missing line.
    pub line: LineAddr,
    /// Requests to wake when the fill arrives, in merge order. The
    /// storage is checked out of the MSHR's pool with room for
    /// `max_targets`, so merging never allocates.
    pub targets: Vec<T>,
    /// Whether the miss has been granted the bus / sent downstream yet.
    pub issued: bool,
    /// Whether the miss requires exclusive ownership (write miss /
    /// upgrade); a later write to a line with a pending read miss promotes
    /// this.
    pub exclusive: bool,
}

/// Outcome of [`Mshr::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// A new entry was created: a downstream request must be issued.
    Primary,
    /// Merged into an existing entry for the same line.
    Secondary,
    /// No free entry: the request must stall and retry.
    Full,
}

/// The flags of an entry retired by [`Mshr::complete`] (its targets go
/// to the caller's buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrCompleted {
    /// Whether the miss had been issued downstream.
    pub issued: bool,
    /// Whether the miss required exclusive ownership.
    pub exclusive: bool,
}

/// A small fully-associative MSHR file.
///
/// Target storage is bounded and pooled: `capacity` target buffers of
/// `max_targets` slots each are reserved at construction and cycle
/// between the live entries and a spare list, so a primary miss, a
/// merge and a completion allocate nothing.
#[derive(Debug)]
pub struct Mshr<T> {
    entries: Vec<MshrEntry<T>>,
    /// Empty target buffers, each with room for `max_targets`.
    spare: Vec<Vec<T>>,
    capacity: usize,
    max_targets: usize,
    /// Peak simultaneous occupancy, for reporting.
    peak: usize,
}

impl<T: Clone> Clone for Mshr<T> {
    /// A deep copy whose spare target buffers keep their reserved room
    /// (a derived clone would hand back zero-capacity spares).
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(self.capacity);
        for e in &self.entries {
            let mut targets = Vec::with_capacity(self.max_targets);
            targets.extend_from_slice(&e.targets);
            entries.push(MshrEntry { targets, ..*e });
        }
        let spare = (0..self.spare.len()).map(|_| Vec::with_capacity(self.max_targets)).collect();
        Self {
            entries,
            spare,
            capacity: self.capacity,
            max_targets: self.max_targets,
            peak: self.peak,
        }
    }
}

impl<T> Mshr<T> {
    /// An MSHR with `capacity` entries, each holding up to `max_targets`
    /// merged requests.
    pub fn new(capacity: usize, max_targets: usize) -> Self {
        assert!(capacity > 0 && max_targets > 0);
        Self {
            entries: Vec::with_capacity(capacity),
            spare: (0..capacity).map(|_| Vec::with_capacity(max_targets)).collect(),
            capacity,
            max_targets,
            peak: 0,
        }
    }

    /// Entries currently in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no miss is outstanding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no new primary miss can be accepted.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Peak occupancy observed.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether a miss for `line` is already outstanding.
    pub fn pending(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Look up the entry for `line`.
    pub fn get(&self, line: LineAddr) -> Option<&MshrEntry<T>> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Look up the entry for `line`, mutably.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry<T>> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Whether [`Mshr::allocate`] for `line` would succeed (primary or
    /// secondary) — the non-mutating mirror of its `Full` conditions, so
    /// callers can prove a refused request will keep being refused until
    /// an entry completes.
    pub fn would_accept(&self, line: LineAddr) -> bool {
        match self.get(line) {
            Some(e) => e.targets.len() < self.max_targets,
            None => !self.is_full(),
        }
    }

    /// Record a miss for `line` carrying `target`. Merges into an existing
    /// entry when possible; `exclusive` requests ownership (store miss).
    pub fn allocate(&mut self, line: LineAddr, target: T, exclusive: bool) -> MshrAlloc {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            if e.targets.len() >= self.max_targets {
                return MshrAlloc::Full;
            }
            e.targets.push(target);
            e.exclusive |= exclusive;
            return MshrAlloc::Secondary;
        }
        if self.is_full() {
            return MshrAlloc::Full;
        }
        // One spare per entry slot: a free slot always has its buffer.
        let mut targets = self.spare.pop().unwrap_or_default();
        targets.push(target);
        self.entries.push(MshrEntry { line, targets, issued: false, exclusive });
        self.peak = self.peak.max(self.entries.len());
        MshrAlloc::Primary
    }

    /// Next unissued entry, if any (FIFO order), marking it issued.
    pub fn next_to_issue(&mut self) -> Option<&mut MshrEntry<T>> {
        let entry = self.entries.iter_mut().find(|e| !e.issued)?;
        entry.issued = true;
        Some(entry)
    }

    /// Peek the next unissued entry without marking it.
    pub fn peek_unissued(&self) -> Option<&MshrEntry<T>> {
        self.entries.iter().find(|e| !e.issued)
    }

    /// The fill for `line` arrived: remove its entry, append its targets
    /// to `out` in merge order and return the entry's flags. The entry's
    /// target buffer goes back to the spare pool.
    pub fn complete(&mut self, line: LineAddr, out: &mut Vec<T>) -> Option<MshrCompleted> {
        let idx = self.entries.iter().position(|e| e.line == line)?;
        let mut e = self.entries.remove(idx);
        out.append(&mut e.targets);
        self.spare.push(e.targets);
        Some(MshrCompleted { issued: e.issued, exclusive: e.exclusive })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary_merge() {
        let mut m: Mshr<u32> = Mshr::new(4, 4);
        let l = LineAddr(7);
        assert_eq!(m.allocate(l, 1, false), MshrAlloc::Primary);
        assert_eq!(m.allocate(l, 2, false), MshrAlloc::Secondary);
        assert_eq!(m.len(), 1);
        let mut out = Vec::new();
        m.complete(l, &mut out).unwrap();
        assert_eq!(out, vec![1, 2]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_limits_primary_misses() {
        let mut m: Mshr<()> = Mshr::new(2, 4);
        assert_eq!(m.allocate(LineAddr(1), (), false), MshrAlloc::Primary);
        assert_eq!(m.allocate(LineAddr(2), (), false), MshrAlloc::Primary);
        assert_eq!(m.allocate(LineAddr(3), (), false), MshrAlloc::Full);
        // But merging into existing lines still works.
        assert_eq!(m.allocate(LineAddr(1), (), false), MshrAlloc::Secondary);
    }

    #[test]
    fn target_limit_stalls_merges() {
        let mut m: Mshr<u8> = Mshr::new(2, 2);
        let l = LineAddr(9);
        m.allocate(l, 0, false);
        m.allocate(l, 1, false);
        assert_eq!(m.allocate(l, 2, false), MshrAlloc::Full);
    }

    #[test]
    fn exclusive_promotion_sticks() {
        let mut m: Mshr<u8> = Mshr::new(2, 4);
        let l = LineAddr(3);
        m.allocate(l, 0, false);
        m.allocate(l, 1, true); // store merges into read miss
        assert!(m.get(l).unwrap().exclusive);
    }

    #[test]
    fn issue_order_is_fifo_and_once() {
        let mut m: Mshr<u8> = Mshr::new(4, 4);
        m.allocate(LineAddr(1), 0, false);
        m.allocate(LineAddr(2), 0, false);
        assert_eq!(m.next_to_issue().unwrap().line, LineAddr(1));
        assert_eq!(m.next_to_issue().unwrap().line, LineAddr(2));
        assert!(m.next_to_issue().is_none());
    }

    #[test]
    fn target_buffers_cycle_through_the_pool_without_reallocating() {
        let mut m: Mshr<u32> = Mshr::new(2, 3);
        let mut out = Vec::with_capacity(3);
        for round in 0..4u32 {
            m.allocate(LineAddr(1), round, false);
            m.allocate(LineAddr(1), round + 10, false);
            let buf = m.get(LineAddr(1)).unwrap().targets.as_ptr();
            out.clear();
            m.complete(LineAddr(1), &mut out).unwrap();
            assert_eq!(out, vec![round, round + 10]);
            m.allocate(LineAddr(2), round, false);
            assert_eq!(
                m.get(LineAddr(2)).unwrap().targets.as_ptr(),
                buf,
                "a completed entry's buffer serves the next primary miss"
            );
            m.complete(LineAddr(2), &mut out).unwrap();
        }
        let copy = m.clone();
        assert!(copy.spare.iter().all(|v| v.capacity() >= 3), "clones keep reserved room");
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m: Mshr<u8> = Mshr::new(4, 4);
        m.allocate(LineAddr(1), 0, false);
        m.allocate(LineAddr(2), 0, false);
        m.complete(LineAddr(1), &mut Vec::new());
        m.complete(LineAddr(2), &mut Vec::new());
        assert_eq!(m.peak(), 2);
        assert!(m.is_empty());
    }
}
