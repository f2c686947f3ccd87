//! The memoization FIFO — the storage half of the single-cycle LUT.

use crate::MatchPolicy;
use std::fmt;
use tm_fpu::Operands;

/// Default FIFO depth.
///
/// The paper settles on **two entries**: growing the FIFO from 2 to 64
/// entries raises the overall hit rate by less than 20 % (§4.1), so the
///2-entry design wins on energy.
pub const DEFAULT_FIFO_DEPTH: usize = 2;

/// One memorized context: the input operands of an error-free execution and
/// the result the FPU's last stage produced for them (`Q_S`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoEntry {
    /// The stored input operands.
    pub operands: Operands,
    /// The memorized result.
    pub result: f32,
}

/// Replacement policy of the LUT storage.
///
/// The paper's hardware is a plain FIFO ("the FIFO will be updated by
/// cleaning its last entry and inserting the new incoming operands");
/// [`Replacement::Lru`] is provided as a design-space ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// First-in first-out (the paper's design).
    #[default]
    Fifo,
    /// Move-to-front on hit (least-recently-used eviction).
    Lru,
}

/// A small FIFO of memorized execution contexts with parallel-comparator
/// lookup.
///
/// The storage is a flat ring of `depth` slots: an insert overwrites the
/// oldest slot and becomes the new head, so neither insert nor eviction
/// moves the other entries. Lookups test the entries newest first and
/// the first match wins.
///
/// # Examples
///
/// ```
/// use tm_core::{MatchPolicy, MemoFifo};
/// use tm_fpu::Operands;
///
/// let mut fifo = MemoFifo::new(2);
/// fifo.insert(Operands::binary(1.0, 2.0), 3.0);
/// let hit = fifo.lookup(&Operands::binary(1.0, 2.0), MatchPolicy::Exact, false);
/// assert_eq!(hit, Some(3.0));
/// ```
#[derive(Clone)]
pub struct MemoFifo {
    /// `depth` slots; the logical entry `i` (0 = newest) lives at
    /// `slots[(head + i) % depth]`.
    slots: Box<[MemoEntry]>,
    head: usize,
    len: usize,
    replacement: Replacement,
}

impl MemoFifo {
    /// Creates an empty FIFO holding up to `depth` contexts.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Self::with_replacement(depth, Replacement::Fifo)
    }

    /// Creates an empty FIFO with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_replacement(depth: usize, replacement: Replacement) -> Self {
        assert!(depth > 0, "FIFO depth must be at least 1");
        let empty = MemoEntry {
            operands: Operands::unary(0.0),
            result: 0.0,
        };
        Self {
            slots: vec![empty; depth].into_boxed_slice(),
            head: 0,
            len: 0,
            replacement,
        }
    }

    /// Maximum number of stored contexts.
    #[must_use]
    pub const fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently stored contexts.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether no context is stored yet.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The replacement policy.
    #[must_use]
    pub const fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// The slot one step older than `pos`.
    fn older(&self, pos: usize) -> usize {
        if pos + 1 == self.slots.len() {
            0
        } else {
            pos + 1
        }
    }

    /// Iterates over the stored contexts, newest first.
    pub fn iter(&self) -> impl Iterator<Item = &MemoEntry> {
        let (tail, wrapped) = self.slots.split_at(self.head);
        wrapped.iter().chain(tail).take(self.len)
    }

    /// The newest-first index and slot of the first entry matching
    /// `incoming` under `policy`.
    fn find(
        &self,
        incoming: &Operands,
        policy: MatchPolicy,
        commutative: bool,
    ) -> Option<(usize, usize)> {
        // Exact matching, the default policy, gets a loop of its own so
        // the per-entry test does not dispatch on the policy: on a 2-core
        // Xeon host it cut an exact depth-2 lookup + insert from about
        // 29 ns to 17 ns, and a lane issued through `ComputeUnit` from
        // about 47 ns to 35 ns (EXPERIMENTS.md, "Exact matching's own
        // search loop").
        match policy {
            MatchPolicy::Exact => self.find_by(incoming, commutative, |a, b| a == b),
            _ => self.find_by(incoming, commutative, |a, b| policy.matches_direct(a, b)),
        }
    }

    /// [`MemoFifo::find`] with the direct comparator `eq`. The swapped
    /// operand set is built once per search, not once per stored entry.
    #[inline(always)]
    fn find_by(
        &self,
        incoming: &Operands,
        commutative: bool,
        eq: impl Fn(&Operands, &Operands) -> bool,
    ) -> Option<(usize, usize)> {
        let swapped = (commutative && incoming.arity() >= 2).then(|| incoming.swapped());
        let mut pos = self.head;
        for i in 0..self.len {
            let stored = &self.slots[pos].operands;
            if eq(incoming, stored) || swapped.is_some_and(|s| eq(&s, stored)) {
                return Some((i, pos));
            }
            pos = self.older(pos);
        }
        None
    }

    /// Searches the FIFO with the given matching constraint.
    ///
    /// All comparators operate concurrently in hardware; the model checks
    /// entries newest-first and returns the memorized result of the first
    /// match (`Q_L` in Fig. 9). Under [`Replacement::Lru`] a hit also moves
    /// the entry to the front.
    pub fn lookup(
        &mut self,
        incoming: &Operands,
        policy: MatchPolicy,
        commutative: bool,
    ) -> Option<f32> {
        let (idx, pos) = self.find(incoming, policy, commutative)?;
        let hit = self.slots[pos];
        if self.replacement == Replacement::Lru && idx != 0 {
            // Shift the `idx` newer entries one slot older, then put the
            // hit entry at the head.
            let mut to = pos;
            for _ in 0..idx {
                let from = if to == 0 {
                    self.slots.len() - 1
                } else {
                    to - 1
                };
                self.slots[to] = self.slots[from];
                to = from;
            }
            self.slots[to] = hit;
        }
        Some(hit.result)
    }

    /// Non-mutating lookup (used by tests and reports).
    #[must_use]
    pub fn peek(&self, incoming: &Operands, policy: MatchPolicy, commutative: bool) -> Option<f32> {
        self.find(incoming, policy, commutative)
            .map(|(_, pos)| self.slots[pos].result)
    }

    /// Inserts a new error-free context, evicting the oldest entry when the
    /// FIFO is full ("cleaning its last entry and inserting the new incoming
    /// operands", §4.2).
    pub fn insert(&mut self, operands: Operands, result: f32) {
        // The slot before the head is free, or holds the oldest entry
        // when the ring is full.
        self.head = if self.head == 0 {
            self.slots.len() - 1
        } else {
            self.head - 1
        };
        self.slots[self.head] = MemoEntry { operands, result };
        self.len = (self.len + 1).min(self.slots.len());
    }

    /// Pre-loads a context without eviction-order side effects beyond a
    /// normal insert.
    ///
    /// Models the paper's "compiler-directed analysis techniques or domain
    /// experts … can also store pre-computed values in the LUT".
    pub fn preload(&mut self, operands: Operands, result: f32) {
        self.insert(operands, result);
    }

    /// Clears all stored contexts (e.g. on power-gating the module).
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl PartialEq for MemoFifo {
    /// Compares the logical contents (newest first), depth and
    /// replacement policy — not where the ring happens to start.
    fn eq(&self, other: &Self) -> bool {
        self.depth() == other.depth()
            && self.replacement == other.replacement
            && self.len == other.len
            && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for MemoFifo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoFifo")
            .field("entries", &self.iter().collect::<Vec<_>>())
            .field("depth", &self.depth())
            .field("replacement", &self.replacement)
            .finish()
    }
}

impl Default for MemoFifo {
    /// A 2-entry FIFO, the paper's chosen design point.
    fn default() -> Self {
        Self::new(DEFAULT_FIFO_DEPTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uo(v: f32) -> Operands {
        Operands::unary(v)
    }

    #[test]
    fn empty_fifo_misses() {
        let mut f = MemoFifo::default();
        assert_eq!(f.lookup(&uo(1.0), MatchPolicy::Exact, false), None);
        assert!(f.is_empty());
    }

    #[test]
    fn insert_then_hit() {
        let mut f = MemoFifo::default();
        f.insert(uo(2.0), 4.0);
        assert_eq!(f.lookup(&uo(2.0), MatchPolicy::Exact, false), Some(4.0));
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut f = MemoFifo::new(2);
        f.insert(uo(1.0), 10.0);
        f.insert(uo(2.0), 20.0);
        f.insert(uo(3.0), 30.0); // evicts 1.0
        assert_eq!(f.lookup(&uo(1.0), MatchPolicy::Exact, false), None);
        assert_eq!(f.lookup(&uo(2.0), MatchPolicy::Exact, false), Some(20.0));
        assert_eq!(f.lookup(&uo(3.0), MatchPolicy::Exact, false), Some(30.0));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn fifo_hit_does_not_reorder() {
        let mut f = MemoFifo::new(2);
        f.insert(uo(1.0), 10.0);
        f.insert(uo(2.0), 20.0);
        // Hit the older entry; under FIFO replacement it stays oldest.
        assert_eq!(f.lookup(&uo(1.0), MatchPolicy::Exact, false), Some(10.0));
        f.insert(uo(3.0), 30.0);
        assert_eq!(f.lookup(&uo(1.0), MatchPolicy::Exact, false), None);
    }

    #[test]
    fn lru_hit_protects_entry() {
        let mut f = MemoFifo::with_replacement(2, Replacement::Lru);
        f.insert(uo(1.0), 10.0);
        f.insert(uo(2.0), 20.0);
        assert_eq!(f.lookup(&uo(1.0), MatchPolicy::Exact, false), Some(10.0));
        f.insert(uo(3.0), 30.0); // evicts 2.0, not the recently used 1.0
        assert_eq!(f.lookup(&uo(1.0), MatchPolicy::Exact, false), Some(10.0));
        assert_eq!(f.lookup(&uo(2.0), MatchPolicy::Exact, false), None);
    }

    #[test]
    fn newest_entry_wins_on_ambiguous_approximate_match() {
        let mut f = MemoFifo::new(2);
        f.insert(uo(1.0), 100.0);
        f.insert(uo(1.1), 200.0);
        // Both entries are within 0.2 of 1.05; the newest must answer.
        let r = f.lookup(&uo(1.05), MatchPolicy::threshold(0.2), false);
        assert_eq!(r, Some(200.0));
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut f = MemoFifo::with_replacement(2, Replacement::Lru);
        f.insert(uo(1.0), 10.0);
        f.insert(uo(2.0), 20.0);
        let snapshot: Vec<MemoEntry> = f.iter().copied().collect();
        let _ = f.peek(&uo(1.0), MatchPolicy::Exact, false);
        let after: Vec<MemoEntry> = f.iter().copied().collect();
        assert_eq!(snapshot, after);
    }

    #[test]
    fn clear_empties() {
        let mut f = MemoFifo::default();
        f.insert(uo(1.0), 1.0);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn preload_behaves_like_insert() {
        let mut f = MemoFifo::default();
        f.preload(uo(5.0), 25.0);
        assert_eq!(f.lookup(&uo(5.0), MatchPolicy::Exact, false), Some(25.0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_rejected() {
        let _ = MemoFifo::new(0);
    }

    #[test]
    fn len_never_exceeds_depth() {
        let mut f = MemoFifo::new(3);
        for i in 0..100 {
            f.insert(uo(i as f32), i as f32);
            assert!(f.len() <= 3);
        }
    }
}
