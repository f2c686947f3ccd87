//! Differential test of [`MemoFifo`] against a reference model.
//!
//! The reference is the straightforward `VecDeque` implementation the
//! flat ring replaced: entries newest first, `push_front` on insert,
//! `pop_back` on eviction, remove + `push_front` on an LRU hit, and the
//! matching policy applied entry by entry. Both are driven with the same
//! tm-rng operation sequences — inserts, lookups, peeks, clears and
//! preloads over a small operand pool that includes ±0.0 and NaN — and
//! must agree on every lookup result, on `iter()` order, on `len`, and
//! under `PartialEq`.

use std::collections::VecDeque;
use tm_core::{fraction_mask, MatchPolicy, MemoEntry, MemoFifo, Replacement};
use tm_fpu::Operands;
use tm_rng::Pcg32;

/// The reference LUT storage.
struct RefFifo {
    entries: VecDeque<MemoEntry>,
    depth: usize,
    replacement: Replacement,
}

impl RefFifo {
    fn new(depth: usize, replacement: Replacement) -> Self {
        Self {
            entries: VecDeque::with_capacity(depth),
            depth,
            replacement,
        }
    }

    fn lookup(
        &mut self,
        incoming: &Operands,
        policy: MatchPolicy,
        commutative: bool,
    ) -> Option<f32> {
        let idx = self
            .entries
            .iter()
            .position(|e| policy.matches(incoming, &e.operands, commutative))?;
        let result = self.entries[idx].result;
        if self.replacement == Replacement::Lru && idx != 0 {
            let e = self.entries.remove(idx).expect("index was just found");
            self.entries.push_front(e);
        }
        Some(result)
    }

    fn peek(&self, incoming: &Operands, policy: MatchPolicy, commutative: bool) -> Option<f32> {
        self.entries
            .iter()
            .find(|e| policy.matches(incoming, &e.operands, commutative))
            .map(|e| e.result)
    }

    fn insert(&mut self, operands: Operands, result: f32) {
        if self.entries.len() == self.depth {
            self.entries.pop_back();
        }
        self.entries.push_front(MemoEntry { operands, result });
    }
}

/// Operand values: repeats for hits, near-misses for the approximate
/// policies, and the encodings exact matching must tell apart.
const POOL: [f32; 10] = [
    0.0,
    -0.0,
    f32::NAN,
    1.0,
    1.25,
    1.0000001,
    2.0,
    -3.5,
    100.0,
    100.5,
];

fn operands(rng: &mut Pcg32) -> Operands {
    let mut v = [0.0f32; 3];
    for x in &mut v {
        *x = POOL[rng.gen_range(0..POOL.len())];
    }
    match rng.gen_range(1..=3u32) {
        1 => Operands::unary(v[0]),
        2 => Operands::binary(v[0], v[1]),
        _ => Operands::ternary(v[0], v[1], v[2]),
    }
}

fn bits(r: Option<f32>) -> Option<u32> {
    r.map(f32::to_bits)
}

fn assert_same(fifo: &MemoFifo, reference: &RefFifo, what: &str) {
    assert_eq!(fifo.len(), reference.entries.len(), "{what}: len");
    assert_eq!(
        fifo.is_empty(),
        reference.entries.is_empty(),
        "{what}: is_empty"
    );
    let got: Vec<MemoEntry> = fifo.iter().copied().collect();
    let want: Vec<MemoEntry> = reference.entries.iter().copied().collect();
    assert_eq!(got, want, "{what}: iter() order (newest first)");
    // A ring rebuilt from the logical contents, with a different slot
    // layout, must compare equal.
    let mut rebuilt = MemoFifo::with_replacement(reference.depth, reference.replacement);
    for e in reference.entries.iter().rev() {
        rebuilt.preload(e.operands, e.result);
    }
    assert_eq!(*fifo, rebuilt, "{what}: PartialEq against a rebuilt ring");
}

fn drive(
    seed: u64,
    depth: usize,
    replacement: Replacement,
    policy: MatchPolicy,
    commutative: bool,
) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut fifo = MemoFifo::with_replacement(depth, replacement);
    let mut reference = RefFifo::new(depth, replacement);
    for step in 0..400 {
        let what = format!(
            "seed {seed} depth {depth} {replacement:?} {policy:?} commutative={commutative} step {step}"
        );
        let ops = operands(&mut rng);
        match rng.gen_range(0..100u32) {
            0..=39 => {
                let result = rng.gen_range(-8.0f32..8.0);
                fifo.insert(ops, result);
                reference.insert(ops, result);
            }
            40..=74 => assert_eq!(
                bits(fifo.lookup(&ops, policy, commutative)),
                bits(reference.lookup(&ops, policy, commutative)),
                "{what}: lookup {ops:?}"
            ),
            75..=89 => assert_eq!(
                bits(fifo.peek(&ops, policy, commutative)),
                bits(reference.peek(&ops, policy, commutative)),
                "{what}: peek {ops:?}"
            ),
            90..=93 => {
                fifo.clear();
                reference.entries.clear();
            }
            _ => {
                let result = rng.gen_range(-8.0f32..8.0);
                fifo.preload(ops, result);
                reference.insert(ops, result);
            }
        }
        assert_same(&fifo, &reference, &what);
    }
}

#[test]
fn ring_matches_the_reference_model() {
    let policies = [
        MatchPolicy::Exact,
        MatchPolicy::threshold(0.5),
        MatchPolicy::MaskBits(fraction_mask(8)),
        MatchPolicy::MaskBits(fraction_mask(23)),
    ];
    let mut seed = 0u64;
    for depth in 1..=16 {
        for replacement in [Replacement::Fifo, Replacement::Lru] {
            for policy in policies {
                for commutative in [false, true] {
                    seed += 1;
                    drive(seed, depth, replacement, policy, commutative);
                }
            }
        }
    }
}

#[test]
fn lookups_hit_often_enough_to_exercise_reordering() {
    // Guards the differential test against a pool so sparse that every
    // lookup misses and LRU move-to-front never runs.
    let mut rng = Pcg32::seed_from_u64(7);
    let mut reference = RefFifo::new(4, Replacement::Lru);
    let mut moved = 0;
    for _ in 0..2000 {
        let ops = operands(&mut rng);
        if rng.gen_bool(0.5) {
            reference.insert(ops, 1.0);
        } else {
            let front = reference.entries.front().copied();
            if reference.lookup(&ops, MatchPolicy::Exact, true).is_some()
                && reference.entries.front().copied() != front
            {
                moved += 1;
            }
        }
    }
    assert!(moved > 20, "only {moved} LRU moves");
}
