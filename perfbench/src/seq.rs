//! Seeded operation sequences.
//!
//! A workload is a fixed mix of operation classes.  Every run of a
//! workload executes the same multiset of operations — each class exactly
//! `weight × cycles` times, spread round-robin over the class's variants,
//! in blocks that each hold whole cycles — so the class at each latency
//! percentile rank and the `ok_ratio` denominator are identical in every
//! run and in every block.  The seed decides the order of
//! the operations and the per-operation seed each one carries (data seeds,
//! request seeds).

use tce_core::ir::rng::{split_seed, Rng};

/// One class of operation and its share of every cycle of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Class label, printed next to the percentile it holds.
    pub name: &'static str,
    /// Operations of this class per cycle.
    pub weight: usize,
    /// Number of variants (programs, configs) the class rotates through.
    pub variants: usize,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's class table.
    pub class: usize,
    /// Which variant of the class.
    pub variant: usize,
    /// Per-operation seed drawn from the run seed.
    pub seed: u64,
}

/// The interleaved operation sequence: `blocks` blocks, each holding
/// exactly `block_cycles` cycles of `classes` in its own seeded order, so
/// every block has the same operation mix.
#[must_use]
pub fn plan(classes: &[ClassSpec], blocks: usize, block_cycles: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(split_seed(seed));
    let mut ops = Vec::new();
    for _ in 0..blocks {
        let start = ops.len();
        for (c, spec) in classes.iter().enumerate() {
            for k in 0..spec.weight * block_cycles {
                ops.push(Op {
                    class: c,
                    variant: k % spec.variants.max(1),
                    seed: 0,
                });
            }
        }
        let block = &mut ops[start..];
        for i in (1..block.len()).rev() {
            let j = rng.usize_in(0..i + 1);
            block.swap(i, j);
        }
        for op in block.iter_mut() {
            op.seed = rng.next_u64();
        }
    }
    ops
}

/// Operations in one cycle of the mix.
#[must_use]
pub fn cycle_len(classes: &[ClassSpec]) -> usize {
    classes.iter().map(|c| c.weight).sum()
}
