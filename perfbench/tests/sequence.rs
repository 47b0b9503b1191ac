//! A seed reproduces its operation sequence and its `ok_ratio`; another
//! seed gives a different order of the same operation mix, so a claim can
//! be re-checked on a seed nobody tuned against.

use tce_perfbench::seq::{plan, Op};
use tce_perfbench::workloads::{build, NAMES};

fn mix(ops: &[Op]) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = ops.iter().map(|o| (o.class, o.variant)).collect();
    v.sort_unstable();
    v
}

#[test]
fn a_seed_reproduces_its_sequence_and_another_seed_reorders_the_same_mix() {
    for name in NAMES {
        let classes = build(name, 7).unwrap().classes().to_vec();
        let again = build(name, 7).unwrap().classes().to_vec();
        assert_eq!(
            classes, again,
            "{name}: class table depends on more than the seed"
        );
        let a = plan(&classes, 2, 3, 7);
        assert_eq!(a, plan(&again, 2, 3, 7), "{name}: seed 7 not reproducible");
        let b = plan(&classes, 2, 3, 8);
        assert_ne!(a, b, "{name}: seeds 7 and 8 gave the same sequence");
        assert_eq!(
            mix(&a),
            mix(&b),
            "{name}: the operation mix changed with the seed"
        );
    }
}

/// Set up, run one cycle of the mix, and return the sequence with the
/// attempted and failed counts.
fn one_cycle(name: &str, seed: u64) -> (Vec<Op>, usize, usize) {
    let mut w = build(name, seed).unwrap();
    w.prepare_checks().unwrap();
    w.setup().unwrap();
    w.check_setup().unwrap();
    let ops = plan(w.classes(), 1, 1, seed);
    let m = w.run(&ops, ops.len(), &mut || {});
    w.teardown();
    if let Some(f) = &m.first_failure {
        eprintln!("{name}: {f}");
    }
    (ops, m.samples.len(), m.failed)
}

#[test]
fn a_seed_reproduces_its_ok_ratio() {
    for name in ["compile_mix", "serve_mix"] {
        let first = one_cycle(name, 11);
        let second = one_cycle(name, 11);
        assert_eq!(first, second, "{name}: seed 11 not reproducible");
        assert_eq!(first.2, 0, "{name}: failed operations on correct code");
        let other = one_cycle(name, 12);
        assert_ne!(
            first.0, other.0,
            "{name}: seeds 11 and 12 gave the same sequence"
        );
        assert_eq!(
            (other.1, other.2),
            (first.1, 0),
            "{name}: ok_ratio changed with the seed"
        );
    }
}
