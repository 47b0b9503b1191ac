//! The benchmark's input programs.  The four example specifications are
//! copied into `data/specs/` so the benchmark's inputs stay fixed when the
//! repository's examples change.

use tce_fuzz::{gen_case, GenConfig};

/// `examples/specs/ccsd_section2.tce`.
pub const CCSD_SECTION2: &str = include_str!("../data/specs/ccsd_section2.tce");
/// `examples/specs/cc_doubles.tce` (V = 6, O = 3).
pub const CC_DOUBLES: &str = include_str!("../data/specs/cc_doubles.tce");
/// `examples/specs/a3a_energy.tce` (V = 6, O = 3).
pub const A3A_ENERGY: &str = include_str!("../data/specs/a3a_energy.tce");
/// `examples/specs/matrix_chain.tce`.
pub const MATRIX_CHAIN: &str = include_str!("../data/specs/matrix_chain.tce");

/// The committed calibration profile the `calib` compile config loads
/// (a fixed file, never a live `tce calibrate`).
pub const CALIB_PROFILE: &str = include_str!("../data/calib_profile.json");

/// The §2 example at extent `n`.
#[must_use]
pub fn section2(n: usize) -> String {
    tce_core::scenarios::section2_source(n)
}

fn with_ranges(src: &str, v: usize, o: usize) -> String {
    src.replace("range V = 6;", &format!("range V = {v};"))
        .replace("range O = 3;", &format!("range O = {o};"))
}

/// `cc_doubles` at virtual extent `v` and occupied extent `o`.
#[must_use]
pub fn cc_doubles(v: usize, o: usize) -> String {
    with_ranges(CC_DOUBLES, v, o)
}

/// Campaign seed of the fuzz-generated part of the compile corpus.
pub const FUZZ_CAMPAIGN: u64 = 0x7ce_b3e7;

/// Size of the fuzz pool the compile corpus draws from; the committed
/// compile expectations cover every pool entry.
pub const FUZZ_POOL: usize = 32;

/// Source text of fuzz pool case `case` (`GenConfig::extended` shape).
#[must_use]
pub fn fuzz_case(case: usize) -> String {
    tce_core::lang::unparse(&gen_case(FUZZ_CAMPAIGN, case, &GenConfig::extended()))
}
