//! `exec_large` and `exec_small`: closed loops over the executors of
//! precompiled programs at one kernel thread.
//!
//! `exec_large` runs GEMM-sized programs on the tree executor, where GETT
//! pack, kernel and permute dominate.  `exec_small` interleaves small
//! programs across every executor the pipeline exposes (tree with the
//! sequential and the task-graph schedule, fused, distributed on a 2×2
//! grid), where per-call overhead, fused slicing, integral evaluation and
//! sharded redistribution dominate.

use super::{closed_loop, split_table, ClassTable, Measured, Workload};
use crate::corpus;
use crate::oracle::{self, Digest};
use crate::seq::{ClassSpec, Op};
use std::collections::HashMap;
use tce_core::dist::Machine;
use tce_core::ir::rng::split_seed;
use tce_core::ir::TensorId;
use tce_core::par::ProcessorGrid;
use tce_core::serve::{bind_functions, bind_random_inputs};
use tce_core::tensor::{IntegralFn, Tensor};
use tce_core::{
    synthesize, DistExecSummary, ExecError, ExecOptions, FusedExecSummary, Schedule, Synthesis,
    SynthesisConfig,
};

/// Oracle digests of the `exec_large` outputs, produced at the seed
/// commit by `--write-digests` (the einsum oracle node by node):
/// `program tensor len sum abs_sum weighted`.
const DIGESTS: &str = include_str!("../../data/exec_large_digests.txt");

/// Data seed of the `exec_large` inputs: fixed, because their oracle
/// answers are committed digests.
pub const LARGE_DATA_SEED: u64 = 1;

/// Which executor an operation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `Synthesis::execute_opts` with `Schedule::Seq`.
    Seq,
    /// `Synthesis::execute_opts` with `Schedule::Graph`.
    Graph,
    /// `Synthesis::execute_fused_opts`.
    Fused,
    /// `Synthesis::execute_distributed_opts` (2×2 grid).
    Dist,
}

/// One program of an exec workload.
#[derive(Debug, Clone)]
pub struct ExecProg {
    /// Name.
    pub name: &'static str,
    /// Source text.
    pub text: String,
    /// Compiled for the 2×2 grid.
    pub grid: bool,
}

impl ExecProg {
    fn new(name: &'static str, text: String, grid: bool) -> Self {
        Self { name, text, grid }
    }

    fn config(&self) -> SynthesisConfig {
        SynthesisConfig {
            machine: self
                .grid
                .then(|| Machine::new(ProcessorGrid::new(vec![2, 2]))),
            ..SynthesisConfig::default()
        }
    }
}

/// The GEMM-sized programs of `exec_large`.
#[must_use]
pub fn large_programs() -> Vec<ExecProg> {
    vec![
        ExecProg::new("cc_doubles_32_8", corpus::cc_doubles(32, 8), false),
        ExecProg::new("s2_n20", corpus::section2(20), false),
        ExecProg::new("s2_n24", corpus::section2(24), false),
    ]
}

/// What an operation's outputs are checked against.
enum Expect {
    /// Einsum-oracle outputs computed in this process.
    Oracle(HashMap<TensorId, Tensor>),
    /// Committed einsum-oracle digests, by tensor name.
    Digests(Vec<(String, Digest)>),
}

/// A compiled program with its bound inputs.
struct Bound {
    syn: Synthesis,
    owned: Vec<(TensorId, Tensor)>,
    funcs: HashMap<String, IntegralFn>,
}

impl Bound {
    fn compile(prog: &ExecProg, data_seed: u64) -> Result<Self, String> {
        let syn =
            synthesize(&prog.text, &prog.config()).map_err(|e| format!("{}: {e}", prog.name))?;
        let owned = bind_random_inputs(&syn, data_seed);
        let funcs = bind_functions(&syn, data_seed);
        Ok(Self { syn, owned, funcs })
    }

    fn inputs(&self) -> HashMap<TensorId, &Tensor> {
        self.owned.iter().map(|(id, t)| (*id, t)).collect()
    }
}

/// The result of one operation.
enum Out {
    Tree(Result<HashMap<TensorId, Tensor>, ExecError>),
    Fused(Result<FusedExecSummary, ExecError>),
    Dist(Result<DistExecSummary, ExecError>),
}

/// An exec workload.
pub struct ExecWorkload {
    classes: Vec<ClassSpec>,
    variants: Vec<Vec<(usize, Executor)>>,
    progs: Vec<ExecProg>,
    data_seeds: Vec<u64>,
    expect: Vec<Expect>,
    /// Sequential-schedule outputs, the bitwise reference of the graph
    /// schedule.
    seq_ref: Vec<Option<HashMap<TensorId, Tensor>>>,
    bound: Vec<Bound>,
    /// Outputs of the set-up's cold pass, checked after the clock stops.
    cold: Vec<(usize, Executor, Out)>,
    nominal: f64,
}

fn parse_digests() -> Result<HashMap<String, Vec<(String, Digest)>>, String> {
    let mut out: HashMap<String, Vec<(String, Digest)>> = HashMap::new();
    for line in DIGESTS.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad digest line `{line}`");
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
        out.entry(f[0].to_string()).or_default().push((
            f[1].to_string(),
            Digest {
                len: f[2].parse().map_err(|_| bad())?,
                sum: num(f[3])?,
                abs_sum: num(f[4])?,
                weighted: num(f[5])?,
            },
        ));
    }
    Ok(out)
}

/// Digest lines of one `exec_large` program, computed with the einsum
/// oracle (slow: minutes for §2 at N = 24).
///
/// # Errors
/// The program does not compile or the oracle fails.
pub fn digest_lines(prog: &ExecProg) -> Result<Vec<String>, String> {
    let b = Bound::compile(prog, LARGE_DATA_SEED)?;
    let want = oracle::eval_synthesis(&b.syn, &b.inputs(), &b.funcs)?;
    let mut ids: Vec<&TensorId> = want.keys().collect();
    ids.sort_by_key(|id| id.0);
    Ok(ids
        .into_iter()
        .map(|id| {
            let d = oracle::digest(&want[id]);
            format!(
                "{} {} {} {:e} {:e} {:e}",
                prog.name,
                b.syn.program.tensors.get(*id).name,
                d.len,
                d.sum,
                d.abs_sum,
                d.weighted
            )
        })
        .collect())
}

impl ExecWorkload {
    fn build(
        table: ClassTable<(usize, Executor)>,
        progs: Vec<ExecProg>,
        data_seeds: Vec<u64>,
        expect: Vec<Expect>,
        nominal: f64,
    ) -> Self {
        let (classes, variants) = split_table(table);
        Self {
            classes,
            variants,
            seq_ref: vec![None; progs.len()],
            progs,
            data_seeds,
            expect,
            bound: Vec::new(),
            cold: Vec::new(),
            nominal,
        }
    }

    /// `exec_large`: §2 at N = 20 and 24 and `cc_doubles` at V/O = 32/8
    /// on the tree executor; the fixed inputs are checked against
    /// committed oracle digests.
    ///
    /// # Errors
    /// Missing committed digests.
    pub fn large(_seed: u64) -> Result<Self, String> {
        let progs = large_programs();
        let mut digests = parse_digests()?;
        let expect = progs
            .iter()
            .map(|p| {
                digests
                    .remove(p.name)
                    .map(Expect::Digests)
                    .ok_or_else(|| format!("no committed digests for `{}`", p.name))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let table = vec![
            ("cc_doubles_32_8", 4, vec![(0, Executor::Seq)]),
            ("s2_n20", 4, vec![(1, Executor::Seq)]),
            ("s2_n24", 2, vec![(2, Executor::Seq)]),
        ];
        let seeds = vec![LARGE_DATA_SEED; progs.len()];
        Ok(Self::build(table, progs, seeds, expect, 36.0))
    }

    /// `exec_small`: small programs across every executor, inputs drawn
    /// from `seed`, each output checked against the einsum oracle.
    ///
    /// # Errors
    /// Never; the signature matches the other workloads.
    pub fn small(seed: u64) -> Result<Self, String> {
        use Executor::{Dist, Fused, Graph, Seq};
        let progs = vec![
            ExecProg::new("s2_n6", corpus::section2(6), false),
            ExecProg::new("cc_doubles_6_3", corpus::CC_DOUBLES.to_string(), false),
            ExecProg::new("matrix_chain", corpus::MATRIX_CHAIN.to_string(), false),
            ExecProg::new("a3a_6_3", corpus::A3A_ENERGY.to_string(), false),
            ExecProg::new("s2_n12_grid", corpus::section2(12), true),
            ExecProg::new("cc_doubles_16_8_grid", corpus::cc_doubles(16, 8), true),
        ];
        let data_seeds: Vec<u64> = (0..progs.len())
            .map(|i| split_seed(seed ^ (i as u64 + 1)))
            .collect();
        // Weights put the p50 and the p90 inside `heavy`, on the A3A tree
        // runs and on the fused A3A runs: its compute-bound operations
        // are the least disturbed by the host.  The fused §2 runs, which
        // the host slows by up to 1.8×, are in `fused_small`, a class no
        // percentile falls in.
        let table = vec![
            (
                "tree",
                4,
                vec![
                    (0, Seq),
                    (0, Graph),
                    (1, Seq),
                    (1, Graph),
                    (2, Seq),
                    (2, Graph),
                ],
            ),
            ("fused_small", 1, vec![(2, Fused), (1, Fused), (0, Fused)]),
            ("dist_2x2", 3, vec![(4, Dist), (5, Dist)]),
            ("heavy", 12, vec![(3, Seq), (3, Graph), (3, Fused)]),
        ];
        Ok(Self::build(table, progs, data_seeds, Vec::new(), 230.0))
    }

    fn exec(&self, prog: usize, executor: Executor) -> Out {
        let b = &self.bound[prog];
        let inputs = b.inputs();
        let one = ExecOptions::with_threads(1);
        match executor {
            Executor::Seq => Out::Tree(b.syn.execute_opts(&inputs, &b.funcs, &one)),
            Executor::Graph => Out::Tree(b.syn.execute_opts(
                &inputs,
                &b.funcs,
                &one.with_schedule(Schedule::Graph),
            )),
            Executor::Fused => Out::Fused(b.syn.execute_fused_opts(&inputs, &b.funcs, &one)),
            Executor::Dist => Out::Dist(b.syn.execute_distributed_opts(&inputs, &b.funcs, &one)),
        }
    }

    fn check(
        &self,
        prog: usize,
        executor: Executor,
        out: Out,
        m: &mut Measured,
    ) -> Result<(), String> {
        let name = self.progs[prog].name;
        let syn = &self.bound[prog].syn;
        let flops: u128 = syn.plans.iter().map(|p| p.tree_ops).sum();
        m.count("exec.flops", u64::try_from(flops).unwrap_or(u64::MAX));
        let outputs = match out {
            Out::Tree(r) => {
                let outputs = r.map_err(|e| format!("{name}: {e}"))?;
                if let Some(reference) = &self.seq_ref[prog] {
                    bitwise_equal(syn, &outputs, reference).map_err(|e| {
                        format!("{name}: {executor:?} schedule not bitwise equal to seq: {e}")
                    })?;
                }
                outputs
            }
            Out::Fused(r) => {
                let s = r.map_err(|e| format!("{name}: {e}"))?;
                if !s.peak_matches_model() {
                    return Err(format!(
                        "{name}: fused peak {} != memmin model {}",
                        s.peak_live_elements, s.modeled_elements
                    ));
                }
                m.count("fused.func_evals", s.func_evals);
                m.count("fused.sliced_contractions", s.sliced_contractions);
                m.count_max(
                    "fused.peak_live_elements",
                    u64::try_from(s.peak_live_elements).unwrap_or(u64::MAX),
                );
                s.outputs
            }
            Out::Dist(r) => {
                let s = r.map_err(|e| format!("{name}: {e}"))?;
                if s.moved_elements != s.predicted_move_elements
                    || s.reduce_words != s.predicted_reduce_words
                {
                    return Err(format!(
                        "{name}: moved {} / reduced {} against predicted {} / {}",
                        s.moved_elements,
                        s.reduce_words,
                        s.predicted_move_elements,
                        s.predicted_reduce_words
                    ));
                }
                m.count(
                    "dist.moved_elements",
                    u64::try_from(s.moved_elements).unwrap_or(u64::MAX),
                );
                s.outputs
            }
        };
        match &self.expect[prog] {
            Expect::Oracle(want) => oracle::outputs_match(syn, &outputs, want),
            Expect::Digests(want) => {
                for (tensor, d) in want {
                    let got = outputs
                        .iter()
                        .find(|(id, _)| &syn.program.tensors.get(**id).name == tensor)
                        .map(|(_, t)| oracle::digest(t))
                        .ok_or_else(|| format!("{name}: output `{tensor}` missing"))?;
                    if !oracle::digests_match(&got, d) {
                        return Err(format!(
                            "{name}: `{tensor}` digest {got:?} differs from the oracle's {d:?}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

fn bitwise_equal(
    syn: &Synthesis,
    got: &HashMap<TensorId, Tensor>,
    want: &HashMap<TensorId, Tensor>,
) -> Result<(), String> {
    for (id, w) in want {
        let name = &syn.program.tensors.get(*id).name;
        let g = got.get(id).ok_or_else(|| format!("`{name}` missing"))?;
        let same = g.shape() == w.shape()
            && g.data()
                .iter()
                .zip(w.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!("`{name}` differs"));
        }
    }
    Ok(())
}

impl Workload for ExecWorkload {
    fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    fn nominal_ops_per_s(&self) -> f64 {
        self.nominal
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        if self.expect.is_empty() {
            for (p, &ds) in self.progs.iter().zip(&self.data_seeds) {
                let b = Bound::compile(p, ds)?;
                let want = oracle::eval_synthesis(&b.syn, &b.inputs(), &b.funcs)?;
                self.expect.push(Expect::Oracle(want));
            }
        }
        Ok(())
    }

    fn setup(&mut self) -> Result<(), String> {
        // Compile and bind every program, then one cold pass over every
        // (program, executor) pair of the mix, which fills the GETT plan
        // cache and the buffer pool.
        self.bound = self
            .progs
            .iter()
            .zip(&self.data_seeds)
            .map(|(p, &ds)| Bound::compile(p, ds))
            .collect::<Result<_, _>>()?;
        let mut pairs: Vec<(usize, Executor)> = self.variants.iter().flatten().copied().collect();
        // Sequential first: its outputs are the graph schedule's bitwise
        // reference.
        pairs.sort_by_key(|&(_, e)| e != Executor::Seq);
        self.cold = pairs
            .into_iter()
            .map(|(p, e)| (p, e, self.exec(p, e)))
            .collect();
        Ok(())
    }

    fn check_setup(&mut self) -> Result<(), String> {
        self.seq_ref = vec![None; self.progs.len()];
        for (p, e, out) in std::mem::take(&mut self.cold) {
            let seq_outputs = match (&out, e) {
                (Out::Tree(Ok(o)), Executor::Seq) => Some(o.clone()),
                _ => None,
            };
            self.check(p, e, out, &mut Measured::default())
                .map_err(|err| format!("set-up: {err}"))?;
            if let Some(o) = seq_outputs {
                self.seq_ref[p] = Some(o);
            }
        }
        Ok(())
    }

    fn run(&mut self, ops: &[Op], block: usize, before_block: &mut dyn FnMut()) -> Measured {
        let this = &*self;
        closed_loop(
            ops,
            &this.classes,
            block,
            before_block,
            |op| {
                let (p, e) = this.variants[op.class][op.variant];
                this.exec(p, e)
            },
            |op, out, m| {
                let (p, e) = this.variants[op.class][op.variant];
                this.check(p, e, out, m)
            },
        )
    }
}
