//! `compile_mix`: a closed loop over `tce_lang::compile` +
//! `synthesize_program`, one compile configuration per operation.  Nothing
//! executes; the compiler stages do all of the work.

use super::{closed_loop, split_table, ClassTable, Measured, Workload};
use crate::corpus;
use crate::seq::{ClassSpec, Op};
use std::collections::HashMap;
use tce_core::calib::CostRates;
use tce_core::dist::Machine;
use tce_core::ir::rng::{split_seed, Rng};
use tce_core::locality::MemoryHierarchy;
use tce_core::par::ProcessorGrid;
use tce_core::{synthesize_program, Synthesis, SynthesisConfig, SynthesisError};

/// Committed facts about every corpus program, produced at the seed
/// commit by `--write-expectations`: `name opmin_ops memmin_elements
/// tight_feasible`.  A tie-break cannot change any of them.
const EXPECTATIONS: &str = include_str!("../../data/compile_expect.txt");

/// Compile configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// No memory limit, no cache, sequential.
    Default,
    /// Memory limit at half the memmin optimum: space-time (and the
    /// Fig. 5 feedback loop) engages, and the plan must fit.
    Tight,
    /// The same limit on a program where no configuration fits: the
    /// typed error is the expected outcome.
    Infeasible,
    /// Cache blocking (locality stage) with a 1024-element cache.
    Cache,
    /// Distribution over a 2×2 grid.
    Grid,
    /// The committed calibration profile with cache blocking: the rated
    /// cost paths of space-time, locality and distribution.
    Calib,
}

/// One corpus program with its committed expectations.
#[derive(Debug, Clone)]
pub struct Prog {
    /// Corpus name.
    pub name: String,
    /// Source text.
    pub text: String,
    /// Σ tree_ops of the op-minimal trees.
    pub opmin_ops: u128,
    /// Largest memmin optimum over the program's terms (elements).
    pub memmin: u128,
    /// Whether a limit of `memmin / 2` admits a plan.
    pub tight_feasible: bool,
}

impl Prog {
    fn tight_limit(&self) -> u128 {
        self.memmin / 2
    }
}

/// Every program the corpus can draw from, without expectations
/// (`--write-expectations` computes them).
#[must_use]
pub fn corpus_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vec![
        ("s2_spec".into(), corpus::CCSD_SECTION2.into()),
        ("cc_doubles".into(), corpus::CC_DOUBLES.into()),
        ("a3a".into(), corpus::A3A_ENERGY.into()),
        ("matrix_chain".into(), corpus::MATRIX_CHAIN.into()),
    ];
    for n in [8, 12, 16] {
        out.push((format!("s2_n{n}"), corpus::section2(n)));
    }
    for c in 0..corpus::FUZZ_POOL {
        out.push((format!("fuzz{c}"), corpus::fuzz_case(c)));
    }
    out
}

/// Compute the expectation line of one program (the seed commit's
/// answers, committed so later commits are checked against them).
///
/// # Errors
/// The program does not compile under the default config.
pub fn expectation_line(name: &str, text: &str) -> Result<String, String> {
    let syn = compile(text, &SynthesisConfig::default()).map_err(|e| format!("{name}: {e}"))?;
    let opmin: u128 = syn.plans.iter().map(|p| p.tree_ops).sum();
    let memmin = syn.plans.iter().map(|p| p.memmin.memory).max().unwrap_or(0);
    let tight = SynthesisConfig {
        memory_limit: memmin / 2,
        ..SynthesisConfig::default()
    };
    let feasible = compile(text, &tight).is_ok();
    Ok(format!("{name} {opmin} {memmin} {feasible}"))
}

fn parse_expectations() -> Result<HashMap<String, (u128, u128, bool)>, String> {
    let mut out = HashMap::new();
    for line in EXPECTATIONS.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad expectation line `{line}`");
        if f.len() != 4 {
            return Err(bad());
        }
        out.insert(
            f[0].to_string(),
            (
                f[1].parse().map_err(|_| bad())?,
                f[2].parse().map_err(|_| bad())?,
                f[3].parse().map_err(|_| bad())?,
            ),
        );
    }
    Ok(out)
}

/// Front end then pipeline, each in a benchmark span.
fn compile(text: &str, cfg: &SynthesisConfig) -> Result<Synthesis, SynthesisError> {
    let program = {
        let _s = tce_trace::span("bench.lang");
        tce_core::lang::compile(text)?
    };
    let _s = tce_trace::span("bench.synthesize");
    synthesize_program(program, cfg)
}

/// The `compile_mix` workload.
pub struct CompileMix {
    classes: Vec<ClassSpec>,
    /// Per class: the (corpus program, config) pairs it rotates through.
    variants: Vec<Vec<(usize, Config)>>,
    progs: Vec<Prog>,
    /// Results of the set-up's cold pass, checked after the clock stops.
    cold: Vec<(usize, Config, Result<Synthesis, SynthesisError>)>,
    rates: CostRates,
}

impl CompileMix {
    /// The corpus: fixed programs plus a seeded draw from the fuzz pool.
    ///
    /// # Errors
    /// Missing or malformed committed expectations.
    pub fn new(seed: u64) -> Result<Self, String> {
        let expect = parse_expectations()?;
        let mut progs = Vec::new();
        for (name, text) in corpus_sources() {
            let &(opmin_ops, memmin, tight_feasible) = expect
                .get(&name)
                .ok_or_else(|| format!("no committed expectation for `{name}`"))?;
            progs.push(Prog {
                name,
                text,
                opmin_ops,
                memmin,
                tight_feasible,
            });
        }
        let idx = |n: &str| progs.iter().position(|p| p.name == n).expect("corpus name");
        let with = |v: &[usize], c: Config| -> Vec<(usize, Config)> {
            v.iter().map(|&p| (p, c)).collect()
        };
        // Seeded draw from the fuzz pool: 8 programs compile under the
        // default config, 4 of the infeasible ones under their limit.
        let mut rng = Rng::new(split_seed(seed ^ 0xc0_3b11e));
        let mut fuzz: Vec<usize> = (0..progs.len())
            .filter(|&i| progs[i].name.starts_with("fuzz"))
            .collect();
        for i in (1..fuzz.len()).rev() {
            fuzz.swap(i, rng.usize_in(0..i + 1));
        }
        let mut opmin = vec![
            idx("s2_n16"),
            idx("cc_doubles"),
            idx("a3a"),
            idx("matrix_chain"),
        ];
        opmin.extend(fuzz.iter().take(8));
        let infeasible: Vec<usize> = fuzz
            .iter()
            .copied()
            .filter(|&i| !progs[i].tight_feasible && progs[i].memmin > 0)
            .take(4)
            .collect();
        let spacetime = vec![idx("s2_spec"), idx("s2_n8"), idx("s2_n12"), idx("s2_n16")];
        let grid = vec![idx("s2_spec"), idx("s2_n8"), idx("s2_n12"), idx("a3a")];
        let heavy = vec![idx("cc_doubles"), idx("a3a")];
        for &i in spacetime.iter() {
            if !progs[i].tight_feasible {
                return Err(format!("`{}` is expected feasible", progs[i].name));
            }
        }
        // Weights put the p50 in the middle of `spacetime` and the p90 on
        // the A3A `locality` compiles, above every `grid` compile.
        let table: ClassTable<(usize, Config)> = vec![
            ("opmin", 10, with(&opmin, Config::Default)),
            ("infeasible", 2, with(&infeasible, Config::Infeasible)),
            ("spacetime", 14, with(&spacetime, Config::Tight)),
            ("grid", 5, with(&grid, Config::Grid)),
            (
                "locality",
                9,
                [with(&heavy, Config::Cache), with(&heavy, Config::Calib)].concat(),
            ),
        ];
        let profile = tce_core::calib::Profile::from_json(corpus::CALIB_PROFILE)?;
        let (classes, variants) = split_table(table);
        Ok(Self {
            classes,
            variants,
            progs,
            cold: Vec::new(),
            rates: profile.rates(tce_core::tensor::kernels::active().name()),
        })
    }

    fn config(&self, kind: Config, prog: &Prog) -> SynthesisConfig {
        let cache = |c: u128| SynthesisConfig {
            cache_elements: Some(c),
            hierarchy: MemoryHierarchy::cache_and_disk(c, 1 << 30),
            ..SynthesisConfig::default()
        };
        match kind {
            Config::Default => SynthesisConfig::default(),
            Config::Tight | Config::Infeasible => SynthesisConfig {
                memory_limit: prog.tight_limit(),
                ..SynthesisConfig::default()
            },
            Config::Cache => cache(1024),
            Config::Grid => SynthesisConfig {
                machine: Some(Machine::new(ProcessorGrid::new(vec![2, 2]))),
                ..SynthesisConfig::default()
            },
            Config::Calib => SynthesisConfig {
                calibration: Some(self.rates.clone()),
                ..cache(1024)
            },
        }
    }

    fn check(
        kind: Config,
        prog: &Prog,
        limit: u128,
        out: Result<Synthesis, SynthesisError>,
        m: &mut Measured,
    ) -> Result<(), String> {
        let syn = match (kind, out) {
            (Config::Infeasible, Err(SynthesisError::Stage(_))) => return Ok(()),
            (Config::Infeasible, Ok(_)) => {
                return Err(format!("`{}` fit an infeasible limit {limit}", prog.name))
            }
            (_, Err(e)) => return Err(format!("`{}`: unexpected error: {e}", prog.name)),
            (_, Ok(s)) => s,
        };
        let ops: u128 = syn.plans.iter().map(|p| p.tree_ops).sum();
        let ranked = syn.plans.iter().filter(|p| p.tree_rank > 0).count() as u64;
        m.count("opmin.feedback_rank_gt0", ranked);
        let engaged = syn.plans.iter().filter(|p| p.spacetime.is_some()).count() as u64;
        m.count("spacetime.engaged", engaged);
        if kind == Config::Tight {
            for p in &syn.plans {
                let memory = p
                    .spacetime
                    .as_ref()
                    .map_or(p.memmin.memory, |(_, t)| t.memory);
                if memory > limit {
                    return Err(format!(
                        "`{}` term {}.{} needs {memory} elements over limit {limit}",
                        prog.name, p.stmt_index, p.term_index
                    ));
                }
            }
            if ops < prog.opmin_ops || (ranked == 0 && ops != prog.opmin_ops) {
                return Err(format!(
                    "`{}`: {ops} ops against the op-minimal {}",
                    prog.name, prog.opmin_ops
                ));
            }
            return Ok(());
        }
        if ops != prog.opmin_ops || ranked != 0 {
            return Err(format!(
                "`{}`: {ops} ops (rank>0 plans: {ranked}), committed op-minimal {}",
                prog.name, prog.opmin_ops
            ));
        }
        if kind == Config::Grid && syn.plans.iter().any(|p| p.distribution.is_none()) {
            return Err(format!("`{}`: a term has no distribution plan", prog.name));
        }
        Ok(())
    }
}

impl Workload for CompileMix {
    fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    fn nominal_ops_per_s(&self) -> f64 {
        225.0
    }

    fn setup(&mut self) -> Result<(), String> {
        // One cold pass over every (program, config) pair of the mix.
        self.cold = self
            .variants
            .iter()
            .flatten()
            .map(|&(p, kind)| {
                let prog = &self.progs[p];
                (p, kind, compile(&prog.text, &self.config(kind, prog)))
            })
            .collect();
        Ok(())
    }

    fn check_setup(&mut self) -> Result<(), String> {
        for (p, kind, out) in std::mem::take(&mut self.cold) {
            let prog = &self.progs[p];
            Self::check(
                kind,
                prog,
                prog.tight_limit(),
                out,
                &mut Measured::default(),
            )
            .map_err(|e| format!("set-up: {e}"))?;
        }
        Ok(())
    }

    fn run(&mut self, ops: &[Op], block: usize, before_block: &mut dyn FnMut()) -> Measured {
        let this = &*self;
        let cfgs: Vec<Vec<SynthesisConfig>> = this
            .variants
            .iter()
            .map(|v| {
                v.iter()
                    .map(|&(p, kind)| this.config(kind, &this.progs[p]))
                    .collect()
            })
            .collect();
        closed_loop(
            ops,
            &this.classes,
            block,
            before_block,
            |op| {
                let (p, _) = this.variants[op.class][op.variant];
                compile(&this.progs[p].text, &cfgs[op.class][op.variant])
            },
            |op, out, m| {
                let (p, kind) = this.variants[op.class][op.variant];
                let prog = &this.progs[p];
                Self::check(kind, prog, prog.tight_limit(), out, m)
            },
        )
    }
}
