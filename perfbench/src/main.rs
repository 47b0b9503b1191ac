//! `tce-perfbench` — the repository's benchmark.
//!
//! ```text
//! tce-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! tce-perfbench --stability [--reps R] [--seconds S] [--seed N] [--workload NAME]
//! tce-perfbench --write-expectations | --write-digests
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload; `--trace 1`
//! runs it traced and prints the per-layer metrics.  The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.  Human-readable detail goes to standard error.

use std::process::{Command, ExitCode};
use std::time::Instant;
use tce_perfbench::seq::{self, Op};
use tce_perfbench::stats::{median, quartiles, rank_index};
use tce_perfbench::workloads::{self, Measured, Workload, NAMES};
use tce_perfbench::{layers, spec};

/// Fresh processes that each time one cold set-up before every block of
/// the steady loop and after the last one, so the samples span the run;
/// `setup_s` is the fastest sample.  Every sample repeats the same cold work, so the
/// least-disturbed one is the steadiest reading of its cost; the median
/// followed the share of the run the shared host was slow.
const SETUPS_PER_GAP: usize = 2;

/// Where traces and per-layer tables are written (inside the checkout).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    stability: bool,
    reps: usize,
    write_expectations: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        stability: false,
        reps: 10,
        write_expectations: false,
        write_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--reps" => a.reps = value()?.parse().map_err(|e| format!("bad --reps: {e}"))?,
            "--setup-only" => a.setup_only = true,
            "--stability" => a.stability = true,
            "--write-expectations" => a.write_expectations = true,
            "--write-digests" => a.write_digests = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // One kernel thread everywhere: the exec workloads measured no
    // speed-up from a second thread on the 2-vCPU host, and a second
    // thread made peak RSS spread across runs.
    std::env::set_var("TCE_THREADS", "1");
    let result = parse_args().and_then(|a| {
        if a.write_expectations {
            write_expectations()
        } else if a.write_digests {
            write_digests()
        } else if a.stability {
            stability(&a)
        } else {
            let name = a.workload.clone().ok_or("--workload is required")?;
            if a.setup_only {
                setup_only(&name, a.seed)
            } else if a.trace {
                traced(&name, &a)
            } else {
                untraced(&name, &a)
            }
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tce-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Target length of one block of the sequence, in seconds.
const BLOCK_S: f64 = 2.0;

/// The operation sequence of a run and its block length: whole blocks of
/// about [`BLOCK_S`] seconds, each at least 100 operations (ten samples
/// beyond its p90) and whole cycles of the mix, sized so the loop takes
/// about `seconds × fraction` on this host.
fn sequence(w: &dyn Workload, seed: u64, seconds: f64, fraction: f64) -> (Vec<Op>, usize) {
    let len = seq::cycle_len(w.classes());
    let rate = w.nominal_ops_per_s();
    let block_cycles = ((BLOCK_S * rate / len as f64).round() as usize).max(100usize.div_ceil(len));
    let blocks =
        ((seconds * fraction * rate / (block_cycles * len) as f64).round() as usize).max(1);
    (
        seq::plan(w.classes(), blocks, block_cycles, seed),
        block_cycles * len,
    )
}

/// Time one cold set-up of workload `name` in this process.
fn setup_only(name: &str, seed: u64) -> Result<(), String> {
    let mut w = workloads::build(name, seed)?;
    let t0 = Instant::now();
    w.setup()?;
    let s = t0.elapsed().as_secs_f64();
    w.teardown();
    println!("setup_s {s}");
    Ok(())
}

/// Time one cold set-up in each of `count` fresh processes, one after
/// another.
fn child_setups(name: &str, seed: u64, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..count)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--setup-only",
                    "--workload",
                    name,
                    "--seed",
                    &seed.to_string(),
                ])
                .output()
                .map_err(|e| format!("spawn set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up child failed: {}",
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })
        })
        .collect()
}

/// Latency percentile `p` of `samples` and the class it falls in: the
/// class holding most samples within one percentile rank of it (a rare
/// outlier of another class can sit exactly on the rank).
fn percentile(w: &dyn Workload, samples: &[(f64, usize)], p: f64) -> (f64, &'static str) {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    let at = rank_index(s.len(), p);
    let reach = (s.len() / 100).max(1);
    let mut votes = vec![0usize; w.classes().len()];
    for &(_, class) in &s[at.saturating_sub(reach)..(at + reach + 1).min(s.len())] {
        votes[class] += 1;
    }
    let class = (0..votes.len())
        .max_by_key(|&c| votes[c])
        .unwrap_or(s[at].1);
    (s[at].0, w.classes()[class].name)
}

/// Closed-loop throughput of `samples`: operations over the summed
/// latency divided by the number of concurrent clients.
fn throughput(w: &dyn Workload, samples: &[(f64, usize)]) -> f64 {
    let ms: f64 = samples.iter().map(|s| s.0).sum();
    (samples.len() * w.concurrency()) as f64 / ms * 1e3
}

/// Per-class latency summary: count, min, median, max.
fn class_table(w: &dyn Workload, m: &Measured) -> String {
    let mut out =
        String::from("class                  count      min ms   median ms      max ms\n");
    for (c, spec) in w.classes().iter().enumerate() {
        let v: Vec<f64> = m.samples.iter().filter(|s| s.1 == c).map(|s| s.0).collect();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        out.push_str(&format!(
            "{:<20} {:>7} {:>11.4} {:>11.4} {:>11.4}\n",
            spec.name,
            v.len(),
            lo,
            median(&v),
            hi
        ));
    }
    out
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_failure(m: &Measured) {
    if let Some(f) = &m.first_failure {
        eprintln!("FIRST FAILURE: {f}");
    }
}

/// Latency percentiles and throughput of one stretch of samples.
#[derive(Clone, Copy)]
struct Figures {
    p50: f64,
    p90: f64,
    ops_per_s: f64,
}

impl Figures {
    fn of(w: &dyn Workload, samples: &[(f64, usize)]) -> Self {
        Self {
            p50: percentile(w, samples, 0.5).0,
            p90: percentile(w, samples, 0.9).0,
            ops_per_s: throughput(w, samples),
        }
    }

    fn show(&self) -> String {
        format!(
            "p50 {:.4} ms, p90 {:.4} ms, {:.2} ops/s",
            self.p50, self.p90, self.ops_per_s
        )
    }
}

/// Run `ops`, timing [`SETUPS_PER_GAP`] cold set-ups in fresh processes
/// before each block and after the last, so the set-up samples span the
/// run.  Returns the measurement and the set-up samples.
fn run_with_setups(
    w: &mut dyn Workload,
    name: &str,
    seed: u64,
    ops: &[Op],
    block: usize,
) -> Result<(Measured, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut failure = None;
    let m = w.run(
        ops,
        block,
        &mut || match child_setups(name, seed, SETUPS_PER_GAP) {
            Ok(s) => setups.extend(s),
            Err(e) => {
                failure.get_or_insert(e);
            }
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }
    setups.extend(child_setups(name, seed, SETUPS_PER_GAP)?);
    Ok((m, setups))
}

fn untraced(name: &str, a: &Args) -> Result<(), String> {
    let mut w = workloads::build(name, a.seed)?;
    w.prepare_checks()?;
    w.setup()?;
    w.check_setup()?;
    let (ops, block) = sequence(w.as_ref(), a.seed, a.seconds, 1.0);
    let (m, setups) = run_with_setups(w.as_mut(), name, a.seed, &ops, block)?;
    w.teardown();
    report_failure(&m);
    eprintln!("{}", class_table(w.as_ref(), &m));
    let n = m.samples.len();
    // Every block holds the same operation mix.  Where the program's
    // state stays the same after set-up, each block is a whole
    // measurement of the workload, and the reported figures are the
    // fastest block's: the shared host runs up to 1.8× slower for
    // seconds to minutes at a time, and a run spends anywhere from a
    // fifth to all of its blocks in that state, so whole-run and
    // median-block figures jump with that share (RATIONALE.md).  The
    // median-block and whole-run figures are printed next to them, with
    // a warning when the whole run is further from the fastest block
    // than the bound.  Where the state grows, later blocks do other work
    // than earlier ones, and the whole run is reported.
    let blocks: Vec<Figures> = m
        .samples
        .chunks_exact(block)
        .map(|b| Figures::of(w.as_ref(), b))
        .collect();
    let fastest = blocks
        .iter()
        .max_by(|x, y| x.ops_per_s.total_cmp(&y.ops_per_s))
        .copied()
        .ok_or("no complete block")?;
    let over_blocks = |f: fn(&Figures) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    let median_block = Figures {
        p50: over_blocks(|f| f.p50),
        p90: over_blocks(|f| f.p90),
        ops_per_s: over_blocks(|f| f.ops_per_s),
    };
    let whole = Figures::of(w.as_ref(), &m.samples);
    let (reported, basis) = if w.state_grows() {
        (whole, "whole run")
    } else {
        (fastest, "fastest block")
    };
    let bounds = spec::metrics("end_to_end")?;
    let compared = if w.state_grows() {
        Vec::new()
    } else {
        vec![
            ("op_ms_p50", fastest.p50, whole.p50),
            ("op_ms_p90", fastest.p90, whole.p90),
            ("ops_per_s", fastest.ops_per_s, whole.ops_per_s),
        ]
    };
    for (metric, best, run) in compared {
        let bound = bounds
            .iter()
            .find(|(n, _)| n == metric)
            .and_then(|(_, b)| *b)
            .unwrap_or(0.0);
        if (run - best).abs() > bound * best {
            eprintln!(
                "{name}: WARNING: {metric} of the whole run ({run:.4}) is more than {bound} \
                 away from the fastest block ({best:.4}): part of the run was slower, \
                 from the host or from the program"
            );
        }
    }
    let (_, c50) = percentile(w.as_ref(), &m.samples, 0.5);
    let (_, c90) = percentile(w.as_ref(), &m.samples, 0.9);
    let beyond = block - 1 - rank_index(block, 0.9);
    let block_tp: Vec<String> = blocks
        .iter()
        .map(|f| format!("{:.1}", f.ops_per_s))
        .collect();
    eprintln!(
        "{name}: {n} operations in {} blocks of {block} ({beyond} samples beyond each block's p90); \
         ops/s per block: {}",
        blocks.len(),
        block_tp.join(" ")
    );
    eprintln!(
        "{name}: reported ({basis}): {}; fastest block: {}; median block: {}; whole run: {}",
        reported.show(),
        fastest.show(),
        median_block.show(),
        whole.show()
    );
    eprintln!(
        "{name}: percentile classes: p50 in class `{c50}`, p90 in class `{c90}`; \
         set-up samples {setups:?}"
    );
    let ok = n.saturating_sub(m.failed);
    let metrics = [
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        ("op_ms_p50", reported.p50, "ms"),
        ("op_ms_p90", reported.p90, "ms"),
        ("ops_per_s", reported.ops_per_s, "1/s"),
        (
            "peak_rss_mb",
            m.peak_rss_mb.ok_or("no peak RSS reading")?,
            "MiB",
        ),
        ("ok_ratio", ok as f64 / n.max(1) as f64, "ratio"),
    ];
    println!(
        "{}",
        json_line(m.failed == 0 && n > 0, n, m.failed, &metrics)
    );
    Ok(())
}

fn traced(name: &str, a: &Args) -> Result<(), String> {
    let mut w = workloads::build(name, a.seed)?;
    w.prepare_checks()?;
    w.setup()?;
    w.check_setup()?;
    let (ops, _) = sequence(w.as_ref(), a.seed, a.seconds, 1.0 / 3.0);
    // Pass 0 untraced, passes 1 and 2 traced, each from the same state.
    let m0 = w.run(&ops, ops.len(), &mut || {});
    let mut passes: Vec<(Measured, tce_trace::Trace)> = Vec::new();
    for _ in 0..2 {
        w.reset_pass()?;
        tce_trace::reset();
        tce_trace::set_enabled(true);
        let m = w.run(&ops, ops.len(), &mut || {});
        tce_trace::set_enabled(false);
        passes.push((m, tce_trace::take()));
    }
    w.teardown();
    let failed = m0.failed + passes.iter().map(|p| p.0.failed).sum::<usize>();
    for m in std::iter::once(&m0).chain(passes.iter().map(|p| &p.0)) {
        report_failure(m);
    }
    let first = layers::exact_counts(&passes[0].1, &passes[0].0);
    let second = layers::exact_counts(&passes[1].1, &passes[1].0);
    let mut mismatches = 0u64;
    for ((k, x), (_, y)) in first.iter().zip(&second) {
        if x != y {
            mismatches += 1;
            eprintln!(
                "NONDETERMINISM: `{k}` was {x} in the first traced pass and {y} in the second"
            );
        }
    }
    let (m1, t1) = &passes[0];
    let values = layers::compute(&layers::Pass {
        trace: t1,
        measured: m1,
        ops: ops.len(),
        untraced_s: m0.elapsed_s,
        serve: name == "serve_mix",
        mismatches,
    });
    let table = layers::table(&values);
    eprintln!("{name}: traced pass of {} operations\n{table}", ops.len());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{name}-seed{}", a.seed);
    std::fs::write(
        format!("{stem}-trace.json"),
        trace_head(t1).to_chrome_json(),
    )
    .map_err(|e| format!("write trace: {e}"))?;
    std::fs::write(format!("{stem}-layers.txt"), &table)
        .map_err(|e| format!("write table: {e}"))?;
    let metrics: Vec<(&str, f64, &str)> = layers::METRICS
        .iter()
        .zip(&values)
        .map(|(lm, (_, v))| (lm.name, *v, lm.unit))
        .collect();
    let attempted = 3 * ops.len();
    println!(
        "{}",
        json_line(failed == 0 && mismatches == 0, attempted, failed, &metrics)
    );
    Ok(())
}

/// Operations of the first traced pass the chrome trace file covers
/// (the whole pass would be hundreds of megabytes).
const TRACE_FILE_OPS: usize = 200;

/// The events of `t` up to the end of its first [`TRACE_FILE_OPS`]
/// operations.
fn trace_head(t: &tce_trace::Trace) -> tce_trace::Trace {
    use tce_trace::EventKind;
    let mut op_ends: Vec<u64> = t
        .events
        .iter()
        .filter(|e| e.name == "bench.op")
        .filter_map(|e| match e.kind {
            EventKind::Span { end_ns, .. } => Some(end_ns),
            EventKind::Counter { .. } => None,
        })
        .collect();
    op_ends.sort_unstable();
    let cutoff = op_ends
        .get(TRACE_FILE_OPS.min(op_ends.len()).saturating_sub(1))
        .copied()
        .unwrap_or(u64::MAX);
    tce_trace::Trace {
        events: t
            .events
            .iter()
            .filter(|e| match e.kind {
                EventKind::Span { end_ns, .. } => end_ns <= cutoff,
                EventKind::Counter { at_ns, .. } => at_ns <= cutoff,
            })
            .cloned()
            .collect(),
        mem_peak_bytes: t.mem_peak_bytes,
    }
}

/// Run every workload `reps` times in fresh processes, alternating the
/// order, and print each metric's median, quartiles and spread next to
/// its bound.
fn stability(a: &Args) -> Result<(), String> {
    use tce_core::calib::json::Json;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bounds = spec::metrics("end_to_end")?;
    let mut values: Vec<Vec<(String, f64)>> = vec![Vec::new(); NAMES.len()];
    let mut classes: Vec<Vec<String>> = vec![Vec::new(); NAMES.len()];
    let chosen: Vec<usize> = (0..NAMES.len())
        .filter(|&i| a.workload.as_deref().is_none_or(|w| w == NAMES[i]))
        .collect();
    for rep in 0..a.reps {
        let mut order = chosen.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let seed = a.seed + rep as u64;
            let out = Command::new(&exe)
                .args(["--workload", NAMES[wi], "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            let stderr = String::from_utf8_lossy(&out.stderr);
            let last = String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .unwrap_or_default()
                .to_string();
            let doc = Json::parse(&last)
                .map_err(|e| format!("{} seed {seed}: no result ({e}): {stderr}", NAMES[wi]))?;
            if !matches!(doc.get("correct"), Some(Json::Bool(true))) {
                return Err(format!("{} seed {seed}: incorrect: {stderr}", NAMES[wi]));
            }
            for (k, v) in doc.get("metrics").ok_or("no metrics")?.entries()? {
                values[wi].push((k.clone(), v.get_f64("value")?));
            }
            for line in stderr.lines().filter(|l| {
                l.contains("reported (") || l.contains("WARNING") || l.contains("set-up samples")
            }) {
                eprintln!("rep {rep} seed {seed}: {line}");
            }
            let pcls = stderr
                .lines()
                .find_map(|l| l.split("percentile classes: ").nth(1))
                .and_then(|l| l.split(';').next())
                .unwrap_or_default()
                .to_string();
            classes[wi].push(pcls);
        }
    }
    println!(
        "{} runs per workload, {} s each, seeds {}..{}, order alternating per repetition",
        a.reps,
        a.seconds,
        a.seed,
        a.seed + a.reps as u64 - 1
    );
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for &wi in &chosen {
        let name = NAMES[wi];
        let mut keys: Vec<&String> = values[wi].iter().map(|(k, _)| k).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let v: Vec<f64> = values[wi]
                .iter()
                .filter(|(k, _)| k == key)
                .map(|p| p.1)
                .collect();
            let (q1, med, q3) = quartiles(&v);
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == key)
                .and_then(|(_, b)| *b)
                .map_or("-".to_string(), |b| format!("{b}"));
            println!(
                "{name:<12} {key:<12} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>9.4} {:>9.4} {bound:>6}",
                (q3 - q1) / med,
                (hi - lo) / med
            );
        }
        let mut pcls = classes[wi].clone();
        pcls.sort();
        pcls.dedup();
        println!(
            "{name:<12} percentile classes over all runs: {}",
            pcls.join(" | ")
        );
    }
    Ok(())
}

fn write_expectations() -> Result<(), String> {
    for (name, text) in workloads::compile::corpus_sources() {
        println!("{}", workloads::compile::expectation_line(&name, &text)?);
    }
    Ok(())
}

fn write_digests() -> Result<(), String> {
    for prog in workloads::exec::large_programs() {
        let t0 = Instant::now();
        for line in workloads::exec::digest_lines(&prog)? {
            println!("{line}");
        }
        eprintln!(
            "{}: oracle took {:.1} s",
            prog.name,
            t0.elapsed().as_secs_f64()
        );
    }
    Ok(())
}
