//! `serve_mix`: an in-process `tce_serve::Server` with the pipeline
//! handler and 2 workers, driven closed-loop by two client threads, each
//! on one persistent connection with its own disjoint request seeds.

use super::{Measured, Workload};
use crate::corpus;
use crate::seq::{ClassSpec, Op};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tce_core::serve::{
    bind_functions, bind_random_inputs, format_results, parse_run_options, PipelineHandler,
};
use tce_core::serving::client::Client;
use tce_core::serving::protocol::format_run;
use tce_core::serving::{escape, ServeConfig, Server, ServerHandle};
use tce_core::{synthesize, ExecOptions, Synthesis};

/// Client threads (each one persistent connection).
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Synthesis-cache capacity: large enough that the run's working set
/// (including every never-seen text) fits without eviction, so hit and
/// miss counts repeat exactly.
const SYNTH_CAP: usize = 4096;
/// Hot (program, seed) keys per client per working-set program.
const HOT_SEEDS: u64 = 4;

/// The `serve_mix` workload.
pub struct ServeMix {
    classes: Vec<ClassSpec>,
    /// Working-set programs of the `memo_hit` and `exec` classes.
    working: Vec<String>,
    /// Base program of the never-seen texts (A3A, compiled under a memory
    /// limit at half its memmin optimum, so space-time engages).
    fresh_base: String,
    /// Programs of the expected-error requests.
    err_programs: Vec<String>,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
}

/// One request of the stream.
#[derive(Debug, Clone)]
struct Req {
    program: String,
    opts: Vec<(String, String)>,
    /// The reply is expected to be `err …`.
    expect_err: bool,
}

impl Req {
    fn line(&self) -> String {
        let opts: Vec<(&str, &str)> = self
            .opts
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        format_run(&self.program, &opts)
    }
}

fn opts(pairs: &[(&str, String)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect()
}

impl ServeMix {
    /// # Errors
    /// Never; the signature matches the other workloads.
    pub fn new() -> Result<Self, String> {
        let classes = vec![
            ClassSpec {
                name: "memo_hit",
                weight: 13,
                variants: (2 * HOT_SEEDS) as usize,
            },
            ClassSpec {
                name: "err",
                weight: 2,
                variants: 3,
            },
            ClassSpec {
                name: "exec",
                weight: 24,
                variants: 2,
            },
            ClassSpec {
                name: "compile",
                weight: 1,
                variants: 1,
            },
        ];
        Ok(Self {
            classes,
            working: vec![corpus::section2(12), corpus::cc_doubles(16, 8)],
            fresh_base: corpus::A3A_ENERGY.to_string(),
            err_programs: vec![corpus::section2(6), "range N = ;".to_string()],
            server: None,
            clients: Vec::new(),
        })
    }

    /// Seed of client `c`'s hot key `k` (disjoint across clients).
    fn hot_seed(c: usize, k: u64) -> u64 {
        (c as u64 + 1) * 1_000 + k
    }

    /// The request for `op`, sent by client `c`.
    fn request(&self, c: usize, op: &Op) -> Req {
        let threads = ("threads", "1".to_string());
        match self.classes[op.class].name {
            "memo_hit" => {
                let prog = op.variant % self.working.len();
                let k = (op.variant / self.working.len()) as u64;
                Req {
                    program: self.working[prog].clone(),
                    opts: opts(&[("seed", Self::hot_seed(c, k).to_string()), threads]),
                    expect_err: false,
                }
            }
            "exec" => Req {
                program: self.working[op.variant].clone(),
                // A seed no request used before: a memo miss, a synthesis
                // hit, an execution.  Each operation carries its own seed
                // drawn from the run seed, above every hot seed.
                opts: opts(&[("seed", (op.seed | 1 << 63).to_string()), threads]),
                expect_err: false,
            },
            "compile" => Req {
                program: format!("# fresh text {:016x}\n{}", op.seed, self.fresh_base),
                opts: opts(&[
                    ("seed", Self::hot_seed(c, 0).to_string()),
                    threads,
                    ("memory-limit", "18".to_string()),
                ]),
                expect_err: false,
            },
            _ => {
                let seed = ("seed", Self::hot_seed(c, 0).to_string());
                let (program, o) = match op.variant {
                    0 => (
                        self.working[0].clone(),
                        opts(&[seed, ("threads", "0".to_string())]),
                    ),
                    1 => (self.err_programs[1].clone(), opts(&[seed, threads])),
                    _ => (
                        self.err_programs[0].clone(),
                        opts(&[seed, threads, ("memory-limit", "0".to_string())]),
                    ),
                };
                Req {
                    program,
                    opts: o,
                    expect_err: true,
                }
            }
        }
    }

    fn start(&mut self) -> Result<(), String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_cap: 64,
            timeout: Duration::from_secs(60),
        };
        let handler = Arc::new(PipelineHandler::new(SYNTH_CAP, 8));
        let server = Server::bind(&cfg, handler).map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn();
        let addr = handle.addr().to_string();
        self.server = Some(handle);
        self.clients = (0..CLIENTS)
            .map(|_| Client::connect(&addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?;
        // Priming pass: every client's hot keys, which compiles the
        // working set and fills the response memo.
        for c in 0..CLIENTS {
            for variant in 0..self.classes[0].variants {
                let op = Op {
                    class: 0,
                    variant,
                    seed: 0,
                };
                let req = self.request(c, &op);
                let reply = self.clients[c]
                    .round_trip(&req.line())
                    .map_err(|e| format!("priming: {e}"))?;
                if !reply.starts_with("ok ") {
                    return Err(format!("priming: unexpected reply `{reply}`"));
                }
            }
        }
        Ok(())
    }

    fn stop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.server.take() {
            h.shutdown();
            let _ = h.join();
        }
    }

    /// The handler's cache counters through the `stats` verb.
    fn stats(&mut self) -> Result<HashMap<String, u64>, String> {
        let reply = self.clients[0]
            .round_trip("stats")
            .map_err(|e| format!("stats: {e}"))?;
        Ok(reply
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }
}

/// A checked reply: operation index, class, latency (ms), outcome.
type Checked = (usize, usize, f64, Result<(), String>);

/// The reply a direct, in-process call of the same pipeline functions
/// gives for `req`, framed as the server frames it.
fn direct_reply(
    req: &Req,
    compiled: &mut HashMap<(String, String), Result<Synthesis, String>>,
) -> String {
    let (cfg, run) = match parse_run_options(&req.opts) {
        Ok(v) => v,
        Err(e) => return format!("err {}", escape(&e)),
    };
    let key = (
        req.program.clone(),
        format!("{:?}/{:?}", cfg.memory_limit, cfg.cache_elements),
    );
    let syn = compiled
        .entry(key)
        .or_insert_with(|| synthesize(&req.program, &cfg).map_err(|e| e.to_string()));
    let syn = match syn {
        Ok(s) => s,
        Err(e) => return format!("err {}", escape(e)),
    };
    let owned = bind_random_inputs(syn, run.seed);
    let inputs = owned.iter().map(|(id, t)| (*id, t)).collect();
    let funcs = bind_functions(syn, run.seed);
    let exec = match run.threads {
        Some(t) => ExecOptions::with_threads(t),
        None => ExecOptions::default(),
    }
    .with_schedule(run.schedule);
    match syn.execute_opts(&inputs, &funcs, &exec) {
        Ok(results) => format!("ok {}", escape(&format_results(syn, &results))),
        Err(e) => format!("err {}", escape(&format!("execution failed: {e}"))),
    }
}

impl Workload for ServeMix {
    fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    fn nominal_ops_per_s(&self) -> f64 {
        700.0
    }

    fn concurrency(&self) -> usize {
        CLIENTS
    }

    /// Every `exec` and `compile` request inserts into the response memo
    /// or the synthesis cache, and blocks slow down as they fill.
    fn state_grows(&self) -> bool {
        true
    }

    fn setup(&mut self) -> Result<(), String> {
        self.start()
    }

    fn reset_pass(&mut self) -> Result<(), String> {
        self.stop();
        self.start()
    }

    fn run(&mut self, ops: &[Op], block: usize, before_block: &mut dyn FnMut()) -> Measured {
        let mut m = Measured::default();
        let before = match self.stats() {
            Ok(s) => s,
            Err(e) => {
                m.check(0, "stats", Err(e));
                return m;
            }
        };
        // Client c takes every CLIENTS-th operation of the sequence.
        let reqs: Vec<Vec<(usize, Req)>> = (0..CLIENTS)
            .map(|c| {
                ops.iter()
                    .enumerate()
                    .filter(|(i, _)| i % CLIENTS == c)
                    .map(|(i, op)| (i, self.request(c, op)))
                    .collect()
            })
            .collect();
        // The clients and this thread meet before and after every block;
        // `before_block` runs while the clients wait.
        let block = block.max(1);
        let blocks = ops.len().div_ceil(block);
        let barrier = Barrier::new(CLIENTS + 1);
        let mut replies: Vec<Vec<(f64, Result<String, String>)>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&reqs)
                .map(|(client, mine)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let lines: Vec<(usize, String)> =
                            mine.iter().map(|(i, r)| (*i, r.line())).collect();
                        let mut out = Vec::with_capacity(lines.len());
                        for b in 0..blocks {
                            barrier.wait();
                            for (_, line) in lines.iter().filter(|(i, _)| i / block == b) {
                                let t0 = Instant::now();
                                let reply = {
                                    let _span = tce_trace::span("bench.op");
                                    client.round_trip(line).map_err(|e| e.to_string())
                                };
                                out.push((t0.elapsed().as_secs_f64() * 1e3, reply));
                            }
                            barrier.wait();
                        }
                        out
                    })
                })
                .collect();
            for _ in 0..blocks {
                before_block();
                barrier.wait();
                let start = Instant::now();
                barrier.wait();
                m.elapsed_s += start.elapsed().as_secs_f64();
            }
            replies = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
        });
        m.peak_rss_mb = crate::stats::peak_rss_mb().ok();
        let after = self.stats().unwrap_or_default();
        for key in [
            "resp_hits",
            "resp_misses",
            "synth_hits",
            "synth_misses",
            "synth_evictions",
        ] {
            let d = after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0);
            m.count(&format!("serve.{key}"), d);
        }
        for key in ["shed", "timeouts"] {
            let d = after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0);
            m.count(&format!("serve.{key}"), d);
        }

        // Check every reply against the direct call, on as many threads
        // as there are clients; outside the measured interval.
        let checked: Vec<Vec<Checked>> = std::thread::scope(|s| {
            let handles: Vec<_> = reqs
                .iter()
                .zip(&replies)
                .map(|(mine, got)| {
                    s.spawn(move || {
                        let mut compiled = HashMap::new();
                        mine.iter()
                            .zip(got)
                            .map(|((i, req), (ms, reply))| {
                                let want = direct_reply(req, &mut compiled);
                                let outcome = match reply {
                                    Err(e) => Err(format!("transport: {e}")),
                                    Ok(r) if *r == want => {
                                        if req.expect_err == r.starts_with("err ") {
                                            Ok(())
                                        } else {
                                            Err(format!("unexpected reply kind `{r:.60}`"))
                                        }
                                    }
                                    Ok(r) => Err(format!(
                                        "reply `{r:.80}` is not the direct answer `{want:.80}`"
                                    )),
                                };
                                (*i, ops[*i].class, *ms, outcome)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check thread panicked"))
                .collect()
        });
        let mut all: Vec<_> = checked.into_iter().flatten().collect();
        all.sort_by_key(|r| r.0);
        for (i, class, ms, outcome) in all {
            m.samples.push((ms, class));
            if self.classes[class].name == "err" {
                m.count("serve.errors_expected", 1);
            }
            m.check(i, self.classes[class].name, outcome);
        }
        m
    }

    fn teardown(&mut self) {
        self.stop();
    }
}
