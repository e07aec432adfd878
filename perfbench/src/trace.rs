//! The traced run: spans recorded by the benchmark around calls into each
//! layer's public functions, and the per-layer metrics taken from them.
//!
//! A traced run of workload `W` drives `W` for the run's seconds with an
//! `op` span (children `router.submit` and `client.recv`) around every
//! other op; the drop in throughput of the traced ops against the
//! untraced ones is the tracing overhead. Every other workload then runs
//! a short session the same way. The traced ops of each session are
//! replayed call by call through the layers (parse, direct service call,
//! encode, engine, curve, renewal kernel, Monte-Carlo, search, fault
//! composition, wafer engine, executor). Each per-layer metric is read on
//! the workload that exercises its layer, and is printed with that
//! workload's name.

use crate::stats::{mean, Tally};
use crate::workload::{
    closed_loop, set_up, workers_check, Budget, Draws, Inputs, LoopResult, OpRecord, Request,
    Workload, BATCH_WORKERS,
};
use cnfet_fault::{McFallback, RedundancyScheme};
use cnfet_opt::OptService;
use cnfet_pipeline::{Json, Pipeline, RequestBody, ResponseBody, WaferEngine, YieldRequest};
use cnfet_sim::adaptive::McPrecision;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval of a call the benchmark made.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// An in-memory span recorder, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Start a span of op `op`.
    pub fn open(&self, name: &'static str, op: &str, parent: Option<SpanId>) -> SpanId {
        let start = self.origin.elapsed();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            op: op.to_string(),
            parent,
            start,
            end: None,
        });
        spans.len() - 1
    }

    /// End span `id`; returns its duration.
    pub fn close(&self, id: SpanId) -> Duration {
        let end = self.origin.elapsed();
        let mut spans = self.spans.lock().expect("span lock");
        spans[id].end = Some(end);
        end - spans[id].start
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, op, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Per span name: count, total time and self time (total minus the
    /// part of each span its children cover), by descending self time.
    pub fn self_times(&self) -> Vec<(&'static str, usize, Duration, Duration)> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for span in spans.iter() {
            if let (Some(parent), Some(end)) = (span.parent, span.end) {
                children[parent].push((span.start, end));
            }
        }
        let mut rows: Vec<(&'static str, usize, Duration, Duration)> = Vec::new();
        for (span, mut kids) in spans.iter().zip(children) {
            let Some(end) = span.end else { continue };
            let total = end - span.start;
            kids.sort();
            let (mut covered, mut reach) = (Duration::ZERO, span.start);
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let own = total.saturating_sub(covered);
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((span.name, 1, total, own)),
            }
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.3));
        rows
    }

    /// Write every span as one JSON line: name, op id, parent, start and
    /// end in µs since the run began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span lock");
        for (id, span) in spans.iter().enumerate() {
            let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
            let doc = Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(span.name.into())),
                ("op".into(), Json::Str(span.op.clone())),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_us".into(), us(span.start)),
                ("end_us".into(), span.end.map_or(Json::Null, us)),
            ]);
            writeln!(out, "{}", doc.to_string_compact())?;
        }
        out.flush()
    }
}

/// One per-layer metric: its name, unit, the workload it is read on, and
/// its value.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The workload whose replay measured it.
    pub workload: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Replayed `serve_evaluate` ops (each costs a few fresh-corner solves).
const EVALUATE_REPLAYS: usize = 96;

/// Replayed studies and wafers per session.
const BATCH_REPLAYS: usize = 2;

/// Candidates of each replayed study re-run on the engine.
const CANDIDATE_REPLAYS: usize = 12;

/// Repetitions of a sub-µs call per timed span.
const INNER_REPS: u32 = 1000;

/// Ops of the short session of a workload other than the run's; every
/// other one is traced and replayed.
fn short_budget(workload: Workload) -> Budget {
    match workload {
        Workload::ServeEvaluate => Budget::Ops(2 * EVALUATE_REPLAYS as u64),
        Workload::CooptMc => Budget::Ops(1),
        Workload::WaferFields => Budget::Ops(2 * BATCH_REPLAYS as u64),
    }
}

/// Samples of every per-layer metric.
#[derive(Debug, Default)]
struct Samples {
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    queue_high_water: f64,
    warm_hit_ratio: f64,
    evaluate_ms: Vec<f64>,
    curve_hits: u64,
    curve_misses: u64,
    curve_evictions: u64,
    knots_per_build: Vec<f64>,
    invert_us: Vec<f64>,
    cold_plan_ms: Vec<f64>,
    extend_us: Vec<f64>,
    memo_hit_ns: Vec<f64>,
    mc_trials: u64,
    mc_widths: u64,
    mc_time: Duration,
    opt_final: Vec<f64>,
    opt_coarse: Vec<f64>,
    candidate_ms: Vec<f64>,
    front_ratio: Vec<f64>,
    compose_us: Vec<f64>,
    die_ns: Vec<f64>,
    distinct_ratio: Vec<f64>,
    scaling_coopt: f64,
    scaling_wafer: f64,
    overhead_pct: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Samples {
    fn metrics(&self, run: Workload) -> Vec<LayerMetric> {
        let se = Workload::ServeEvaluate.name();
        let co = Workload::CooptMc.name();
        let wf = Workload::WaferFields.name();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let m = |name, unit, workload, value| LayerMetric {
            name,
            unit,
            workload,
            value,
        };
        vec![
            m("codec.parse_us", "us", se, mean(&self.parse_us)),
            m("codec.encode_us", "us", se, mean(&self.encode_us)),
            m("router.queue_wait_ms", "ms", se, mean(&self.queue_wait_ms)),
            m(
                "router.queue_high_water",
                "count",
                se,
                self.queue_high_water,
            ),
            m("router.warm_hit_ratio", "ratio", se, self.warm_hit_ratio),
            m("engine.evaluate_ms", "ms", se, mean(&self.evaluate_ms)),
            m(
                "engine.curve_hit_ratio",
                "ratio",
                se,
                ratio(self.curve_hits, self.curve_hits + self.curve_misses),
            ),
            m(
                "engine.curve_evictions",
                "count",
                se,
                self.curve_evictions as f64,
            ),
            m(
                "curve.knots_per_build",
                "count",
                se,
                mean(&self.knots_per_build),
            ),
            m("curve.invert_warm_us", "us", se, mean(&self.invert_us)),
            m("renewal.cold_plan_ms", "ms", se, mean(&self.cold_plan_ms)),
            m("renewal.extend_us", "us", se, mean(&self.extend_us)),
            m("renewal.memo_hit_ns", "ns", se, mean(&self.memo_hit_ns)),
            m(
                "mc.trials_per_width",
                "count",
                co,
                ratio(self.mc_trials, self.mc_widths),
            ),
            m(
                "mc.ns_per_trial",
                "ns",
                co,
                self.mc_time.as_secs_f64() * 1e9 / self.mc_trials.max(1) as f64,
            ),
            m(
                "mc.width_ms",
                "ms",
                co,
                ms(self.mc_time) / self.mc_widths.max(1) as f64,
            ),
            m("opt.final_evaluations", "count", co, mean(&self.opt_final)),
            m(
                "opt.coarse_evaluations",
                "count",
                co,
                mean(&self.opt_coarse),
            ),
            m("opt.candidate_ms", "ms", co, mean(&self.candidate_ms)),
            m("opt.front_ratio", "ratio", co, mean(&self.front_ratio)),
            m("fault.compose_us", "us", co, mean(&self.compose_us)),
            m("wafer.die_ns", "ns", wf, mean(&self.die_ns)),
            m(
                "wafer.distinct_ratio",
                "ratio",
                wf,
                mean(&self.distinct_ratio),
            ),
            m("exec.scaling_eff.coopt_mc", "ratio", co, self.scaling_coopt),
            m(
                "exec.scaling_eff.wafer_fields",
                "ratio",
                wf,
                self.scaling_wafer,
            ),
            m("trace.overhead_pct", "%", run.name(), self.overhead_pct),
        ]
    }
}

/// What a traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Every per-layer metric.
    pub metrics: Vec<LayerMetric>,
    /// Ops attempted and failed across every closed loop of the run.
    pub tally: Tally,
    /// Throughput of the run's untraced and traced ops, in ops/s.
    pub ops_per_s: [f64; 2],
    /// Self-time rows (name, count, total, self).
    pub self_times: Vec<(&'static str, usize, Duration, Duration)>,
    /// Where the spans were written.
    pub spans_path: PathBuf,
}

/// The traced run of `run` (module docs): `run` is driven for `seconds`,
/// the other workloads get short sessions.
pub fn traced_run(
    run: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: Duration,
) -> Result<TracedRun, String> {
    let tracer = Tracer::default();
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut ops_per_s = [0.0; 2];
    for workload in std::iter::once(run).chain(Workload::ALL.into_iter().filter(|w| *w != run)) {
        let budget = if workload == run {
            Budget::Wall(seconds)
        } else {
            short_budget(workload)
        };
        let (router, _) = set_up(workload, inputs)?;
        let traced = closed_loop(&router, workload, inputs, seed, budget, Some(&tracer));
        finish_loop(&traced)?;
        router.shutdown();
        if workload == run {
            ops_per_s = traced.rates;
        }
        match workload {
            Workload::ServeEvaluate => replay_evaluate(&traced, inputs, &tracer, &mut samples)?,
            Workload::CooptMc => replay_coopt(&traced.records, inputs, &tracer, &mut samples)?,
            Workload::WaferFields => replay_wafer(&traced.records, &tracer, &mut samples)?,
        }
        tally.merge(traced.tally);
        if workload.is_batch() {
            let (t1, t2) = workers_check(workload, inputs, seed, Some(&tracer))?;
            let efficiency = t1.as_secs_f64() / (2.0 * t2.as_secs_f64());
            match workload {
                Workload::CooptMc => samples.scaling_coopt = efficiency,
                _ => samples.scaling_wafer = efficiency,
            }
        }
    }
    samples.overhead_pct = 100.0 * (1.0 - ops_per_s[1] / ops_per_s[0]);

    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", run.name()));
    tracer
        .write(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    Ok(TracedRun {
        metrics: samples.metrics(run),
        tally,
        ops_per_s,
        self_times: tracer.self_times(),
        spans_path,
    })
}

/// A loop with a wedged op or a failed check ends the traced run.
fn finish_loop(result: &LoopResult) -> Result<(), String> {
    if result.wedged {
        // A wedged shard cannot be shut down; stop the process instead.
        eprintln!("perfbench: an op got no response within the timeout");
        std::process::exit(1);
    }
    match &result.tally.first_failure {
        Some(failure) => Err(failure.clone()),
        None => Ok(()),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replay `serve_evaluate` ops in two passes, each on its own thread so
/// that neither inherits the other's thread-local kernel memos: the codec
/// and a direct service call first, then the engine, the curve and the
/// renewal kernel.
fn replay_evaluate(
    traced: &LoopResult,
    inputs: &Inputs,
    tracer: &Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let before = &traced.stats_before;
    let (hits, misses) = (
        traced.stats.warm_hits - before.warm_hits,
        traced.stats.warm_misses - before.warm_misses,
    );
    samples.warm_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    samples.queue_high_water = traced.stats.queue_high_water() as f64;
    let records = &traced.records[..traced.records.len().min(EVALUATE_REPLAYS)];
    let warmup = crate::workload::warmup_requests(Workload::ServeEvaluate, inputs);
    std::thread::scope(|scope| {
        scope
            .spawn(|| replay_service(records, &warmup, tracer, samples))
            .join()
            .expect("service replay thread")
    })?;
    std::thread::scope(|scope| {
        scope
            .spawn(|| replay_engine(records, &warmup, tracer, samples))
            .join()
            .expect("engine replay thread")
    })
}

/// The codec and a direct `OptService` call (warmed like a shard) per op;
/// the router's latency minus the direct call's is the queue wait.
fn replay_service(
    records: &[OpRecord],
    warmup: &[Request],
    tracer: &Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let server = OptService::new();
    for request in warmup {
        server.handle_line(&request.line, &mut drop);
    }
    for record in records {
        let op = record.request.id.as_str();
        let root_id = tracer.open("replay.service", op, None);
        let root = Some(root_id);
        let (request, parse_time) =
            tracer.time("codec.parse", op, root, || parse(&record.request.line));
        request?;
        samples.parse_us.push(us(parse_time));
        let (line, encode_time) = tracer.time("codec.encode", op, root, || {
            record.response.to_json().to_string_compact()
        });
        black_box(line);
        samples.encode_us.push(us(encode_time));
        let ((), direct) = tracer.time("server.handle_line", op, root, || {
            server.handle_line(&record.request.line, &mut drop)
        });
        samples.queue_wait_ms.push(ms(record.latency) - ms(direct));
        tracer.close(root_id);
    }
    Ok(())
}

/// `Pipeline::evaluate` on a bare engine warmed like a shard, the curve
/// it used, and the renewal kernel at the solved width.
fn replay_engine(
    records: &[OpRecord],
    warmup: &[Request],
    tracer: &Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let pipeline = Pipeline::new();
    for request in warmup {
        if let RequestBody::Evaluate { spec, seed } = parse(&request.line)?.body {
            pipeline.evaluate(&spec, seed).map_err(err)?;
        }
    }
    for record in records {
        let op = record.request.id.as_str();
        let RequestBody::Evaluate { spec, seed } = parse(&record.request.line)?.body else {
            return Err(format!("`{op}` is not an evaluate request"));
        };
        let root_id = tracer.open("replay.engine", op, None);
        let root = Some(root_id);
        let resident = pipeline.cache_stats().curves;
        // Looking the curve up first tells a hit (knots already built)
        // from a miss (a fresh, empty curve) without changing the work
        // `evaluate` does next.
        let curve = pipeline
            .failure_curve(&spec.corner, &spec.backend)
            .map_err(err)?;
        let miss = curve.evaluations() == 0;
        let (report, evaluate_time) = tracer.time("engine.evaluate", op, root, || {
            pipeline.evaluate(&spec, seed)
        });
        let report = report.map_err(err)?;
        samples.evaluate_ms.push(ms(evaluate_time));
        let inserted = usize::from(miss);
        samples.curve_evictions +=
            (resident + inserted).saturating_sub(pipeline.cache_stats().curves) as u64;
        if miss {
            samples.curve_misses += 1;
            samples.knots_per_build.push(curve.knots() as f64);
        } else {
            samples.curve_hits += 1;
        }
        // A target the solver never asked for, so the inversion is a
        // bisection over the resident knots rather than a memo hit.
        let target = report.p_at_w_min * 0.999;
        let (width, invert_time) = tracer.time("curve.invert", op, root, || {
            curve.width_for_failure(target, 5.0, 2000.0)
        });
        width.map_err(err)?;
        samples.invert_us.push(us(invert_time));

        // The kernel on a fresh thread, whose plan cache starts empty: a
        // new (pitch, pf) builds a plan, a wider width extends it, and the
        // same width again is a memo hit.
        let model = pipeline
            .failure_model(&spec.corner, &spec.backend)
            .map_err(err)?;
        let (renewal, pf, w) = (model.renewal(), model.pf(), report.w_min_nm);
        let (cold, extend, memo) = std::thread::scope(|scope| {
            scope
                .spawn(|| -> Result<_, String> {
                    let (p, cold) = tracer.time("renewal.cold_plan", op, root, || {
                        renewal.failure_probability(w, pf)
                    });
                    p.map_err(err)?;
                    let (p, extend) = tracer.time("renewal.extend", op, root, || {
                        renewal.failure_probability(1.5 * w, pf)
                    });
                    p.map_err(err)?;
                    let ((), memo) = tracer.time("renewal.memo_hit", op, root, || {
                        for _ in 0..INNER_REPS {
                            let p = renewal.failure_probability(black_box(1.5 * w), pf);
                            black_box(p.expect("memoized width answered before"));
                        }
                    });
                    Ok((cold, extend, memo))
                })
                .join()
                .expect("renewal probe thread")
        })?;
        samples.cold_plan_ms.push(ms(cold));
        samples.extend_us.push(us(extend));
        samples
            .memo_hit_ns
            .push(memo.as_secs_f64() * 1e9 / f64::from(INNER_REPS));
        tracer.close(root_id);
    }
    Ok(())
}

fn parse(line: &str) -> Result<YieldRequest, String> {
    YieldRequest::from_json(&Json::parse(line).map_err(err)?).map_err(err)
}

/// Replay `coopt_mc` studies: search counters from the report, then
/// candidates of the study's space through the Monte-Carlo engine and
/// the redundancy algebra.
fn replay_coopt(
    records: &[OpRecord],
    inputs: &Inputs,
    tracer: &Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let pipeline = Pipeline::new();
    let fallback = McFallback {
        seed: 1,
        workers: BATCH_WORKERS,
        precision: McPrecision::default(),
    };
    for record in records.iter().take(BATCH_REPLAYS) {
        let op = record.request.id.as_str();
        let root_id = tracer.open("replay", op, None);
        let root = Some(root_id);
        let ResponseBody::CoOpt(report) = &record.response.body else {
            return Err(format!("`{op}` is not a co_opt report"));
        };
        let RequestBody::CoOpt { seed, .. } = parse(&record.request.line)?.body else {
            return Err(format!("`{op}` is not a co_opt request"));
        };
        let (coarse, final_) = report.search.as_ref().map_or((0, report.evaluations), |s| {
            (s.coarse_evaluations, s.final_evaluations)
        });
        samples.opt_final.push(final_ as f64);
        samples.opt_coarse.push(coarse as f64);
        samples
            .candidate_ms
            .push(ms(record.latency) / (coarse + final_).max(1) as f64);
        samples
            .front_ratio
            .push(report.front.len() as f64 / final_.max(1) as f64);
        // The report lists only the front, which is no fair sample of
        // what the search priced; a seeded sample of the whole space is.
        let mut draws = Draws::new(seed);
        for _ in 0..CANDIDATE_REPLAYS {
            let choice: Vec<usize> = inputs
                .coopt
                .axes
                .iter()
                .map(|axis| draws.below(axis.values.len()))
                .collect();
            let spec = inputs.coopt.scenario(&choice).map_err(err)?;
            let (scenario, time) = tracer.time("engine.evaluate", op, root, || {
                pipeline.evaluate(&spec, seed)
            });
            let scenario = scenario.map_err(err)?;
            let mc = scenario
                .mc
                .as_ref()
                .ok_or_else(|| format!("`{op}`: candidate without Monte-Carlo provenance"))?;
            samples.mc_trials += mc.trials;
            samples.mc_widths += mc.widths_evaluated;
            samples.mc_time += time;
            if let Some(fault) = &scenario.fault {
                // The per-cell failure probability the engine composes.
                let p = (fault.p_short + scenario.p_at_w_min / scenario.relaxation.max(1.0))
                    .clamp(0.0, 1.0);
                let (outcome, time) = tracer.time("fault.compose", op, root, || {
                    let mut last = None;
                    for _ in 0..INNER_REPS {
                        last = Some(RedundancyScheme::Tmr.compose(
                            black_box(p),
                            scenario.m_min,
                            &fallback,
                        ));
                    }
                    last.expect("at least one repetition")
                });
                outcome.map_err(err)?;
                samples.compose_us.push(us(time) / f64::from(INNER_REPS));
            }
        }
        tracer.close(root_id);
    }
    Ok(())
}

/// Replay `wafer_fields` ops on a bare wafer engine whose curve is warm,
/// as a shard's is after set-up.
fn replay_wafer(
    records: &[OpRecord],
    tracer: &Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let pipeline = Pipeline::new();
    let engine = WaferEngine::new(&pipeline);
    let mut warm = false;
    for record in records.iter().take(BATCH_REPLAYS) {
        let op = record.request.id.as_str();
        let RequestBody::Wafer { spec, seed, .. } = parse(&record.request.line)?.body else {
            return Err(format!("`{op}` is not a wafer request"));
        };
        if !warm {
            engine.run(&spec, seed, BATCH_WORKERS).map_err(err)?;
            warm = true;
        }
        let (report, time) = tracer.time("wafer.run", op, None, || {
            engine.run(&spec, seed, BATCH_WORKERS)
        });
        let report = report.map_err(err)?;
        samples
            .die_ns
            .push(time.as_secs_f64() * 1e9 / report.dies as f64);
        samples
            .distinct_ratio
            .push(report.distinct_scenarios as f64 / report.dies as f64);
    }
    Ok(())
}
