//! The three workloads: the requests each sends, its warm-up, and the
//! closed loop that times it through the in-process serving stack.
//!
//! Every op is one request line submitted to a [`ShardRouter`] over
//! `OptService` shards and answered on a [`Client::channel`]; the op's
//! latency runs from the submit to its single terminal response.

use crate::check::{check, Expect};
use crate::stats::Tally;
use crate::trace::Tracer;
use cnfet_opt::OptService;
use cnfet_pipeline::{
    shard_for, Client, CoOptSpec, RouterConfig, RouterStats, ShardRouter, WaferSpec, YieldRequest,
    YieldResponse,
};
use cnt_stats::{split_seed, splitmix64};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frozen copy of `examples/coopt/genetic_7axis.json`: the benchmark owns
/// its inputs, so editing the example does not change the benchmark.
const COOPT_SPEC: &str = include_str!("../inputs/genetic_7axis.json");

/// Frozen copy of `examples/wafer/full_wafer_100k.json`.
const WAFER_SPEC: &str = include_str!("../inputs/full_wafer_100k.json");

/// Executor threads every batch op asks for; the baseline in `README.md`
/// was measured on two cores.
pub const BATCH_WORKERS: usize = 2;

/// Seed of the warm-up ops. Fixed, so set-up does the same work for every
/// workload seed.
const WARMUP_SEED: u64 = 7;

/// Salt of the per-run determinism check's seed.
const CHECK_SALT: u64 = 0xC4EC;

/// An op with no response after this long has wedged the stack.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Hot corners `(pm, p_rs)` of `serve_evaluate`, warmed in set-up on
/// every shard (`p_rm = 1` throughout).
const HOT_CORNERS: [(f64, f64); 4] = [(0.33, 0.30), (0.31, 0.27), (0.35, 0.33), (0.32, 0.28)];

/// Share of `serve_evaluate` requests on a fresh custom corner.
pub const FRESH_SHARE: f64 = 0.70;

/// Share of `serve_evaluate` requests on one of the hot corners.
pub const HOT_SHARE: f64 = 0.20;

/// A repeat re-sends one of the client's last this many bodies, all of
/// which are still in the router's warm tier.
const REPEAT_WINDOW: usize = 16;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients of single-scenario `evaluate` requests on
    /// the exact-convolution back-end, against two shards.
    ServeEvaluate,
    /// One client of `co_opt` studies on the Monte-Carlo back-end.
    CooptMc,
    /// One client of ~101k-die `wafer` requests.
    WaferFields,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeEvaluate,
        Workload::CooptMc,
        Workload::WaferFields,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeEvaluate => "serve_evaluate",
            Workload::CooptMc => "coopt_mc",
            Workload::WaferFields => "wafer_fields",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients; the router runs one shard per client.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeEvaluate => 2,
            Workload::CooptMc | Workload::WaferFields => 1,
        }
    }

    /// Whether each op is a batch (parallel-executor) request.
    pub fn is_batch(self) -> bool {
        self != Workload::ServeEvaluate
    }
}

/// What kind of request an op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `evaluate` on a never-repeated custom corner.
    Fresh,
    /// `evaluate` on a hot corner with fresh scenario parameters.
    Hot,
    /// An earlier `evaluate` body verbatim under a new id.
    Repeat,
    /// One `co_opt` study or one `wafer` run.
    Batch,
}

/// The parsed batch specs every generator shares.
pub struct Inputs {
    /// The co-optimization study of `coopt_mc`.
    pub coopt: CoOptSpec,
    /// The wafer of `wafer_fields`, with its pinned seed cleared so every
    /// op's seed draws fresh fields.
    pub wafer: WaferSpec,
}

impl Inputs {
    /// Parse the frozen input files.
    pub fn load() -> Result<Self, String> {
        let coopt = CoOptSpec::parse(COOPT_SPEC).map_err(|e| format!("coopt input: {e}"))?;
        let mut wafer = WaferSpec::parse(WAFER_SPEC).map_err(|e| format!("wafer input: {e}"))?;
        wafer.seed = None;
        Ok(Self { coopt, wafer })
    }

    /// The correctness rule of a workload's responses.
    pub fn expect(&self, workload: Workload) -> Expect {
        match workload {
            Workload::ServeEvaluate => Expect::Evaluate,
            Workload::CooptMc => Expect::CoOpt,
            Workload::WaferFields => Expect::Wafer {
                dies: self.wafer.die_count(),
            },
        }
    }

    fn batch_line(&self, workload: Workload, id: String, seed: u64, workers: usize) -> String {
        let request = match workload {
            Workload::CooptMc => YieldRequest::co_opt(id, self.coopt.clone(), seed, Some(workers)),
            _ => YieldRequest::wafer(id, self.wafer.clone(), seed, Some(workers)),
        };
        request.to_json().to_string_compact()
    }
}

/// A deterministic stream of draws from one seed.
#[derive(Debug, Clone)]
pub struct Draws(u64);

impl Draws {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Its correlation id.
    pub id: String,
    /// The wire line.
    pub line: String,
    /// What kind of op it is.
    pub kind: Kind,
}

/// The `evaluate` body of one scenario on corner `(pm, p_rs)`; the other
/// knobs come from `draws`.
fn evaluate_body(pm: f64, p_rs: f64, draws: &mut Draws, seed: u64) -> String {
    let node = [45, 32][draws.below(2)];
    let l_cnt_um = draws.between(100.0, 300.0);
    let correlation = ["none", "growth", "growth+aligned-layout"][draws.below(3)];
    // One request in eight carries a purity/redundancy pair. The scheme is
    // always TMR, which composes exactly (no Monte-Carlo fallback) and
    // keeps these ops within 1.5-2x of a plain fresh op. Purity under
    // redundancy `none` costs 100-300 ms per op, a cost class of its own
    // that would put the tail in a different mode from the median.
    let fault = if draws.unit() < 0.125 {
        let purity = ["0.9999999999", "0.99999999999", "0.999999999999"][draws.below(3)];
        format!(r#","purity":{purity},"redundancy":"tmr""#)
    } else {
        String::new()
    };
    format!(
        r#"{{"evaluate":{{"spec":{{"corner":{{"pm":{pm},"p_rs":{p_rs},"p_rm":1}},"library":"nangate45","fast_design":true,"yield_target":0.9,"node_nm":{node},"l_cnt_um":{l_cnt_um},"correlation":"{correlation}"{fault}}},"seed":{seed}}}}}"#
    )
}

fn line(id: &str, body: &str) -> String {
    format!(r#"{{"schema":1,"id":"{id}","body":{body}}}"#)
}

/// The deterministic request stream of one closed-loop client.
pub struct Stream<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    seed: u64,
    client: u64,
    next: u64,
    draws: Draws,
    recent: VecDeque<String>,
}

impl<'a> Stream<'a> {
    /// Client `client`'s stream under the workload seed `seed`.
    pub fn new(workload: Workload, inputs: &'a Inputs, seed: u64, client: u64) -> Self {
        let seed = split_seed(seed, client);
        Self {
            workload,
            inputs,
            seed,
            client,
            next: 0,
            draws: Draws::new(seed),
            recent: VecDeque::with_capacity(REPEAT_WINDOW),
        }
    }

    /// The client's next request.
    pub fn next_request(&mut self) -> Request {
        let op = self.next;
        self.next += 1;
        let id = format!("{}.c{}.{op}", self.workload.name(), self.client);
        if self.workload.is_batch() {
            let seed = split_seed(self.seed, op);
            let line = self
                .inputs
                .batch_line(self.workload, id.clone(), seed, BATCH_WORKERS);
            return Request {
                id,
                line,
                kind: Kind::Batch,
            };
        }
        let u = self.draws.unit();
        let (kind, body) = if u >= FRESH_SHARE + HOT_SHARE && !self.recent.is_empty() {
            let body = self.recent[self.draws.below(self.recent.len())].clone();
            (Kind::Repeat, body)
        } else if u >= FRESH_SHARE {
            let (pm, p_rs) = HOT_CORNERS[self.draws.below(HOT_CORNERS.len())];
            (Kind::Hot, evaluate_body(pm, p_rs, &mut self.draws, op))
        } else {
            let pm = self.draws.between(0.30, 0.36);
            let p_rs = self.draws.between(0.26, 0.34);
            (Kind::Fresh, evaluate_body(pm, p_rs, &mut self.draws, op))
        };
        if kind != Kind::Repeat {
            if self.recent.len() == REPEAT_WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back(body.clone());
        }
        let line = line(&id, &body);
        Request { id, line, kind }
    }
}

/// The warm-up requests: the hot corners on every shard for
/// `serve_evaluate`, one fixed-seed op for a batch workload.
pub fn warmup_requests(workload: Workload, inputs: &Inputs) -> Vec<Request> {
    if workload.is_batch() {
        let id = "warm-0".to_string();
        let line = inputs.batch_line(workload, id.clone(), WARMUP_SEED, BATCH_WORKERS);
        return vec![Request {
            id,
            line,
            kind: Kind::Batch,
        }];
    }
    let shards = workload.clients();
    let mut requests = Vec::new();
    for shard in 0..shards {
        for (h, &(pm, p_rs)) in HOT_CORNERS.iter().enumerate() {
            // The first id of this corner's family that routes to `shard`.
            let id = (0..)
                .map(|k| format!("warm-{h}-{k}"))
                .find(|id| shard_for(id, shards) == shard)
                .expect("some id routes to every shard");
            // Distinct bodies per shard: an identical body would be answered
            // from the router's warm tier and leave the second shard cold.
            let mut draws = Draws::new((shard * HOT_CORNERS.len() + h) as u64);
            let body = evaluate_body(pm, p_rs, &mut draws, WARMUP_SEED);
            let line = line(&id, &body);
            requests.push(Request {
                id,
                line,
                kind: Kind::Hot,
            });
        }
    }
    requests
}

/// A router over one `OptService` shard per client.
fn new_router(workload: Workload) -> ShardRouter {
    let config = RouterConfig {
        shards: workload.clients(),
        ..RouterConfig::default()
    };
    ShardRouter::new(config, |_| OptService::new())
}

/// Build the workload's router and run its warm-up, one request at a
/// time. Returns the router and the set-up time, from router
/// construction to the last warm-up response.
pub fn set_up(workload: Workload, inputs: &Inputs) -> Result<(ShardRouter, Duration), String> {
    let start = Instant::now();
    let router = new_router(workload);
    let (client, responses) = Client::channel();
    for request in warmup_requests(workload, inputs) {
        router.submit(request.line, &client);
        let response = responses
            .recv_timeout(OP_TIMEOUT)
            .map_err(|_| format!("warm-up `{}` got no response", request.id))?;
        check(inputs.expect(workload), &request.id, &response)?;
    }
    Ok((router, start.elapsed()))
}

/// When a closed loop stops issuing new ops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// After this much wall time.
    Wall(Duration),
    /// After this many ops across all clients.
    Ops(u64),
}

/// One op kept for the traced replay.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The request sent.
    pub request: Request,
    /// Its latency through the router.
    pub latency: Duration,
    /// Its terminal response.
    pub response: YieldResponse,
}

/// What one closed-loop phase measured.
#[derive(Debug)]
pub struct LoopResult {
    /// Attempted ops, failures and latencies.
    pub tally: Tally,
    /// Wall time from the first submit to the last response.
    pub wall: Duration,
    /// Passing ops in completion order (kept only when traced).
    pub records: Vec<OpRecord>,
    /// Router counters after the phase.
    pub stats: RouterStats,
    /// Router counters before the phase.
    pub stats_before: RouterStats,
    /// Ops per second of untraced and of traced ops: per client, its ops
    /// of that kind over the time they took, summed over clients.
    pub rates: [f64; 2],
    /// Whether an op went unanswered for [`OP_TIMEOUT`].
    pub wedged: bool,
}

impl LoopResult {
    /// Completed ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.attempted() as f64 / self.wall.as_secs_f64()
    }
}

/// Run `workload.clients()` closed-loop clients against `router` until
/// `budget` is spent, checking every response. With a tracer, every
/// other op of each client records an `op` span with `router.submit` and
/// `client.recv` children, and passing traced ops are kept for the
/// replay; alternating op by op keeps host drift out of the comparison of
/// traced and untraced ops.
pub fn closed_loop(
    router: &ShardRouter,
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    budget: Budget,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let expect = inputs.expect(workload);
    let stats_before = router.stats();
    let started = AtomicU64::new(0);
    let wedged = AtomicBool::new(false);
    let tally = Mutex::new(Tally::default());
    let records = Mutex::new(Vec::new());
    let rates = Mutex::new([0.0; 2]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client_index in 0..workload.clients() {
            let (started, wedged, tally, records, rates) =
                (&started, &wedged, &tally, &records, &rates);
            scope.spawn(move || {
                let (client, responses) = Client::channel();
                let mut stream = Stream::new(workload, inputs, seed, client_index as u64);
                let mut mine = Tally::default();
                let (mut ops, mut busy) = ([0u32; 2], [Duration::ZERO; 2]);
                loop {
                    let more = match budget {
                        Budget::Wall(limit) => start.elapsed() < limit,
                        Budget::Ops(limit) => started.fetch_add(1, Ordering::Relaxed) < limit,
                    };
                    if !more || wedged.load(Ordering::Relaxed) {
                        break;
                    }
                    let request = stream.next_request();
                    let mode = usize::from(tracer.is_some() && (ops[0] + ops[1]) % 2 == 0);
                    let tracer = tracer.filter(|_| mode == 1);
                    let span = tracer.map(|t| t.open("op", &request.id, None));
                    let t0 = Instant::now();
                    let submit = tracer.map(|t| t.open("router.submit", &request.id, span));
                    router.submit(request.line.clone(), &client);
                    let recv = tracer.map(|t| {
                        t.close(submit.expect("traced"));
                        t.open("client.recv", &request.id, span)
                    });
                    let response = responses.recv_timeout(OP_TIMEOUT);
                    let latency = t0.elapsed();
                    if let Some(t) = tracer {
                        t.close(recv.expect("traced"));
                        t.close(span.expect("traced"));
                    }
                    let Ok(response) = response else {
                        wedged.store(true, Ordering::Relaxed);
                        mine.record(latency, Err(format!("`{}` got no response", request.id)));
                        break;
                    };
                    let outcome = check(expect, &request.id, &response);
                    let passed = outcome.is_ok();
                    mine.record(latency, outcome);
                    ops[mode] += 1;
                    busy[mode] += latency;
                    if passed && tracer.is_some() {
                        records.lock().expect("records lock").push(OpRecord {
                            request,
                            latency,
                            response,
                        });
                    }
                }
                tally.lock().expect("tally lock").merge(mine);
                let mut rates = rates.lock().expect("rates lock");
                for mode in 0..2 {
                    if ops[mode] > 0 {
                        rates[mode] += f64::from(ops[mode]) / busy[mode].as_secs_f64();
                    }
                }
            });
        }
    });
    LoopResult {
        tally: tally.into_inner().expect("tally lock"),
        wall: start.elapsed(),
        records: records.into_inner().expect("records lock"),
        stats: router.stats(),
        stats_before,
        rates: rates.into_inner().expect("rates lock"),
        wedged: wedged.into_inner(),
    }
}

/// The per-run determinism check of a batch workload: one op at
/// `workers: 1` and at `workers: 2` must render byte-identical responses.
/// Both run on a fresh service after one warm-up op; returns their wall
/// times (spans `exec.workers_1` and `exec.workers_2` when traced).
pub fn workers_check(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<(Duration, Duration), String> {
    let service = OptService::new();
    let run = |id: &str, seed: u64, workers: usize| -> Result<(String, Duration), String> {
        let line = inputs.batch_line(workload, id.to_string(), seed, workers);
        let mut responses = Vec::new();
        let span = tracer.map(|t| {
            let name = match (id, workers) {
                ("check-warm", _) => "exec.warm",
                (_, 1) => "exec.workers_1",
                _ => "exec.workers_2",
            };
            t.open(name, id, None)
        });
        let start = Instant::now();
        service.handle_line(&line, &mut |response| responses.push(response));
        let wall = start.elapsed();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.close(span);
        }
        let [response] = responses.as_slice() else {
            return Err(format!("`{id}`: {} responses", responses.len()));
        };
        check(inputs.expect(workload), id, response)?;
        Ok((response.to_json().to_string_compact(), wall))
    };
    run("check-warm", WARMUP_SEED, BATCH_WORKERS)?;
    let seed = split_seed(seed, CHECK_SALT);
    let (one, t1) = run("check", seed, 1)?;
    let (two, t2) = run("check", seed, 2)?;
    if one != two {
        return Err(format!(
            "{}: workers 1 and 2 rendered different artifacts",
            workload.name()
        ));
    }
    Ok((t1, t2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64, client: u64, n: usize, inputs: &Inputs) -> Vec<Request> {
        let mut stream = Stream::new(Workload::ServeEvaluate, inputs, seed, client);
        (0..n).map(|_| stream.next_request()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_lines() {
        let inputs = Inputs::load().expect("inputs parse");
        assert_eq!(lines(7, 0, 200, &inputs), lines(7, 0, 200, &inputs));
        let mut a = Stream::new(Workload::CooptMc, &inputs, 7, 0);
        let mut b = Stream::new(Workload::CooptMc, &inputs, 7, 0);
        assert_eq!(a.next_request(), b.next_request());
    }

    #[test]
    fn another_seed_or_client_gives_other_lines() {
        let inputs = Inputs::load().expect("inputs parse");
        let base = lines(7, 0, 50, &inputs);
        for other in [lines(8, 0, 50, &inputs), lines(7, 1, 50, &inputs)] {
            let same = base
                .iter()
                .zip(&other)
                .filter(|(a, b)| a.line == b.line)
                .count();
            assert_eq!(same, 0, "streams must not share lines");
        }
        let mut a = Stream::new(Workload::WaferFields, &inputs, 7, 0);
        let mut b = Stream::new(Workload::WaferFields, &inputs, 8, 0);
        assert_ne!(a.next_request().line, b.next_request().line);
    }

    #[test]
    fn the_request_shares_hold() {
        let inputs = Inputs::load().expect("inputs parse");
        for seed in [1, 2, 3] {
            let n = 20_000;
            let requests = lines(seed, 0, n, &inputs);
            let share = |kind| requests.iter().filter(|r| r.kind == kind).count() as f64 / n as f64;
            assert!((share(Kind::Fresh) - FRESH_SHARE).abs() < 0.02);
            assert!((share(Kind::Hot) - HOT_SHARE).abs() < 0.02);
            assert!((share(Kind::Repeat) - (1.0 - FRESH_SHARE - HOT_SHARE)).abs() < 0.02);
        }
    }

    #[test]
    fn repeats_are_verbatim_bodies_under_new_ids_and_fresh_corners_never_repeat() {
        let inputs = Inputs::load().expect("inputs parse");
        let requests = lines(5, 0, 2_000, &inputs);
        let body = |r: &Request| {
            r.line
                .split_once(r#","body":"#)
                .expect("body")
                .1
                .to_string()
        };
        let mut ids = std::collections::HashSet::new();
        let mut fresh = std::collections::HashSet::new();
        for (i, r) in requests.iter().enumerate() {
            assert!(ids.insert(r.id.clone()), "ids are unique");
            match r.kind {
                Kind::Repeat => assert!(
                    requests[..i].iter().any(|e| body(e) == body(r)),
                    "a repeat re-sends an earlier body"
                ),
                Kind::Fresh => {
                    let corner = body(r).split(r#","library""#).next().map(str::to_string);
                    assert!(fresh.insert(corner), "fresh corners never repeat");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_generated_line_parses_as_a_request() {
        let inputs = Inputs::load().expect("inputs parse");
        let mut requests = lines(3, 0, 64, &inputs);
        requests.extend(warmup_requests(Workload::ServeEvaluate, &inputs));
        requests.extend(warmup_requests(Workload::CooptMc, &inputs));
        requests.push(Stream::new(Workload::WaferFields, &inputs, 3, 0).next_request());
        for r in requests {
            let doc = cnfet_pipeline::Json::parse(&r.line).expect("valid JSON");
            let request = YieldRequest::from_json(&doc).expect("valid request");
            assert_eq!(request.id, r.id);
        }
    }

    #[test]
    fn the_warmup_reaches_every_shard() {
        let inputs = Inputs::load().expect("inputs parse");
        let warm = warmup_requests(Workload::ServeEvaluate, &inputs);
        assert_eq!(warm.len(), 2 * HOT_CORNERS.len());
        for shard in 0..2 {
            assert_eq!(
                warm.iter().filter(|r| shard_for(&r.id, 2) == shard).count(),
                HOT_CORNERS.len()
            );
        }
    }
}
