//! Integration tests of the v1 service API: deterministic envelopes,
//! in-order streaming, cancellation, and bounded caches under stress.

use cnfet_pipeline::{
    BackendSpec, CacheConfig, CornerSpec, CorrelationSpec, Pipeline, RequestBody, ResponseBody,
    ScenarioGrid, ScenarioReport, ScenarioSpec, ServiceConfig, YieldRequest, YieldResponse,
    YieldService,
};

fn fast_spec(name: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(name);
    spec.backend = BackendSpec::GaussianSum;
    spec.fast_design = true;
    spec.rho = cnfet_pipeline::RhoSpec::Paper;
    spec
}

fn fast_grid_doc() -> &'static str {
    r#"{
        "name": "svc",
        "defaults": {
            "backend": "gaussian-sum",
            "rho": "paper",
            "fast_design": true,
            "m_min": "self-consistent"
        },
        "axes": {
            "node_nm": [45, 32, 22],
            "correlation": ["none", "growth+aligned-layout"]
        }
    }"#
}

fn mc_grid_doc() -> &'static str {
    r#"{
        "name": "mc",
        "defaults": {
            "backend": { "monte-carlo": { "rel_ci": 0.15, "max_trials": 100000, "batch": 1000 } },
            "rho": "paper",
            "fast_design": true
        },
        "axes": { "correlation": ["none", "growth+aligned-layout"] }
    }"#
}

/// Serialize a response batch to the exact bytes the daemon would emit.
fn wire(responses: &[YieldResponse]) -> String {
    responses
        .iter()
        .map(|r| r.to_json().to_string_compact())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn evaluate_responses_are_byte_identical_across_repeats_and_services() {
    let service = YieldService::new();
    let request = YieldRequest::evaluate("eval-1", fast_spec("x"), 7);
    let cold = wire(&service.handle(&request));
    let warm = wire(&service.handle(&request));
    assert_eq!(cold, warm, "cache warmth must not leak into responses");
    // A brand-new service (fresh caches) emits the same bytes too.
    let other = wire(&YieldService::new().handle(&request));
    assert_eq!(cold, other);
    assert!(cold.contains("\"report\""));
}

#[test]
fn sweep_streams_in_index_order_and_is_worker_independent() {
    // An analytic grid, a Monte-Carlo grid (the MC back-end's acceptance
    // contract: trial counts and CI bounds are worker-independent too) and
    // the empty sweep.
    let grids = [
        ScenarioGrid::parse(fast_grid_doc()).unwrap(),
        ScenarioGrid::parse(mc_grid_doc()).unwrap(),
        ScenarioGrid { scenarios: vec![] },
    ];
    for grid in grids {
        let total = grid.scenarios.len();
        let service = YieldService::new();
        let run = |workers: usize| -> Vec<YieldResponse> {
            service.handle(&YieldRequest::sweep("swp", grid.clone(), 99, Some(workers)))
        };
        let one = run(1);
        for workers in [3, 4, 8] {
            assert_eq!(
                wire(&one),
                wire(&run(workers)),
                "worker count must not change a single byte (workers = {workers})"
            );
        }
        assert_eq!(one.len(), total + 1, "one response per scenario + done");
        for (i, response) in one[..total].iter().enumerate() {
            assert_eq!(response.id, "swp");
            match &response.body {
                ResponseBody::SweepReport {
                    index, total: t, ..
                } => {
                    assert_eq!(*index, i as u64, "stream must be in index order");
                    assert_eq!(*t, total as u64);
                }
                other => panic!("expected sweep_report, got {other:?}"),
            }
        }
        match &one[total].body {
            ResponseBody::SweepDone { total: t, failed } => {
                assert_eq!(*t, total as u64);
                assert_eq!(*failed, 0);
            }
            other => panic!("expected sweep_done, got {other:?}"),
        }
        // Reports match a cold pipeline's scenario for scenario.
        let pipeline = Pipeline::new();
        let reports: Vec<&ScenarioReport> = one[..total]
            .iter()
            .map(|response| match &response.body {
                ResponseBody::SweepReport { report, .. } => report,
                _ => unreachable!("checked above"),
            })
            .collect();
        for (i, report) in reports.iter().enumerate() {
            let seed = cnt_stats::split_seed(99, i as u64);
            assert_eq!(
                *report,
                &pipeline.evaluate(&grid.scenarios[i], seed).unwrap()
            );
            if let Some(mc) = &report.mc {
                assert!(mc.trials > 0 && mc.ci_lo <= report.p_at_w_min);
                assert!(report.p_at_w_min <= mc.ci_hi);
            }
        }
        // Both grids pair (none, correlated) per node: correlation must
        // shrink W_min at every node, under every back-end.
        for pair in reports.chunks(2) {
            assert_eq!(pair[0].correlation, CorrelationSpec::None.name());
            assert!(pair[1].w_min_nm < pair[0].w_min_nm);
            assert!(pair[1].upsizing_penalty <= pair[0].upsizing_penalty);
        }
        // The typed stream agrees, down to the empty sweep's zero items.
        assert_eq!(
            service.sweep(grid.scenarios.clone(), 99).count(),
            total,
            "typed stream length"
        );
    }
}

#[test]
fn sweep_handle_reports_progress_and_supports_cancellation() {
    // Distinct corners: every scenario must build its own pF(W) curve, so
    // the workers cannot race through the whole sweep before the consumer
    // cancels.
    let specs: Vec<ScenarioSpec> = (0..24)
        .map(|i| {
            let mut spec = fast_spec(&format!("c-{i}"));
            spec.corner = CornerSpec::Custom {
                pm: 0.05 + 0.005 * f64::from(i),
                p_rs: 0.25,
                p_rm: 1.0,
            };
            spec
        })
        .collect();
    let service = YieldService::new();
    let mut handle = service.sweep_with_workers(specs, 5, 2);
    assert_eq!(handle.total(), 24);
    let first = handle.next().expect("at least one result");
    assert_eq!(first.index, 0);
    first.report.expect("scenario evaluates");
    let progress = handle.progress();
    assert_eq!(progress.delivered, 1);
    assert!(progress.completed >= 1);
    handle.cancel();
    // Drain whatever the workers still deliver; the stream must end well
    // short of the full sweep instead of blocking forever.
    let mut delivered = 1;
    for item in handle {
        assert_eq!(item.index, delivered, "order holds even while cancelling");
        delivered += 1;
    }
    assert!(
        delivered < 24,
        "cancellation must truncate the stream, delivered {delivered}"
    );
}

#[test]
fn dropping_a_sweep_handle_mid_stream_does_not_hang() {
    let specs: Vec<ScenarioSpec> = (0..16).map(|i| fast_spec(&format!("d-{i}"))).collect();
    let service = YieldService::new();
    let mut handle = service.sweep_with_workers(specs, 5, 4);
    let _ = handle.next();
    drop(handle); // joins workers via Drop
}

#[test]
fn lru_cache_stays_bounded_under_100_scenario_stress() {
    let capacity = 4;
    let service = YieldService::with_config(ServiceConfig {
        cache: CacheConfig {
            curve_capacity: capacity,
            design_capacity: 2,
        },
        sweep_workers: 4,
    });
    // 100 scenarios over 25 distinct corners: far more curves than the
    // cache may hold.
    let specs: Vec<ScenarioSpec> = (0..100)
        .map(|i| {
            let mut spec = fast_spec(&format!("stress-{i}"));
            spec.corner = CornerSpec::Custom {
                pm: 0.05 + 0.01 * f64::from(i % 25),
                p_rs: 0.2,
                p_rm: 1.0,
            };
            spec
        })
        .collect();
    let reference = specs[3].clone();
    let mut delivered = 0;
    for item in service.sweep_with_workers(specs, 1, 4) {
        item.report.expect("stress scenario evaluates");
        delivered += 1;
        let stats = service.pipeline().cache_stats();
        assert!(
            stats.curves <= capacity,
            "curve cache exceeded capacity mid-sweep: {stats:?}"
        );
        assert!(stats.designs <= 2);
    }
    assert_eq!(delivered, 100);
    // Evictions must not have corrupted answers: a stressed-cache result
    // equals a fresh pipeline's.
    let seed = cnt_stats::split_seed(1, 3);
    assert_eq!(
        service.evaluate(&reference, seed).unwrap(),
        Pipeline::new().evaluate(&reference, seed).unwrap()
    );
}

#[test]
fn bad_scenarios_stream_structured_errors_and_a_failure_count() {
    let mut bad = fast_spec("bad");
    bad.yield_target = 2.0;
    let grid = ScenarioGrid {
        scenarios: vec![fast_spec("ok-0"), bad, fast_spec("ok-2")],
    };
    let service = YieldService::new();
    let responses = service.handle(&YieldRequest::sweep("mixed", grid.clone(), 1, Some(2)));
    assert_eq!(responses.len(), 4);
    assert!(!responses[0].is_error());
    assert!(responses[1].is_error(), "bad scenario yields an error");
    assert!(!responses[2].is_error(), "later scenarios still run");
    match &responses[3].body {
        ResponseBody::SweepDone { failed, total } => {
            assert_eq!((*total, *failed), (3, 1));
        }
        other => panic!("expected sweep_done, got {other:?}"),
    }
    // The failure stays confined to its own item at any worker count.
    for workers in [1, 8] {
        let again = service.handle(&YieldRequest::sweep(
            "mixed",
            grid.clone(),
            1,
            Some(workers),
        ));
        assert_eq!(wire(&again), wire(&responses), "workers = {workers}");
        let typed: Vec<bool> = service
            .sweep_with_workers(grid.scenarios.clone(), 1, workers)
            .map(|item| item.report.is_ok())
            .collect();
        assert_eq!(typed, [true, false, true], "workers = {workers}");
    }
}

#[test]
fn describe_names_the_capabilities() {
    let service = YieldService::new();
    let responses = service.handle(&YieldRequest::describe("d"));
    assert_eq!(responses.len(), 1);
    let ResponseBody::Describe(info) = &responses[0].body else {
        panic!("expected describe body");
    };
    assert_eq!(info.schemas, vec![1]);
    assert!(info.backends.iter().any(|b| b == "monte-carlo"));
    assert!(info.scenario_keys.iter().any(|k| k == "yield_target"));
    // And the full response survives the wire.
    let line = responses[0].to_json().to_string_compact();
    let back = YieldResponse::from_json(&cnfet_pipeline::Json::parse(&line).unwrap()).unwrap();
    assert_eq!(back, responses[0]);
}

#[test]
fn wire_session_round_trips_every_kind() {
    // One daemon-style session: evaluate + sweep + describe, all parsed
    // back from their wire bytes.
    let service = YieldService::new();
    let grid = ScenarioGrid {
        scenarios: vec![fast_spec("w-0"), fast_spec("w-1")],
    };
    let requests = [
        YieldRequest::evaluate("a", fast_spec("w"), 3),
        YieldRequest::sweep("b", grid, 3, Some(1)),
        YieldRequest::describe("c"),
    ];
    let mut ids = Vec::new();
    for request in &requests {
        let line = request.to_json().to_string_compact();
        let mut emit = |response: YieldResponse| {
            let wire_line = response.to_json().to_string_compact();
            let parsed =
                YieldResponse::from_json(&cnfet_pipeline::Json::parse(&wire_line).unwrap())
                    .unwrap();
            assert_eq!(parsed, response);
            assert!(!response.is_error(), "unexpected error: {wire_line}");
            ids.push(response.id.clone());
        };
        service.handle_line(&line, &mut emit);
    }
    assert_eq!(ids, ["a", "b", "b", "b", "c"], "ids stay correlated");
    // And a parsed request equals the original (request round-trip).
    let again = YieldRequest::from_json(
        &cnfet_pipeline::Json::parse(&requests[0].to_json().to_string_compact()).unwrap(),
    )
    .unwrap();
    assert_eq!(again.body, requests[0].body);
    assert!(matches!(again.body, RequestBody::Evaluate { seed: 3, .. }));
}
