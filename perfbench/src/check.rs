//! The correctness gate every op's terminal response must pass.

use cnfet_pipeline::{CoOptReport, ResponseBody, ScenarioReport, WaferReport, YieldResponse};

/// What a workload's responses must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A scenario report whose `W_min` meets its own requirement.
    Evaluate,
    /// A co-optimization report whose best point lies on its front.
    CoOpt,
    /// A wafer report covering every die of the spec.
    Wafer {
        /// `WaferSpec::die_count()` of the requested wafer.
        dies: u64,
    },
}

/// Check one terminal response; `Err` names the first violated rule.
pub fn check(expect: Expect, id: &str, response: &YieldResponse) -> Result<(), String> {
    if response.id != id {
        return Err(format!(
            "expected a response to `{id}`, got `{}`",
            response.id
        ));
    }
    match (expect, &response.body) {
        (_, ResponseBody::Error(e)) => Err(format!("error {}: {}", e.code.tag(), e.message)),
        (Expect::Evaluate, ResponseBody::Report(report)) => check_scenario(report),
        (Expect::CoOpt, ResponseBody::CoOpt(report)) => check_coopt(report),
        (Expect::Wafer { dies }, ResponseBody::Wafer(report)) => check_wafer(report, dies),
        (_, other) => Err(format!("unexpected body {other:?}")),
    }
    .map_err(|e| format!("`{id}`: {e}"))
}

fn check_scenario(report: &ScenarioReport) -> Result<(), String> {
    if !(report.w_min_nm.is_finite() && report.w_min_nm > 0.0) {
        return Err(format!(
            "w_min_nm {} is not a positive width",
            report.w_min_nm
        ));
    }
    if report.p_at_w_min.is_nan() || report.p_at_w_min > report.p_req {
        return Err(format!(
            "p_at_w_min {} exceeds p_req {}",
            report.p_at_w_min, report.p_req
        ));
    }
    Ok(())
}

fn check_coopt(report: &CoOptReport) -> Result<(), String> {
    if report.evaluations > report.candidates {
        return Err(format!(
            "{} evaluations of {} candidates",
            report.evaluations, report.candidates
        ));
    }
    if !report.front.points().contains(&report.best) {
        return Err(format!(
            "best `{}` is not on the front",
            report.best.scenario
        ));
    }
    Ok(())
}

fn check_wafer(report: &WaferReport, dies: u64) -> Result<(), String> {
    if report.dies != dies {
        return Err(format!(
            "{} dies reported, the spec has {dies}",
            report.dies
        ));
    }
    let yields = [
        report.overall_yield,
        report.min_die_yield,
        report.max_die_yield,
    ];
    let bands = report.radial.iter().map(|band| band.mean_yield);
    match yields
        .into_iter()
        .chain(bands)
        .find(|y| !(0.0..=1.0).contains(y))
    {
        Some(y) => Err(format!("yield {y} outside [0, 1]")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_pipeline::{ErrorCode, ServiceError};

    fn report() -> ScenarioReport {
        ScenarioReport {
            name: "s".into(),
            seed: 1,
            library: "nangate45".into(),
            node_nm: 45.0,
            corner: "custom".into(),
            correlation: "growth".into(),
            backend: "convolution".into(),
            yield_target: 0.9,
            m_transistors: 1e8,
            m_min: 3.3e7,
            m_r_min: 400.0,
            relaxation: 400.0,
            p_req: 3.2e-9,
            w_min_nm: 104.0,
            p_at_w_min: 3.1e-9,
            upsizing_penalty: 0.01,
            unaligned_p_rf_mc: None,
            mc: None,
            fault: None,
        }
    }

    fn respond(report: ScenarioReport) -> YieldResponse {
        YieldResponse::new("c0-1", ResponseBody::Report(report))
    }

    #[test]
    fn a_sound_report_passes() {
        assert_eq!(check(Expect::Evaluate, "c0-1", &respond(report())), Ok(()));
    }

    #[test]
    fn corrupted_responses_fail() {
        let above = ScenarioReport {
            p_at_w_min: 4e-9,
            ..report()
        };
        let nan = ScenarioReport {
            w_min_nm: f64::NAN,
            ..report()
        };
        let negative = ScenarioReport {
            w_min_nm: -1.0,
            ..report()
        };
        let nan_p = ScenarioReport {
            p_at_w_min: f64::NAN,
            ..report()
        };
        for bad in [above, nan, negative, nan_p] {
            assert!(check(Expect::Evaluate, "c0-1", &respond(bad)).is_err());
        }
        assert!(check(Expect::Evaluate, "c0-2", &respond(report())).is_err());
        let error = YieldResponse::error(
            "c0-1",
            ServiceError {
                code: ErrorCode::Internal,
                message: "boom".into(),
            },
        );
        assert!(check(Expect::Evaluate, "c0-1", &error).is_err());
        assert!(check(Expect::Wafer { dies: 4 }, "c0-1", &respond(report())).is_err());
    }

    #[test]
    fn a_corrupted_response_is_counted_as_failed_not_timed() {
        let mut tally = crate::stats::Tally::default();
        let good = respond(report());
        let corrupted = respond(ScenarioReport {
            p_at_w_min: 1.0,
            ..report()
        });
        let ms = std::time::Duration::from_millis;
        tally.record(ms(21), check(Expect::Evaluate, "c0-1", &good));
        tally.record(ms(22), check(Expect::Evaluate, "c0-1", &corrupted));
        assert_eq!((tally.attempted(), tally.failed), (2, 1));
        assert!(tally
            .first_failure
            .as_ref()
            .is_some_and(|f| f.contains("p_at_w_min")));
        // The corrupted op's 22 ms never enters the latencies: it misses
        // every latency, so it sorts last as +inf.
        assert_eq!(tally.sorted(), vec![21.0, f64::INFINITY]);
    }
}
