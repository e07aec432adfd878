//! Fab-space search: axes over **wafer-field hyperparameters**.
//!
//! [`engine::run_co_opt`](crate::engine::run_co_opt) searches scenario
//! fields — knobs a circuit designer picks. This module searches the
//! knobs a *fab* picks: the hyperparameters of the per-die random fields
//! of a [`WaferSpec`] (radial trend slope, correlated-noise amplitude,
//! noise correlation length). The question it answers is Hills et al.'s
//! "rapid co-optimization" loop pointed at process development: *which
//! achievable combination of wafer-uniformity properties yields the best
//! wafer for this design?*
//!
//! A [`FabSpec`] names a base wafer workload plus ordered value lists for
//! hyperparameter keys of the form `<knob>.<param>` (e.g.
//! `density.trend`, `l_cnt_um.correlation_dies`). [`run_fab_search`]
//! evaluates the full cartesian product — every candidate is one
//! deterministic wafer run through the shared caches — and ranks
//! candidates by mean wafer yield (worst-die yield breaks ties). The
//! [`FabReport`] is a pure function of `(spec, seed)`, byte-identical
//! for any worker count, exactly like the wafer engine underneath.

use cnfet_pipeline::wafer::write_wafer_report;
use cnfet_pipeline::{
    Json, PipelineError, Result, WaferReport, WaferSpec, YieldService, STOCHASTIC_KNOBS,
};
use cnt_stats::FieldSpec;
use std::path::{Path, PathBuf};

/// Field hyperparameters a fab axis may vary.
pub const FIELD_PARAMS: [&str; 3] = ["trend", "noise_sd", "correlation_dies"];

/// Cap on the cartesian candidate count (mirrors the co-opt engine's
/// bound; fab candidates are wafer runs, so the guard matters more).
const MAX_CANDIDATES: u64 = 4096;

fn invalid(field: &'static str, msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field,
        msg: msg.into(),
    }
}

/// The valid `<knob>.<param>` axis keys, for suggestions.
fn axis_key_candidates() -> Vec<&'static str> {
    // Static product of STOCHASTIC_KNOBS × FIELD_PARAMS, spelled out so
    // the suggestion machinery can borrow them for the process lifetime.
    vec![
        "density.trend",
        "density.noise_sd",
        "density.correlation_dies",
        "l_cnt_um.trend",
        "l_cnt_um.noise_sd",
        "l_cnt_um.correlation_dies",
        "m_min.trend",
        "m_min.noise_sd",
        "m_min.correlation_dies",
    ]
}

/// One axis of the fab search: a field hyperparameter and its ordered
/// candidate values.
#[derive(Debug, Clone, PartialEq)]
pub struct FabAxis {
    /// Index of the knob in [`STOCHASTIC_KNOBS`].
    pub knob: usize,
    /// Index of the hyperparameter in [`FIELD_PARAMS`].
    pub param: usize,
    /// Ordered candidate values.
    pub values: Vec<f64>,
}

impl FabAxis {
    /// The `<knob>.<param>` key of this axis.
    pub fn key(&self) -> String {
        format!(
            "{}.{}",
            STOCHASTIC_KNOBS[self.knob], FIELD_PARAMS[self.param]
        )
    }

    fn from_json(key: &str, value: &Json) -> Result<Self> {
        let parsed = key.split_once('.').and_then(|(knob, param)| {
            let knob = STOCHASTIC_KNOBS.iter().position(|k| *k == knob)?;
            let param = FIELD_PARAMS.iter().position(|p| *p == param)?;
            Some((knob, param))
        });
        let Some((knob, param)) = parsed else {
            return Err(cnfet_pipeline::json::unknown_key(
                "fab search axis",
                key,
                &axis_key_candidates(),
            ));
        };
        let values = value
            .as_array()
            .ok_or_else(|| invalid("search", format!("axis `{key}` must be a value array")))?
            .iter()
            .map(|v| {
                v.as_f64().filter(|v| v.is_finite()).ok_or_else(|| {
                    invalid("search", format!("axis `{key}` values must be numbers"))
                })
            })
            .collect::<Result<Vec<f64>>>()?;
        if values.is_empty() {
            return Err(invalid(
                "search",
                format!("axis `{key}` must list at least one value"),
            ));
        }
        Ok(Self {
            knob,
            param,
            values,
        })
    }

    fn to_json(&self) -> (String, Json) {
        (
            self.key(),
            Json::Arr(self.values.iter().map(|v| Json::Num(*v)).collect()),
        )
    }
}

/// A declarative fab-space study: a base wafer plus hyperparameter axes.
///
/// The JSON document form:
///
/// ```text
/// {
///   "name": "uniformity-study",
///   "wafer": { …a wafer spec… },
///   "search": {
///     "density.trend": [-0.3, -0.2, -0.1],
///     "density.correlation_dies": [8, 16, 32]
///   }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FabSpec {
    /// Study name (also names the best candidate's wafer artifact).
    pub name: String,
    /// The wafer workload every candidate starts from.
    pub wafer: WaferSpec,
    /// The hyperparameter axes (cartesian product is the search space).
    pub axes: Vec<FabAxis>,
}

/// Top-level keys of a fab spec document.
pub const FAB_KEYS: [&str; 3] = ["name", "wafer", "search"];

impl FabSpec {
    /// Parse a fab study document.
    ///
    /// # Errors
    ///
    /// As [`FabSpec::from_json`], plus JSON parse errors.
    pub fn parse(src: &str) -> Result<Self> {
        Self::from_json(&Json::parse(src)?)
    }

    /// Build from a parsed document.
    ///
    /// # Errors
    ///
    /// Unknown sections/axis keys get suggestions; invalid values are
    /// rejected with the offending axis named.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let fields = doc
            .as_object()
            .ok_or_else(|| invalid("fab", "document must be an object"))?;
        cnfet_pipeline::json::check_keys("fab", fields, &FAB_KEYS)?;
        let name = match doc.get("name") {
            None => "fab".to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| invalid("name", "must be a string"))?
                .to_string(),
        };
        let wafer = WaferSpec::from_json(
            doc.get("wafer")
                .ok_or_else(|| invalid("fab", "a fab spec needs a `wafer` section"))?,
        )?;
        let mut axes = Vec::new();
        let search = doc
            .get("search")
            .and_then(Json::as_object)
            .ok_or_else(|| invalid("search", "a fab spec needs a `search` object"))?;
        for (key, value) in search {
            axes.push(FabAxis::from_json(key, value)?);
        }
        let spec = Self { name, wafer, axes };
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize the spec; [`FabSpec::from_json`] inverts this exactly.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("wafer".to_string(), self.wafer.to_json()),
            (
                "search".to_string(),
                Json::Obj(self.axes.iter().map(FabAxis::to_json).collect()),
            ),
        ])
    }

    /// Check the study is executable.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] for an empty or oversized search
    /// space, duplicate axes, or a candidate that fails field validation.
    pub fn validate(&self) -> Result<()> {
        self.wafer.validate()?;
        if self.axes.is_empty() {
            return Err(invalid("search", "needs at least one axis"));
        }
        let mut keys: Vec<String> = self.axes.iter().map(FabAxis::key).collect();
        keys.sort();
        keys.dedup();
        if keys.len() != self.axes.len() {
            return Err(invalid("search", "axis keys must be unique"));
        }
        if self.candidate_count() > MAX_CANDIDATES {
            return Err(invalid(
                "search",
                format!("search space exceeds {MAX_CANDIDATES} candidates"),
            ));
        }
        // Trial-apply every axis value independently so a bad
        // hyperparameter fails at parse time, not mid-study.
        for axis in &self.axes {
            for &v in &axis.values {
                let mut field = self.effective_field(axis.knob)?;
                set_param(&mut field, axis.param, v);
                field.validate().map_err(|e| {
                    invalid("search", format!("axis `{}` value {v}: {e}", axis.key()))
                })?;
            }
        }
        Ok(())
    }

    /// Size of the full search space (product of axis lengths).
    pub fn candidate_count(&self) -> u64 {
        self.axes
            .iter()
            .map(|a| a.values.len() as u64)
            .product::<u64>()
    }

    /// The starting field of an axis' knob: the wafer's explicit field,
    /// or the base knob's distribution as a trivial field.
    fn effective_field(&self, knob: usize) -> Result<FieldSpec> {
        if let Some(f) = &self.wafer.fields[knob] {
            return Ok(*f);
        }
        let dist = match knob {
            0 => self.wafer.base.density,
            1 => self.wafer.base.l_cnt_um,
            _ => match self.wafer.base.m_min {
                cnfet_pipeline::MminSpec::Fraction(d) => d,
                cnfet_pipeline::MminSpec::SelfConsistent => {
                    return Err(invalid(
                        "search",
                        "an `m_min.*` axis needs a fractional base `m_min`, \
                         not \"self-consistent\"",
                    ));
                }
            },
        };
        Ok(FieldSpec::from_dist(dist))
    }

    /// The wafer workload of one choice vector (`choice[i]` indexes
    /// `axes[i].values`).
    ///
    /// # Errors
    ///
    /// Propagates field validation failures.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is shorter than the axis list or an index is
    /// out of range (an engine bug, not bad input).
    pub fn candidate(&self, choice: &[usize]) -> Result<WaferSpec> {
        let mut wafer = self.wafer.clone();
        for (axis, &pick) in self.axes.iter().zip(choice) {
            let mut field = match wafer.fields[axis.knob] {
                Some(f) => f,
                None => self.effective_field(axis.knob)?,
            };
            set_param(&mut field, axis.param, axis.values[pick]);
            wafer.fields[axis.knob] = Some(field);
        }
        Ok(wafer)
    }
}

fn set_param(field: &mut FieldSpec, param: usize, value: f64) {
    match param {
        0 => field.trend = value,
        1 => field.noise_sd = value,
        _ => field.correlation_dies = value,
    }
}

/// One evaluated fab candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct FabCandidate {
    /// `key=value` labels of this candidate's hyperparameters, in axis
    /// order.
    pub label: String,
    /// Axis value indices of the candidate.
    pub choice: Vec<usize>,
    /// Mean die yield of the candidate's wafer.
    pub overall_yield: f64,
    /// Worst die yield (the tie-breaker).
    pub min_die_yield: f64,
}

/// The result of a fab-space search.
#[derive(Debug, Clone, PartialEq)]
pub struct FabReport {
    /// The study name.
    pub name: String,
    /// The seed the study ran under.
    pub seed: u64,
    /// Every candidate in canonical (row-major choice) order.
    pub candidates: Vec<FabCandidate>,
    /// Index of the best candidate in `candidates`.
    pub best: usize,
    /// The best candidate's full wafer artifact.
    pub best_wafer: WaferReport,
}

impl FabReport {
    /// Serialize the study artifact (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seed".into(), Json::from_u64(self.seed)),
            (
                "candidates".into(),
                Json::Arr(
                    self.candidates
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("label".into(), Json::Str(c.label.clone())),
                                (
                                    "choice".into(),
                                    Json::Arr(
                                        c.choice
                                            .iter()
                                            .map(|&i| Json::from_u64(i as u64))
                                            .collect(),
                                    ),
                                ),
                                ("overall_yield".into(), Json::Num(c.overall_yield)),
                                ("min_die_yield".into(), Json::Num(c.min_die_yield)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("best".into(), Json::from_u64(self.best as u64)),
            ("best_wafer".into(), self.best_wafer.to_json()),
        ])
    }

    /// Write the artifact as `<name>.fab.json` (plus the best wafer as a
    /// standalone `<wafer-name>.wafer.json`), returning the fab path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        write_wafer_report(dir, &self.best_wafer)?;
        let path = dir.join(format!("{}.fab.json", self.name));
        std::fs::write(&path, self.to_json().to_string_pretty())?;
        Ok(path)
    }
}

/// Run a fab-space study: evaluate every hyperparameter combination as a
/// deterministic wafer run and rank by mean yield (worst-die yield breaks
/// ties; earlier canonical order breaks exact ties, so the report is a
/// pure function of `(spec, seed)`).
///
/// # Errors
///
/// Propagates spec validation and wafer-engine errors.
pub fn run_fab_search(
    service: &YieldService,
    spec: &FabSpec,
    seed: u64,
    workers: usize,
) -> Result<FabReport> {
    spec.validate()?;
    let total = spec.candidate_count() as usize;
    let mut candidates = Vec::with_capacity(total);
    let mut reports: Vec<WaferReport> = Vec::with_capacity(total);
    let mut choice = vec![0usize; spec.axes.len()];
    loop {
        let wafer = spec.candidate(&choice)?;
        // Every candidate runs under the SAME seed: the comparison
        // isolates the hyperparameters, not the random draw.
        let report = service.wafer_with_workers(&wafer, seed, workers)?;
        let label = spec
            .axes
            .iter()
            .zip(&choice)
            .map(|(a, &i)| format!("{}={}", a.key(), a.values[i]))
            .collect::<Vec<_>>()
            .join(" ");
        candidates.push(FabCandidate {
            label,
            choice: choice.clone(),
            overall_yield: report.overall_yield,
            min_die_yield: report.min_die_yield,
        });
        reports.push(report);

        // Advance the row-major choice vector (last axis fastest).
        let mut i = spec.axes.len();
        loop {
            if i == 0 {
                let best = (0..candidates.len())
                    .max_by(|&a, &b| {
                        let ca = &candidates[a];
                        let cb = &candidates[b];
                        (ca.overall_yield, ca.min_die_yield)
                            .partial_cmp(&(cb.overall_yield, cb.min_die_yield))
                            .expect("yields are finite")
                            // max_by keeps the LAST maximum; prefer the
                            // earliest canonical candidate on exact ties.
                            .then(b.cmp(&a))
                    })
                    .expect("at least one candidate");
                return Ok(FabReport {
                    name: spec.name.clone(),
                    seed,
                    best,
                    best_wafer: reports.swap_remove(best),
                    candidates,
                });
            }
            i -= 1;
            choice[i] += 1;
            if choice[i] < spec.axes[i].values.len() {
                break;
            }
            choice[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_pipeline::{BackendSpec, CorrelationSpec, RhoSpec, ScenarioSpec};
    use cnt_stats::DistSpec;

    fn small_fab() -> FabSpec {
        let mut base = ScenarioSpec::baseline("fab-base");
        base.backend = BackendSpec::GaussianSum;
        base.fast_design = true;
        base.rho = RhoSpec::Paper;
        base.correlation = CorrelationSpec::GrowthAlignedLayout;
        let mut wafer = WaferSpec::new("fab-wafer", 16, base);
        wafer.fields[0] = Some(FieldSpec {
            dist: DistSpec::Gaussian {
                mean: 1.0,
                sd: 0.05,
            },
            trend: -0.2,
            noise_sd: 0.04,
            correlation_dies: 6.0,
            clamp_lo: 0.3,
            clamp_hi: 2.0,
        });
        FabSpec {
            name: "fab-study".into(),
            wafer,
            axes: vec![
                FabAxis {
                    knob: 0,
                    param: 0,
                    values: vec![-0.4, -0.2, 0.0],
                },
                FabAxis {
                    knob: 0,
                    param: 2,
                    values: vec![4.0, 12.0],
                },
            ],
        }
    }

    #[test]
    fn fab_spec_round_trips_and_counts() {
        let spec = small_fab();
        assert_eq!(spec.candidate_count(), 6);
        let wire = spec.to_json();
        assert_eq!(FabSpec::from_json(&wire).unwrap(), spec);
        assert_eq!(FabSpec::parse(&wire.to_string_pretty()).unwrap(), spec);
    }

    #[test]
    fn fab_axis_typos_get_suggestions() {
        let err = FabSpec::parse(
            r#"{ "wafer": { "diameter_dies": 8 },
                 "search": { "density.tren": [0.0] } }"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("did you mean `density.trend`"),
            "{err}"
        );
        // A flat knob name is not a fab axis (that is a co-opt axis).
        assert!(FabSpec::parse(
            r#"{ "wafer": { "diameter_dies": 8 }, "search": { "density": [1.0] } }"#
        )
        .is_err());
    }

    #[test]
    fn search_ranks_trend_zero_best_and_is_deterministic() {
        let spec = small_fab();
        let service = YieldService::new();
        let a = run_fab_search(&service, &spec, 5, 1).unwrap();
        let b = run_fab_search(&service, &spec, 5, 4).unwrap();
        assert_eq!(a, b, "fab search must be worker-count independent");
        assert_eq!(a.candidates.len(), 6);
        // The flattest wafer (trend 0.0) must beat the steepest (−0.4):
        // less center-to-edge density loss ⇒ higher mean yield.
        let best = &a.candidates[a.best];
        assert!(best.label.contains("density.trend=0"), "{}", best.label);
        let worst = a
            .candidates
            .iter()
            .min_by(|x, y| x.overall_yield.partial_cmp(&y.overall_yield).unwrap())
            .unwrap();
        assert!(
            worst.label.contains("density.trend=-0.4"),
            "{}",
            worst.label
        );
        assert!(best.overall_yield > worst.overall_yield);
        assert_eq!(a.best_wafer.overall_yield, best.overall_yield);
    }
}
