//! `kbench compare` and `kbench summarize` over results files.
//!
//! Verdicts follow the choosing-metrics rules the bounds in
//! `BENCHMARK.json` were set for: a metric is **worse** when the
//! change's median is worse than the base median by more than the
//! bound; **unresolved** when the base runs' own spread (quartile
//! distance over median) exceeds the bound, unless every change run
//! beats every base run; **better** only when the change wins at least
//! nine tenths of the paired runs (ties count for neither) and the
//! medians differ by more than the base quartile distance; otherwise
//! **same**.

use crate::json::{self, Value};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One run's metrics, as read from a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Reads the runs in a results file (one result object or an array).
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let items = match &doc {
        Value::Arr(items) => items.clone(),
        other => vec![other.clone()],
    };
    items
        .iter()
        .map(|item| {
            let bad = || format!("{}: not a kbench results file", path.display());
            let metrics = item
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(bad)?
                .iter()
                .filter_map(|(name, m)| {
                    Some((
                        name.clone(),
                        (
                            m.get("value")?.as_f64()?,
                            m.get("unit")?.as_str()?.to_owned(),
                        ),
                    ))
                })
                .collect();
            Ok(Run {
                workload: item
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or_else(bad)?
                    .to_owned(),
                seed: item.get("seed").and_then(Value::as_f64).ok_or_else(bad)? as u64,
                metrics,
            })
        })
        .collect()
}

/// A metric's regression allowance and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
    /// Whether larger values are better.
    pub higher_better: bool,
}

/// The end-to-end bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A document without a well-formed `end_to_end` list.
pub fn bounds(benchmark: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            let better = m.get("better").and_then(Value::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(dir @ ("lower" | "higher"))) => Ok((
                    n.to_owned(),
                    Bound {
                        bound: b,
                        higher_better: dir == "higher",
                    },
                )),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// The judgement on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound and no gain shown.
    Same,
    /// A gain by the nine-in-ten rule (or every change run better).
    Better,
    /// Worse than the bound allows.
    Worse,
    /// The base spread exceeds the bound.
    Unresolved,
    /// The metric has no bound.
    Unbounded,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "unbounded",
        }
    }
}

/// Judges `change` against `base` (same metric and workload); `pairs`
/// are `(base, change)` values of runs matched by seed.
pub fn verdict(
    base: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    bound: Option<Bound>,
) -> Verdict {
    let (Some(bound), Some(b), Some(c)) = (bound, Summary::of(base), Summary::of(change)) else {
        return Verdict::Unbounded;
    };
    // Oriented so that a positive difference is a worsening.
    let sign = if bound.higher_better { -1.0 } else { 1.0 };
    let worse = |from: f64, to: f64| sign * (to - from);
    let all_better = change
        .iter()
        .all(|&x| base.iter().all(|&y| worse(y, x) < 0.0));
    if b.spread() > bound.bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse(b.median, c.median) > bound.bound * b.median.abs() {
        return Verdict::Worse;
    }
    let wins = pairs.iter().filter(|(x, y)| worse(*x, *y) < 0.0).count();
    let gain = worse(b.median, c.median) < 0.0 && (c.median - b.median).abs() > b.p75 - b.p25;
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && gain {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base runs.
    pub base: Summary,
    /// Change runs.
    pub change: Summary,
    /// The bound applied.
    pub bound: Option<Bound>,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares every (workload, metric) present on both sides.
pub fn compare(base: &[Run], change: &[Run], bounds: &BTreeMap<String, Bound>) -> Vec<Row> {
    let mut keys: Vec<(String, String)> = base
        .iter()
        .flat_map(|r| r.metrics.keys().map(|m| (r.workload.clone(), m.clone())))
        .collect();
    keys.sort();
    keys.dedup();
    let values = |runs: &[Run], w: &str, m: &str| -> Vec<(u64, f64)> {
        runs.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.get(m).map(|v| (r.seed, v.0)))
            .collect()
    };
    keys.into_iter()
        .filter_map(|(w, m)| {
            let b = values(base, &w, &m);
            let c = values(change, &w, &m);
            let bv: Vec<f64> = b.iter().map(|x| x.1).collect();
            let cv: Vec<f64> = c.iter().map(|x| x.1).collect();
            let mut pairs: Vec<(f64, f64)> = b
                .iter()
                .filter_map(|&(seed, x)| c.iter().find(|y| y.0 == seed).map(|y| (x, y.1)))
                .collect();
            if pairs.is_empty() {
                pairs = bv.iter().copied().zip(cv.iter().copied()).collect();
            }
            let bound = bounds.get(&m).copied();
            let unit = base
                .iter()
                .find_map(|r| r.metrics.get(&m).map(|v| v.1.clone()))
                .unwrap_or_default();
            Some(Row {
                verdict: verdict(&bv, &cv, &pairs, bound),
                base: Summary::of(&bv)?,
                change: Summary::of(&cv)?,
                workload: w,
                metric: m,
                unit,
                bound,
            })
        })
        .collect()
}

/// Renders rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<19} {:<27} {:>13} {:>13} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "base", "change", "delta", "spread", "bound", "verdict"
    );
    for r in rows {
        let delta = 100.0 * (r.change.median - r.base.median) / r.base.median.abs();
        let _ = writeln!(
            out,
            "{:<19} {:<27} {:>13.6} {:>13.6} {:>7.2}% {:>7.2}% {:>6}  {}  [{} n={}/{}]",
            r.workload,
            r.metric,
            r.base.median,
            r.change.median,
            delta,
            100.0 * r.base.spread(),
            r.bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", 100.0 * b.bound)),
            r.verdict.label(),
            r.unit,
            r.base.n,
            r.change.n,
        );
    }
    out
}

/// Median and quartiles per (workload, metric) over `runs`, as JSON.
pub fn summarize(runs: &[Run]) -> String {
    let mut groups: BTreeMap<&str, BTreeMap<&str, (Vec<f64>, &str)>> = BTreeMap::new();
    for r in runs {
        for (m, (v, unit)) in &r.metrics {
            groups
                .entry(&r.workload)
                .or_default()
                .entry(m)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(*v);
        }
    }
    let mut out = String::from("{");
    for (i, (w, metrics)) in groups.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  {}: {{",
            if i > 0 { "," } else { "" },
            json::string(w)
        );
        for (j, (m, (values, unit))) in metrics.iter().enumerate() {
            let s = Summary::of(values).expect("groups hold at least one value");
            let _ = write!(
                out,
                "{}\n    {}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"p25\": {}, \"p75\": {}}}",
                if j > 0 { "," } else { "" },
                json::string(m),
                json::string(unit),
                s.n,
                json::number(s.median),
                json::number(s.p25),
                json::number(s.p75),
            );
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}
