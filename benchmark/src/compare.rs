//! `--compare a.jsonl b.jsonl`: two sets of `--out` records, one row per
//! (workload, end-to-end metric), judged against the bounds
//! `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats::{median, quartiles_exclusive};
use std::process::ExitCode;

/// `name → (better, bound)` from the `end_to_end` list of `BENCHMARK.json`.
fn read_bounds(text: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let doc = Json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

/// `(workload, metric) → values` over the untraced records of one file,
/// in first-appearance order.
type Samples = Vec<((String, String), Vec<f64>)>;

fn read_samples(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples: Samples = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}:{}: no result.metrics", n + 1))?;
        for (metric, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{}: {metric} has no value", n + 1))?;
            let key = (workload.to_string(), metric.clone());
            match samples.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => samples.push((key, vec![value])),
            }
        }
    }
    Ok(samples)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `b` against `a`: worse when its median is worse by more than the
/// bound; unresolved when either set's spread is wider than the bound,
/// unless every run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by =
        if lower_is_better { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = if lower_is_better {
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
    } else {
        b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let loaded = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| read_bounds(&text))
        .and_then(|bounds| Ok((bounds, read_samples(path_a)?, read_samples(path_b)?)));
    let (bounds, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound", "spread a", "spread b"
    );
    let mut any_worse = false;
    for ((workload, metric), values_a) in &a {
        let Some((_, values_b)) = b.iter().find(|((w, m), _)| w == workload && m == metric) else {
            println!("{workload:<22} {metric:<20} missing from {path_b}");
            any_worse = true;
            continue;
        };
        let Some((_, lower, bound)) = bounds.iter().find(|(name, _, _)| name == metric) else {
            continue;
        };
        let (worse_by, verdict) = judge(values_a, values_b, *lower, *bound);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<22} {metric:<20} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
            median(values_a),
            median(values_b),
            worse_by * 100.0,
            bound * 100.0,
            spread(values_a) * 100.0,
            spread(values_b) * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_by_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00];
        // 5 % slower against a 10 % bound: fine.
        assert_eq!(
            judge(&steady, &[1.05, 1.05, 1.06], true, 0.10).1,
            Verdict::Ok
        );
        // 20 % slower: a regression.
        let (by, verdict) = judge(&steady, &[1.2, 1.2, 1.21], true, 0.10);
        assert_eq!(verdict, Verdict::Worse);
        assert!((by - 0.2).abs() < 1e-9);
        // For a rate, lower is the regression.
        assert_eq!(
            judge(&steady, &[0.8, 0.8, 0.8], false, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(judge(&steady, &[1.2, 1.2, 1.2], false, 0.10).1, Verdict::Ok);
        // Spread wider than the bound: unresolved …
        let noisy = [0.8, 1.0, 1.2, 1.4];
        assert_eq!(
            judge(&noisy, &[1.0, 1.1, 1.2], true, 0.10).1,
            Verdict::Unresolved
        );
        // … unless every run of b beats every run of a.
        assert_eq!(judge(&noisy, &[0.5, 0.6, 0.7], true, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn reads_bounds_from_the_declaration() {
        let text = r#"{"end_to_end": [
            {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;
        let bounds = read_bounds(text).unwrap();
        assert_eq!(bounds[0], ("run_s".to_string(), true, 0.1));
        assert_eq!(bounds[1], ("events_per_s".to_string(), false, 0.2));
        assert!(read_bounds("{}").is_err());
    }
}
