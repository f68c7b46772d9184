//! `ledger compare <a.jsonl> <b.jsonl>`: two sets of end-to-end runs, one
//! row per (workload, metric). A set is whatever `--out` appended to the
//! file — several seeds of every workload, ideally ten.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use std::path::Path;

/// The untraced records of one file.
struct RunSet(Vec<Json>);

impl RunSet {
    fn read(path: &Path) -> Result<RunSet, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| RunSet::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<RunSet, String> {
        let records: Result<Vec<Json>, String> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(Json::parse)
            .collect();
        let untraced = |r: &Json| r.get("trace") == Some(&Json::Bool(false));
        Ok(RunSet(records?.into_iter().filter(untraced).collect()))
    }

    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> {
        self.0
            .iter()
            .filter(move |r| r.get("workload").and_then(Json::str) == Some(workload))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.of(workload)
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num())
            .collect()
    }

    /// Iterations failed ÷ attempted over the workload's runs.
    fn failed_frac(&self, workload: &str) -> f64 {
        let sum = |key: &str| -> f64 {
            self.of(workload)
                .filter_map(|r| r.get(key)?.num())
                .sum::<f64>()
        };
        sum("failed") / sum("attempted").max(1.0)
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    /// A set's own quartile spread exceeds the bound: no claim either way.
    Unresolved,
    Worse,
}

/// `change` is b's median relative to a's, signed so that positive is worse.
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
    let worse_by = if lower_is_better { change } else { -change };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Print the table; `Ok(false)` when b is worse than a beyond a bound on
/// any row, or fails more often.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    Ok(compare_sets(&RunSet::read(a_path)?, &RunSet::read(b_path)?))
}

fn compare_sets(a: &RunSet, b: &RunSet) -> bool {
    let mut pass = true;
    println!(
        "{:<14} {:<12} {:>4} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "a median",
        "b median",
        "worse%",
        "a iqr%",
        "b iqr%",
        "bound%"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (a.values(workload, m.name), b.values(workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, verdict) = judge(&va, &vb, m.better == "lower", m.bound);
            pass &= verdict != Verdict::Worse;
            println!(
                "{:<14} {:<12} {:>4} {:>12.4} {:>12.4} {:>+8.2} {:>7.2} {:>7.2} {:>6.0}  {}",
                workload,
                m.name,
                va.len().min(vb.len()),
                median(&va),
                median(&vb),
                worse_by * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Worse => "WORSE",
                }
            );
        }
        let (fa, fb) = (a.failed_frac(workload), b.failed_frac(workload));
        if fb > fa {
            pass = false;
            println!("{workload:<14} failed_frac rose from {fa} to {fb}  WORSE");
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&steady, &steady, true, 0.1).1, Verdict::Ok);
        let (by, verdict) = judge(&steady, &slower, true, 0.1);
        assert!((by - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Worse);
        // The same numbers are a gain for a higher-is-better metric.
        assert_eq!(judge(&steady, &slower, false, 0.1).1, Verdict::Ok);
        assert_eq!(judge(&slower, &steady, false, 0.1).1, Verdict::Worse);
        assert_eq!(judge(&steady, &noisy, true, 0.1).1, Verdict::Unresolved);
        assert_eq!(judge(&[5.0], &[5.2], true, 0.1).1, Verdict::Ok);
    }

    #[test]
    fn sets_are_read_back_from_appended_records() {
        let record = |trace: bool, p50: f64, failed: u64| {
            let value = Json::obj([("value", Json::from(p50))]);
            Json::obj([
                ("workload", Json::from("matmul_inproc")),
                ("trace", Json::Bool(trace)),
                ("attempted", Json::from(10u64)),
                ("failed", Json::from(failed)),
                ("metrics", Json::obj([("iter_ms_p50", value)])),
            ])
            .to_string()
        };
        let set = |lines: &[String]| RunSet::parse(&lines.join("\n")).unwrap();
        let a = set(&[record(false, 100.0, 0), record(true, 900.0, 0)]);
        assert_eq!(a.values("matmul_inproc", "iter_ms_p50"), [100.0]);
        assert!(a.values("small_queries", "iter_ms_p50").is_empty());
        assert!(compare_sets(&a, &set(&[record(false, 104.0, 0)])));
        assert!(!compare_sets(&a, &set(&[record(false, 150.0, 0)])));
        assert!(!compare_sets(&a, &set(&[record(false, 100.0, 1)])));
        assert!(RunSet::parse("{not json").is_err());
        assert!(compare(Path::new("no-such-a.jsonl"), Path::new("no-such-b.jsonl")).is_err());
    }
}
