//! Steadiness mode: two sets of runs of each workload, each run a fresh
//! process on its own seed, and each end-to-end metric's spread and drift
//! against the bound `BENCHMARK.json` fixes for it.
//!
//! The spread of a set is the distance between its first and third
//! quartiles (as Python's `statistics.quantiles(v, n=4)` computes them)
//! as a share of its median. The drift is how much worse the second
//! set's median is than the first's, as a share of the first. The table
//! also gives the spread of both sets together.

use std::process::Command;

use crate::json::Json;
use crate::Fail;

/// Quartiles by the "exclusive" method of `statistics.quantiles`.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |q: f64| {
        if n == 1 {
            return s[0];
        }
        let m = q * (n + 1) as f64;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(0.25), at(0.5), at(0.75))
}

fn spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Json, Fail> {
    let out = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()?;
    let stdout = String::from_utf8(out.stdout)?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status).into());
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(last)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed} reported incorrect output").into());
    }
    Ok(result)
}

/// Runs every workload `BENCHMARK.json` lists.
pub fn run(runs: u64) -> Result<(), Fail> {
    let bench = Json::parse(&std::fs::read_to_string("BENCHMARK.json")?)?;
    let workloads: Vec<&str> = bench
        .get("workloads")
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.str())
        .collect();
    let seconds = bench
        .get("run_seconds")
        .and_then(Json::num)
        .ok_or("run_seconds")? as u64;
    let metrics: Vec<(String, bool, f64)> = bench
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.str()?.to_string(),
                m.get("better")?.str()? == "lower",
                m.get("bound")?.num()?,
            ))
        })
        .collect();
    let mut problems = 0;
    for workload in workloads {
        let mut sets: Vec<Vec<Json>> = Vec::new();
        for set in 0..2 {
            let mut results = Vec::new();
            for i in 0..runs {
                let seed = 1 + set * runs + i;
                let result = one_run(workload, seed, seconds)?;
                let values: Vec<String> = metrics
                    .iter()
                    .filter_map(|(name, _, _)| {
                        let value = result.get("metrics")?.get(name)?.get("value")?.num()?;
                        Some(format!("{name} {value:.4}"))
                    })
                    .collect();
                eprintln!(
                    "perfbench: {workload} set {} seed {seed}: {}",
                    set + 1,
                    values.join(", ")
                );
                results.push(result);
            }
            sets.push(results);
        }
        println!("{workload}: {runs} runs per set, {seconds} s each");
        println!(
            "  {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6}  verdict",
            "metric", "median 1", "median 2", "spread 1", "spread 2", "both", "drift", "bound"
        );
        for (name, lower, bound) in &metrics {
            let values: Vec<Vec<f64>> = sets
                .iter()
                .map(|set| {
                    set.iter()
                        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.num())
                        .collect()
                })
                .collect();
            let (a, b) = (&values[0], &values[1]);
            let (ma, mb) = (quartiles(a).1, quartiles(b).1);
            let worse = if *lower { mb - ma } else { ma - mb };
            let drift = if ma == 0.0 { 0.0 } else { worse / ma.abs() };
            let (sa, sb) = (spread(a), spread(b));
            let both = spread(&[a.as_slice(), b.as_slice()].concat());
            let verdict = if drift > *bound || sa.max(sb) > *bound {
                problems += 1;
                "FAIL"
            } else if sa.max(sb) > bound / 3.0 {
                "wide"
            } else {
                "steady"
            };
            println!(
                "  {name:<14} {ma:>12.4} {mb:>12.4} {sa:>8.4} {sb:>8.4} {both:>8.4} {drift:>8.4} {bound:>6.3}  {verdict}"
            );
        }
    }
    if problems > 0 {
        return Err(format!("{problems} metric(s) out of bounds").into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
