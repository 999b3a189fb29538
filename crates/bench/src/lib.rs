//! Shared helpers for the `htd` benchmark harnesses.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! DATE 2015 paper and prints the measured rows/series next to the values
//! the paper reports, so the shape comparison is immediate. See
//! EXPERIMENTS.md for the index.

use htd_core::channel::{trace_channel, Channel};
use htd_core::em_detect::{SideChannel, TraceMetric};
use htd_core::fusion::{MultiChannelReport, MultiChannelRow};
use htd_core::{CampaignPlan, Lab, Mode, Run};
use htd_trojan::TrojanSpec;

/// The fixed plaintext used by the EM experiments ("the plaintext is fixed
/// but unknown", Section IV).
pub const PT: [u8; 16] = [
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
];

/// The fixed key used by the EM experiments.
pub const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// The common experimental bench.
pub fn lab() -> Lab {
    Lab::paper()
}

/// Characterizes the golden lot of `plan`, then scores `specs` against it
/// — the campaign's two verbs back to back on the default [`Run`].
///
/// # Panics
///
/// When the campaign fails: a harness has no way to recover.
pub fn experiment(
    lab: &Lab,
    plan: &CampaignPlan,
    specs: &[TrojanSpec],
    channels: &[&dyn Channel],
) -> MultiChannelReport {
    let run = Run::default();
    let charac = run
        .characterize(lab, plan, channels, Mode::Golden)
        .expect("golden characterization runs");
    run.score(lab, &charac, specs, channels)
        .expect("scoring runs")
        .report
}

/// The Section V experiment on one measurement chain: `n_dies` dies, each
/// measured once under the fixed stimulus ([`PT`], [`KEY`]), reduced by
/// `metric`. One row per trojan; its single channel result carries µ, σ
/// and the Eq. (5) and empirical rates.
pub fn trace_experiment(
    lab: &Lab,
    specs: &[TrojanSpec],
    chain: SideChannel,
    metric: TraceMetric,
    n_dies: usize,
    seed: u64,
) -> Vec<MultiChannelRow> {
    let plan = CampaignPlan::traces(n_dies, PT, KEY, seed);
    let channel = trace_channel(chain, metric);
    experiment(lab, &plan, specs, &[&*channel]).rows
}

/// Prints a numeric series as aligned columns of `(index, value)` pairs,
/// downsampled to at most `max_points` evenly spaced points.
pub fn print_series(name: &str, values: &[f64], max_points: usize) {
    println!(
        "# series: {name} ({} points, showing ≤ {max_points})",
        values.len()
    );
    if values.is_empty() {
        return;
    }
    let stride = values.len().div_ceil(max_points).max(1);
    for (i, v) in values.iter().enumerate().step_by(stride) {
        println!("{i:>6} {v:>14.3}");
    }
}

/// Renders a compact ASCII sparkline of a series (8 levels).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| LEVELS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

/// Downsamples a series by taking the max magnitude in each bucket
/// (preserves peaks, which is what the figures care about).
pub fn downsample_peaks(values: &[f64], buckets: usize) -> Vec<f64> {
    if values.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let per = values.len().div_ceil(buckets).max(1);
    values
        .chunks(per)
        .map(|c| {
            c.iter()
                .cloned()
                .max_by(|a, b| a.abs().partial_cmp(&b.abs()).expect("finite"))
                .unwrap_or(0.0)
        })
        .collect()
}

/// Prints a standard header naming the paper artefact being regenerated.
pub fn banner(artefact: &str, paper_says: &str) {
    println!("==================================================================");
    println!("= Reproducing: {artefact}");
    println!("= Paper reports: {paper_says}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_has_one_char_per_value() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert!(s.starts_with('▁'));
    }

    #[test]
    fn downsample_preserves_peaks() {
        let mut v = vec![0.0; 100];
        v[42] = -9.0;
        let d = downsample_peaks(&v, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[4], -9.0);
    }

    #[test]
    fn lab_builds() {
        let _ = lab();
        assert_eq!(PT.len(), 16);
        assert_eq!(KEY.len(), 16);
    }
}
