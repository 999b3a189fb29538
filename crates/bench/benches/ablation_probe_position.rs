//! Ablation (Section V-B): the HT's EM offset "depends on the HT size,
//! placement and position relative to the probe in case of EM
//! acquisitions". This bench scans the probe and re-runs the detection
//! with the probe parked at different positions.

use htd_bench::{banner, lab, trace_experiment, KEY, PT};
use htd_core::em_detect::{SideChannel, TraceMetric};
use htd_core::report::{pct, Table};
use htd_core::{Design, ProgrammedDevice};
use htd_em::scan::{hottest, scan, ScanGrid};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Ablation — probe position vs detection",
        "the HT offset depends on its position relative to the probe",
    );
    let mut lab = lab();

    // First, a cartography pass over the golden design to find the global
    // activity hotspot (what a lab does before parking the probe).
    let golden = Design::golden(&lab).expect("golden design builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let events = dev
        .timed_encryption_activity(&PT, &KEY)
        .expect("timed simulation succeeds");
    let grid = ScanGrid::over_device(lab.device.config().cols(), lab.device.config().rows(), 5);
    let map = scan(&events, &lab.em, &lab.acquisition, &grid, 3);
    let hot = hottest(&map).expect("scan non-empty");
    println!(
        "\ncartography: hottest probe position ({:.0},{:.0}) rms {:.0}",
        hot.position.0, hot.position.1, hot.rms
    );

    // The trojan region: infected designs place their cells past the AES
    // block; aim one probe position there, one at the die centre, one at
    // the far corner.
    let infected = Design::infected(&lab, &TrojanSpec::ht1()).expect("insertion succeeds");
    let trojan_slice = infected.trojan().unwrap().slices[0];
    let positions = [
        ("over the trojan", trojan_slice.center()),
        ("die centre (default)", lab.device.center()),
        (
            "far corner",
            (
                lab.device.config().cols() as f64 - 1.0,
                lab.device.config().rows() as f64 - 1.0,
            ),
        ),
    ];

    let n = 48;
    let mut table = Table::new(&["probe position", "HT 1: µ/σ", "HT 1: FN (Eq.5)"]);
    for (label, pos) in positions {
        lab.em.probe.position = pos;
        let rows = trace_experiment(
            &lab,
            &[TrojanSpec::ht1()],
            SideChannel::Em,
            TraceMetric::SumOfLocalMaxima,
            n,
            909,
        );
        let ht1 = &rows[0].channels[0];
        table.push_row(&[
            format!("{label} ({:.0},{:.0})", pos.0, pos.1),
            format!("{:.2}", ht1.mu / ht1.sigma),
            pct(ht1.analytic_fn_rate),
        ]);
    }
    println!("{table}");
    println!("parking the probe near the trojan's slices improves the separation —");
    println!("modestly here, because the RFU-5-2-class probe is near-global (its");
    println!("aperture spans the die); a smaller-aperture probe sharpens the");
    println!("gradient. This is the spatial-resolution lever the paper claims for");
    println!("EM over the position-blind power measurement.");
}
