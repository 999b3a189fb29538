//! Quickstart: build a golden and an infected AES-128, program them onto
//! the same virtual FPGA, and detect the trojan with both of the paper's
//! methods in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::em_detect::direct_compare;
use htd_core::prelude::*;
use htd_core::ProgrammedDevice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The virtual laboratory: scaled Virtex-5, 65 nm variations, EM
    //    bench at 5 GS/s (paper Appendix A/B).
    let lab = Lab::paper();

    // 2. Designs: the golden AES-128 and an infected copy carrying the
    //    paper's combinational trojan (32 SubBytes taps, DoS payload),
    //    inserted into unused slices with the original placement intact.
    let golden = Design::golden(&lab)?;
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb())?;
    println!(
        "golden AES: {} | trojan: {} cells in {} slices ({:.2}% of the AES)",
        golden.aes().netlist().stats(),
        infected.trojan().unwrap().cells.len(),
        infected.trojan().unwrap().distinct_slices(),
        infected
            .trojan()
            .unwrap()
            .fraction_of_design(golden.used_slices())
            * 100.0,
    );

    // 3. Program both bitstreams into the same virtual FPGA.
    let die = lab.fabricate_die(0);
    let golden_dev = ProgrammedDevice::new(&lab, &golden, &die);
    let suspect_dev = ProgrammedDevice::new(&lab, &infected, &die);

    // Sanity: the dormant trojan does not change the cipher.
    let pt = [0x42u8; 16];
    let key = [0x0Fu8; 16];
    assert_eq!(
        golden_dev.encrypt(&pt, &key)?,
        suspect_dev.encrypt(&pt, &key)?
    );
    println!("dormant trojan preserves AES function ✓");

    // 4. Delay analysis (Section III): characterise the golden model with
    //    clock-glitch sweeps, then compare the suspect.
    let campaign = DelayCampaign::random(10, 10, 0x5EED);
    let detector = DelayDetector::new(characterize_golden(
        &Engine::default(),
        &golden_dev,
        campaign,
    )?);
    let evidence = detector.examine(&Engine::default(), &suspect_dev, 1)?;
    println!(
        "delay analysis: {} bits shifted by more than {} ps (max {:.0} ps) → {}",
        evidence.flagged_bits,
        evidence.threshold_ps,
        evidence.max_diff_ps,
        if evidence.infected {
            "HT DETECTED"
        } else {
            "clean"
        },
    );

    // 5. EM analysis (Section IV): two genuine averaged traces bound the
    //    setup noise; the suspect trace deviates far above it.
    let g1 = golden_dev.acquire_em_trace(&pt, &key, 100)?;
    let g2 = golden_dev.acquire_em_trace(&pt, &key, 200)?;
    let suspect_trace = suspect_dev.acquire_em_trace(&pt, &key, 300)?;
    let cmp = direct_compare(&g1, &g2, &suspect_trace);
    println!(
        "EM analysis: deviation {:.0} vs noise floor {:.0} (sample {}) → {}",
        cmp.max_abs_diff,
        cmp.noise_floor,
        cmp.argmax,
        if cmp.infected { "HT DETECTED" } else { "clean" },
    );

    assert!(evidence.infected && cmp.infected);
    println!("\nboth of the paper's methods catch the dormant trojan.");
    Ok(())
}
