//! Replays the stages of one workload's designs through the leaf crates'
//! public functions and prints what each took, one `span <name> <total ns>
//! <calls>` line per stage.
//!
//! ```text
//! perfbench-replay --dies N --seed S --suspects ht1,ht2,ht3,ht-seq
//! ```
//!
//! The stages, each timed around the public call only:
//! - `design.build`: `Design::golden` and `Design::infected`, once per design;
//! - `timing.eventsim`: `ProgrammedDevice::timed_encryption_activity` for
//!   each (design, die) at the trace stimulus, on a device whose timing
//!   tables a first, untimed call has already compiled;
//! - `em.bin_convolve`: `bin_events` + `convolve_kernel` of those events
//!   against the probe's impulse response;
//! - `em.readout`: `read_out` of the convolved signal, once per
//!   acquisition.

use std::hint::black_box;
use std::time::Instant;

use htd_core::{CampaignPlan, Design, Lab, ProgrammedDevice};
use htd_em::{bin_events, convolve_kernel, read_out};
use htd_trojan::TrojanSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The CLI's default trace stimulus (`--pt`, `--key`).
const PT: [u8; 16] = [0x42; 16];
const KEY: [u8; 16] = [0x0f; 16];

#[derive(Default)]
struct Tally {
    ns: u128,
    count: u64,
}

impl Tally {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.ns += start.elapsed().as_nanos();
        self.count += 1;
        out
    }
}

fn arg<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dies: usize = arg(args, "--dies")?.parse()?;
    let seed: u64 = arg(args, "--seed")?.parse()?;
    let suspects = arg(args, "--suspects")?
        .split(',')
        .map(|t| TrojanSpec::from_token(t).ok_or_else(|| format!("unknown suspect `{t}`")))
        .collect::<Result<Vec<_>, _>>()?;
    let lab = Lab::paper();
    let plan = CampaignPlan::traces(dies, PT, KEY, seed);
    let population = lab.fabricate_batch(dies);

    let mut build = Tally::default();
    let mut designs = vec![build.time(|| Design::golden(&lab))?];
    for spec in &suspects {
        designs.push(build.time(|| Design::infected(&lab, spec))?);
    }

    let em = &lab.em;
    let dt = em.scope.sample_period_ps;
    let n_samples = lab.acquisition.n_samples(dt);
    let kernel = em.probe.impulse_response(dt);
    let (mut eventsim, mut bin_convolve, mut readout) =
        (Tally::default(), Tally::default(), Tally::default());
    let (mut times, mut charges, mut impulses, mut clean) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for design in &designs {
        for (j, die) in population.iter().enumerate() {
            let device = ProgrammedDevice::new(&lab, design, die);
            device.timed_encryption_activity(&PT, &KEY)?;
            let events = eventsim.time(|| device.timed_encryption_activity(&PT, &KEY))?;
            times.clear();
            charges.clear();
            for e in &events {
                times.push(e.time_ps);
                charges.push(e.charge * em.probe.coupling(e.position));
            }
            bin_convolve.time(|| {
                bin_events(&times, &charges, dt, n_samples, &mut impulses);
                convolve_kernel(&impulses, &kernel, &mut clean);
            });
            let mut rng = StdRng::seed_from_u64(plan.die_seed(j));
            readout.time(|| {
                read_out(
                    &clean,
                    &em.scope,
                    em.gain,
                    em.setup_gain_jitter,
                    lab.acquisition.averages,
                    &mut rng,
                )
            });
        }
    }
    for (name, tally) in [
        ("design.build", &build),
        ("timing.eventsim", &eventsim),
        ("em.bin_convolve", &bin_convolve),
        ("em.readout", &readout),
    ] {
        println!("span {name} {} {}", tally.ns, tally.count);
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
