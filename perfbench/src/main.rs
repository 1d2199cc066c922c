//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of wall time. With
//! `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones; each as a `name value unit` line, then one JSON
//! object as the last line. Exits 1 when an output check fails, 2 on
//! bad arguments.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::calibrate;
use perfbench::checks::Checks;
use perfbench::measure::{self, Metric, Subject};
use perfbench::subjects::{Ipsec, Ipv4, Nat};
use perfbench::workloads::{self, AppKind, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run<S: Subject>(w: &Workload, s: &S, a: &Args, c: &mut Checks) -> Vec<Metric> {
    let budget = Duration::from_secs(a.seconds);
    if a.trace {
        measure::per_layer(w, s, budget, c)
    } else {
        let (metrics, b) = measure::end_to_end(w, s, budget, c);
        println!(
            "# virt_lat quantiles: median over {} traffic seed(s), each over >= {} delivered packets",
            w.traffic_seeds, b.latency_samples
        );
        println!(
            "# wall: fastest of {} runs per traffic seed, {:.1} ns/pkt raw; calibration {:.2} ns/step (reference {})",
            b.runs_per_seed,
            b.raw_wall_ns_per_pkt,
            b.cal_ns_per_step,
            calibrate::REF_NS_PER_STEP
        );
        metrics
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn json(c: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&a.workload, a.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            a.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut c = Checks::default();
    let metrics = match w.app {
        AppKind::Ipv4 => run(
            &w,
            &Ipv4 {
                routes: workloads::ipv4_routes(a.seed),
            },
            &a,
            &mut c,
        ),
        AppKind::Ipsec => run(&w, &Ipsec { seed: a.seed }, &a, &mut c),
        AppKind::Nat => run(&w, &Nat { cfg: w.cfg }, &a, &mut c),
    };
    for m in &metrics {
        c.check(m.value.is_finite(), || format!("{} is not finite", m.name));
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for msg in &c.messages {
        eprintln!("perfbench: check failed: {msg}");
    }
    println!("{}", json(&c, &metrics));
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
