//! The two measurements: the untraced end-to-end run and the traced
//! per-layer run. Both time calls into the router's public API only.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ps_core::router::rss_hash;
use ps_core::{App, Router, RouterReport};
use ps_pktgen::{Generator, TrafficSpec};
use ps_sim::trace_summary::summarize_collector;
use ps_trace::{Category, CategoryMask, Collector, TraceConfig};

use crate::calibrate::{self, Calibrator};
use crate::checks::Checks;
use crate::harness::{self, fingerprint, Delivered, Tap, TracedApp, Verifier};
use crate::spans::{self, Layer};
use crate::workloads::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The workload's app constructor and its output check.
pub trait Subject {
    /// The application type.
    type A: App + Send;
    /// A fresh, pre-run app (the timed part of set-up).
    fn build(&self) -> Self::A;
    /// Check the sampled deliveries against a reference.
    fn check_outputs(&self, c: &mut Checks, spec: &TrafficSpec, samples: &[Delivered]);
    /// A check of every delivered packet, where one is cheap enough.
    fn verifier(&self) -> Option<Verifier> {
        None
    }
}

/// Timed runs per traffic seed, at least.
const MIN_REPS: usize = 2;
/// Traffic seeds the timed runs cover, at most: the first ones. More
/// seeds steady the virtual metrics, but the fastest of a seed's runs
/// needs many runs to steady the wall-clock ones.
const TIMED_SEEDS: usize = 8;
/// Set-up samples before the timed runs, at least.
const MIN_SETUPS: usize = 5;
/// Share of the time spent on set-up samples: at least this much of
/// the budget before the timed runs, and about this much of the timed
/// phase between its rounds.
const SETUP_SHARE: f64 = 0.1;

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of a set of wall-clock samples. Interference from other
/// tenants only adds time, and on a shared host it comes and goes in
/// phases of seconds, so the fastest run of a phase-spanning series
/// is far steadier between processes than its median (NOTES.md).
fn fastest(v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "fastest of nothing");
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// Exact quantile of a sorted sample (nearest rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Reset the peak-RSS counter (`VmHWM`) so it covers this workload
/// only. Best effort: without the proc file the peak covers the
/// process, which runs one workload anyway.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A memory figure of this process in MiB: `VmHWM:` (peak resident)
/// or `VmRSS:` (resident now).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The calibration loop, warmed up, and the resident memory it adds,
/// which the peak-RSS figure leaves out.
fn calibrator() -> (Calibrator, f64) {
    let before = status_mib("VmRSS:");
    let mut cal = Calibrator::new();
    cal.ns_per_step();
    (cal, status_mib("VmRSS:") - before)
}

/// The reference run every measurement compares against: the router
/// driven through the harness with the delivered-packet tap on. Its
/// report must equal `Router::run`'s; its samples go through the
/// workload's output check and its latencies are exact per packet.
struct Reference {
    report: RouterReport,
    fingerprint: String,
    /// Every in-window round-trip latency, sorted (ns).
    latency_ns: Vec<u64>,
    /// In-window deliveries of packets offered inside the window.
    offered_in_window: u64,
}

fn reference<S: Subject>(w: &Workload, spec: TrafficSpec, s: &S, c: &mut Checks) -> Reference {
    let tap = Tap {
        sample_every: w.sample_every,
        verify: s.verifier(),
        ..Tap::default()
    };
    let (report, h) = harness::run_harness(w.cfg, s.build(), spec, w.duration, Some(tap));
    let mut tap = h.tap.expect("tap installed");
    c.report_identities(&report, tap.offered_in_window);
    c.check(
        tap.latency_ns.len() as u64 == report.latency.count(),
        || {
            format!(
                "tap saw {} deliveries, report {}",
                tap.latency_ns.len(),
                report.latency.count()
            )
        },
    );
    c.check(!tap.samples.is_empty(), || {
        "no delivered packet sampled".into()
    });
    c.add(tap.verified, tap.wrong, std::mem::take(&mut tap.wrong_msgs));
    s.check_outputs(c, &spec, &tap.samples);
    tap.latency_ns.sort_unstable();
    Reference {
        fingerprint: fingerprint(&report),
        report,
        latency_ns: tap.latency_ns,
        offered_in_window: tap.offered_in_window,
    }
}

/// Delivered throughput in the paper's metric; IPsec counts delivered
/// packets at their input frame size (§6.2.4).
fn virt_gbps(w: &Workload, r: &RouterReport) -> f64 {
    match w.app {
        crate::workloads::AppKind::Ipsec => r.out_gbps_input_sized(w.spec.frame_len),
        _ => r.out_gbps(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Set-up samples: app/table construction plus a zero-length run of
/// the same config (router build, GPU upload, execution planning),
/// each followed by a calibration sample. They are taken before the
/// timed runs and between their rounds, so the zero-length run that is
/// subtracted from every timed run is measured across the same host
/// phases as they are.
#[derive(Default)]
struct SetupSamples {
    /// Build plus zero-length run, seconds.
    setup: Vec<f64>,
    /// Zero-length run, seconds.
    zero: Vec<f64>,
    /// Calibration after each sample, ns per step.
    cal: Vec<f64>,
    /// Wall time spent on the samples, seconds.
    spent: f64,
}

impl SetupSamples {
    fn take<S: Subject>(&mut self, w: &Workload, s: &S, calib: &mut Calibrator) {
        let t0 = Instant::now();
        let app = s.build();
        let t1 = Instant::now();
        black_box(Router::run_with_shards(w.cfg, app, w.spec, 0, 1));
        self.zero.push(t1.elapsed().as_secs_f64());
        self.setup.push(t0.elapsed().as_secs_f64());
        self.cal.push(calib.ns_per_step());
        self.spent += t0.elapsed().as_secs_f64();
    }

    /// Median set-up, scaled by the median calibration sample to
    /// reference-core seconds.
    fn reference_s(&self) -> f64 {
        median(self.setup.clone()) * calibrate::REF_NS_PER_STEP / median(self.cal.clone())
    }
}

/// What the end-to-end measurement rests on, for the report's
/// comment lines.
#[derive(Debug, Clone, Copy)]
pub struct Basis {
    /// The fewest delivered packets any traffic seed's latency
    /// quantiles rest on.
    pub latency_samples: usize,
    /// Timed `Router::run`s per traffic seed.
    pub runs_per_seed: usize,
    /// Fastest calibration sample of the timed phase, ns per step.
    pub cal_ns_per_step: f64,
    /// Wall time per delivered packet before calibration, ns.
    pub raw_wall_ns_per_pkt: f64,
}

/// The untraced measurement over the workload's traffic seeds. Each
/// seed gets a reference run (checks, exact latencies). The first
/// [`TIMED_SEEDS`] then get timed `Router::run`s, round robin, each
/// followed by a calibration sample, until `budget` has passed. Wall
/// time per packet is their fastest runs, less the fastest zero-length
/// run, summed over their deliveries and scaled by the fastest
/// calibration sample to reference-core ns; virtual metrics pool all
/// the seeds.
pub fn end_to_end<S: Subject>(
    w: &Workload,
    s: &S,
    budget: Duration,
    c: &mut Checks,
) -> (Vec<Metric>, Basis) {
    let start = Instant::now();
    let specs: Vec<TrafficSpec> = (0..w.traffic_seeds).map(|i| w.traffic(i)).collect();
    let refs: Vec<Reference> = specs.iter().map(|&spec| reference(w, spec, s, c)).collect();
    let (mut calib, calib_mib) = calibrator();
    // The peak covers set-up and the timed runs, not the reference
    // runs' bookkeeping.
    reset_peak_rss();
    let mut setups = SetupSamples::default();
    let setup_start = Instant::now();
    while setups.setup.len() < MIN_SETUPS
        || setup_start.elapsed().as_secs_f64() < budget.as_secs_f64() * SETUP_SHARE
    {
        setups.take(w, s, &mut calib);
    }
    let timed_start = Instant::now();
    let timed = specs.len().min(TIMED_SEEDS);
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); timed];
    let mut cal = Vec::new();
    while walls[0].len() < MIN_REPS || start.elapsed() < budget {
        if setups.spent < timed_start.elapsed().as_secs_f64() * SETUP_SHARE {
            setups.take(w, s, &mut calib);
        }
        for ((&spec, base), wall) in specs.iter().zip(&refs).zip(&mut walls) {
            let app = s.build();
            let t = Instant::now();
            let report = Router::run_with_shards(w.cfg, app, spec, w.duration, 1);
            let run = t.elapsed().as_secs_f64();
            c.same_report(
                "Router::run vs reference",
                &base.fingerprint,
                &fingerprint(&report),
            );
            wall.push(run);
            cal.push(calib.ns_per_step());
        }
    }
    let sum = |f: &dyn Fn(&Reference) -> u64| refs.iter().map(f).sum::<u64>();
    let offered = sum(&|r| r.report.offered.packets);
    let delivered = refs[..timed]
        .iter()
        .map(|r| r.report.delivered.packets)
        .sum::<u64>()
        .max(1) as f64;
    let runs_per_seed = walls[0].len();
    let zero = fastest(setups.zero.clone());
    let wall: f64 = walls.into_iter().map(|runs| fastest(runs) - zero).sum();
    let cal = fastest(cal);
    let raw_ns = wall * 1e9 / delivered;
    let gbps = refs.iter().map(|r| virt_gbps(w, &r.report)).sum::<f64>() / refs.len() as f64;
    // Latency quantiles: exact per traffic seed, median over seeds (a
    // pooled p99.9 would follow the one seed with the worst burst).
    let lat_us = |q: f64| {
        median(
            refs.iter()
                .map(|r| quantile(&r.latency_ns, q) as f64 / 1e3)
                .collect(),
        )
    };
    let metrics = vec![
        metric(
            "wall_ns_per_pkt",
            raw_ns * calibrate::REF_NS_PER_STEP / cal,
            "ns",
        ),
        metric("setup_s", setups.reference_s(), "s"),
        metric("peak_rss_mib", status_mib("VmHWM:") - calib_mib, "MiB"),
        metric("virt_gbps", gbps, "Gbps"),
        metric(
            "virt_loss_ratio",
            1.0 - ratio(sum(&|r| r.offered_in_window), offered),
            "ratio",
        ),
        metric("virt_lat_p50_us", lat_us(0.5), "us"),
        metric("virt_lat_p999_us", lat_us(0.999), "us"),
    ];
    let basis = Basis {
        latency_samples: refs.iter().map(|r| r.latency_ns.len()).min().unwrap_or(0),
        runs_per_seed,
        cal_ns_per_step: cal,
        raw_wall_ns_per_pkt: raw_ns,
    };
    (metrics, basis)
}

/// Per-layer numbers of one traced run, keyed by metric name.
fn traced_once<S: Subject>(
    w: &Workload,
    s: &S,
    base: &Reference,
    generated: u64,
    c: &mut Checks,
) -> Vec<Metric> {
    // Untraced twin, timed the same way (router build + run).
    let app = s.build();
    let t = Instant::now();
    let report = Router::run_with_shards(w.cfg, app, w.spec, w.duration, 1);
    let untraced = t.elapsed().as_nanos() as f64;
    c.same_report(
        "untraced run vs reference",
        &base.fingerprint,
        &fingerprint(&report),
    );

    let app = TracedApp::new(s.build());
    let cfg = TraceConfig {
        mask: CategoryMask::of(&[Category::Stage, Category::Gpu]),
        capacity: 1 << 22,
    };
    ps_trace::install(Collector::new(cfg));
    spans::install();
    let t = Instant::now();
    let (report, h) = harness::run_harness(w.cfg, app, w.spec, w.duration, None);
    let traced = t.elapsed().as_nanos() as f64;
    let all = spans::take();
    let collector = ps_trace::take().expect("collector installed above");
    c.same_report(
        "traced run vs reference",
        &base.fingerprint,
        &fingerprint(&report),
    );
    c.check(collector.dropped == 0, || {
        format!("trace ring evicted {} events", collector.dropped)
    });

    let times = spans::self_times(&all);
    let root = all
        .iter()
        .find(|sp| sp.layer == Layer::Sched)
        .map_or(0, |sp| sp.dur());
    let in_run: u64 = times
        .iter()
        .filter(|(l, _)| **l != Layer::SetupGpu)
        .map(|(_, t)| t.self_ns)
        .sum();
    c.check(in_run == root, || {
        format!("layer self times sum to {in_run} ns, traced run_until took {root} ns")
    });
    drop(all);

    let r = &report;
    let delivered = r.delivered.packets.max(1) as f64;
    let self_ns = |l: Layer| times.get(&l).map_or(0, |t| t.self_ns) as f64 / delivered;
    let events: u64 = h.events.iter().sum();
    let mut out = vec![
        metric("sim.sched_ns_per_pkt", self_ns(Layer::Sched), "ns"),
        metric("sim.events_per_pkt", events as f64 / delivered, "count"),
    ];
    // Cross-node arrivals never happen on the paper box (no priced QPI
    // hop), so they count in the total only.
    let kinds = [
        Layer::Gen,
        Layer::Rx,
        Layer::Worker,
        Layer::Master,
        Layer::Tx,
    ];
    for l in kinds {
        let kind = l.name().trim_start_matches("router.");
        out.push(metric(
            format!("sim.events_per_pkt.{kind}"),
            h.count(l) as f64 / delivered,
            "count",
        ));
    }
    for l in kinds {
        out.push(metric(format!("{}_ns_per_pkt", l.name()), self_ns(l), "ns"));
    }
    let app = h.router.app();
    out.push(metric(
        "router.master_useful_ratio",
        ratio(app.shades, h.count(Layer::Master)),
        "ratio",
    ));
    out.push(metric(
        "router.worker_useful_ratio",
        ratio(app.fetches, h.count(Layer::Worker)),
        "ratio",
    ));
    for l in [Layer::PreShade, Layer::ProcessCpu, Layer::Shade] {
        out.push(metric(format!("{}_ns_per_pkt", l.name()), self_ns(l), "ns"));
    }
    out.push(metric("sim.pending_peak", h.pending_peak as f64, "count"));
    out.extend([
        metric("io.rx_batch_mean", r.mean_rx_batch, "pkts"),
        metric("gpu.shade_batch_mean", r.mean_shade_batch, "pkts"),
        metric(
            "gpu.kernels_per_kpkt",
            r.gpu_kernels as f64 * 1e3 / delivered,
            "count",
        ),
        metric(
            "columns.h2d_bytes_per_pkt",
            r.h2d_bytes_per_pkt().unwrap_or(0.0),
            "B",
        ),
        metric(
            "columns.d2h_bytes_per_pkt",
            r.d2h_bytes_per_pkt().unwrap_or(0.0),
            "B",
        ),
        metric("ioh.d2h_gbps", r.ioh_d2h_gbit.iter().sum(), "Gbps"),
        metric("ioh.h2d_gbps", r.ioh_h2d_gbit.iter().sum(), "Gbps"),
        metric("nic.peak_ring_depth", r.peak_ring_depth as f64, "pkts"),
        metric(
            "nic.admission_drop_ratio",
            ratio(r.drops.nic_admission, generated),
            "ratio",
        ),
        metric(
            "nic.ring_tail_drop_ratio",
            ratio(r.drops.ring_tail, generated),
            "ratio",
        ),
        metric("app.drop_ratio", ratio(r.app_drops, generated), "ratio"),
        metric("virt.sojourn_p99_us", r.sojourn.p99() as f64 / 1e3, "us"),
    ]);
    // Virtual busy time of each resource class over the whole run. In
    // stream mode (concurrent copy) the master does not wait out its
    // shading, so only gathers keep it busy.
    let sum = summarize_collector(&collector, w.duration);
    let stage = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| sum.stage(n))
            .fold(0.0, |acc, s| acc + s.total_ns as f64)
    };
    let master_stages: &[&str] = if w.cfg.concurrent_copy {
        &["gather"]
    } else {
        &["gather", "shade"]
    };
    let window = w.duration as f64;
    let workers = w.cfg.total_workers() as f64;
    let nodes = w.cfg.nodes as f64;
    out.extend([
        metric(
            "worker.busy_frac",
            stage(&["pre_shade", "cpu_process", "post_shade"]) / (workers * window),
            "ratio",
        ),
        metric(
            "master.busy_frac",
            stage(master_stages) / (nodes * window),
            "ratio",
        ),
        metric(
            "gpu.busy_frac",
            stage(&["kernel"]) / (nodes * window),
            "ratio",
        ),
        metric("trace.overhead_ratio", traced / untraced, "ratio"),
    ]);
    out
}

/// Set-up split: app build, GPU upload (the `setup_gpu` spans) and the
/// rest of the zero-length `Router::run`.
fn setup_split<S: Subject>(w: &Workload, s: &S) -> Vec<Metric> {
    let t = Instant::now();
    let app = s.build();
    let build = t.elapsed().as_secs_f64();
    spans::install();
    let t = Instant::now();
    black_box(Router::run_with_shards(
        w.cfg,
        TracedApp::new(app),
        w.spec,
        0,
        1,
    ));
    let zero = t.elapsed().as_secs_f64();
    let upload = spans::take().iter().map(|sp| sp.dur()).sum::<u64>() as f64 / 1e9;
    vec![
        metric("setup.app_build_s", build, "s"),
        metric("setup.gpu_upload_s", upload, "s"),
        metric("setup.router_s", zero - upload, "s"),
    ]
}

/// Isolated replay of the generator and the RSS hash over the
/// workload's own traffic: every packet the spec offers before
/// `duration` is drawn and materialized, then hashed. Also returns
/// that packet count.
fn replay(w: &Workload) -> (Vec<Metric>, u64) {
    const FRAMES: usize = 4096;
    let mut g = Generator::new(w.spec);
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(FRAMES);
    let mut buf = Vec::new();
    let mut n = 0u64;
    let t = Instant::now();
    while g.next_time() < w.duration {
        let meta = g.next_meta();
        let p = g.materialize_into(&meta, buf);
        buf = black_box(p).data;
        if frames.len() < FRAMES {
            frames.push(buf.clone());
        }
        n += 1;
    }
    let gen_ns = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let t = Instant::now();
    let mut acc = 0u32;
    for i in 0..n as usize {
        acc ^= rss_hash(black_box(&frames[i % frames.len()]));
    }
    black_box(acc);
    let rss_ns = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let metrics = vec![
        metric("pktgen.ns_per_offered", gen_ns, "ns"),
        metric("nic.rss_ns_per_pkt", rss_ns, "ns"),
    ];
    (metrics, n)
}

/// The traced measurement, on the workload seed's own traffic (the
/// first traffic seed): (untraced, traced) run pairs until `budget`
/// has passed, per-metric medians, plus the set-up split and the
/// isolated generator/RSS replay.
pub fn per_layer<S: Subject>(w: &Workload, s: &S, budget: Duration, c: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let base = reference(w, w.spec, s, c);
    // Drop counters cover the whole run, so their ratios are over every
    // packet the generator offers in it.
    let (replayed, generated) = replay(w);
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    while runs.is_empty() || start.elapsed() < budget {
        runs.push(traced_once(w, s, &base, generated, c));
    }
    let mut out: Vec<Metric> = runs[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            metric(
                m.name.clone(),
                median(runs.iter().map(|r| r[i].value).collect()),
                m.unit,
            )
        })
        .collect();
    out.extend(setup_split(w, s));
    out.extend(replayed);
    out
}
