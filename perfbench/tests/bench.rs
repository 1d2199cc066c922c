//! The benchmark's own tests: the app wrapper is transparent, and
//! every workload runs end to end and traced with its checks passing.

use std::time::Duration;

use perfbench::checks::Checks;
use perfbench::harness::{fingerprint, run_harness, TracedApp};
use perfbench::measure::{self, Metric, Subject};
use perfbench::spans;
use perfbench::subjects::{Ipsec, Ipv4, Nat};
use perfbench::workloads::{self, AppKind, Workload};
use ps_core::apps::Ipv4App;
use ps_core::{App, Router};
use ps_lookup::route::Route4;
use ps_lookup::synth;
use ps_sim::time::MILLIS;

fn small_routes() -> Vec<Route4> {
    let mut routes = vec![
        Route4::new(0x0000_0000, 1, 0),
        Route4::new(0x8000_0000, 1, 4),
    ];
    routes.extend(synth::routeviews_like(2_000, 8, 5));
    routes
}

#[test]
fn traced_app_leaves_report_and_staging_unchanged() {
    let w = workloads::workload("ipv4-64B-gpu-line", 3).unwrap();
    let routes = small_routes();
    let d = MILLIS;

    let plain = Router::run_with_shards(w.cfg, Ipv4App::new(&routes), w.spec, d, 1);
    let wrapped =
        Router::run_with_shards(w.cfg, TracedApp::new(Ipv4App::new(&routes)), w.spec, d, 1);
    assert_eq!(fingerprint(&plain), fingerprint(&wrapped));

    let (r0, h0) = run_harness(w.cfg, Ipv4App::new(&routes), w.spec, d, None);
    spans::install();
    let (r1, h1) = run_harness(
        w.cfg,
        TracedApp::new(Ipv4App::new(&routes)),
        w.spec,
        d,
        None,
    );
    let recorded = spans::take();
    assert!(!recorded.is_empty(), "the traced run recorded spans");
    assert_eq!(fingerprint(&r0), fingerprint(&plain));
    assert_eq!(fingerprint(&r1), fingerprint(&plain));
    assert!(h0.router.app().staging_totals().is_some());
    assert_eq!(
        h0.router.app().staging_totals(),
        h1.router.app().staging_totals()
    );
    assert_eq!(h0.events, h1.events);
    assert!(h1.router.app().fetches > 0);
    assert!(h1.router.app().shades > 0);
}

fn short(name: &str) -> Workload {
    let mut w = workloads::workload(name, 7).unwrap();
    w.duration = MILLIS;
    w.traffic_seeds = w.traffic_seeds.min(2);
    w
}

fn smoke<S: Subject>(w: &Workload, s: &S) {
    let mut c = Checks::default();
    let (e2e, basis) = measure::end_to_end(w, s, Duration::ZERO, &mut c);
    let traced = measure::per_layer(w, s, Duration::ZERO, &mut c);
    assert_eq!(c.failed, 0, "{}: {:?}", w.name, c.messages);
    assert!(c.attempted > 10);
    assert!(basis.latency_samples > 0);
    assert!(basis.runs_per_seed >= 2);
    assert!(basis.cal_ns_per_step > 0.0);
    let names = |ms: &[Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&e2e),
        [
            "wall_ns_per_pkt",
            "setup_s",
            "peak_rss_mib",
            "virt_gbps",
            "virt_loss_ratio",
            "virt_lat_p50_us",
            "virt_lat_p999_us"
        ]
    );
    for m in e2e.iter().chain(&traced) {
        assert!(m.value.is_finite() && m.value >= 0.0, "{}: {m:?}", w.name);
    }
    for m in &e2e {
        assert!(m.value > 0.0, "{}: end-to-end {m:?} is zero", w.name);
    }
    assert_eq!(traced.len(), 39, "{}", w.name);
}

fn smoke_workload(name: &str) {
    let w = short(name);
    match w.app {
        AppKind::Ipv4 => smoke(
            &w,
            &Ipv4 {
                routes: small_routes(),
            },
        ),
        AppKind::Ipsec => smoke(&w, &Ipsec { seed: 7 }),
        AppKind::Nat => smoke(&w, &Nat { cfg: w.cfg }),
    }
}

#[test]
fn smoke_ipv4_64b_gpu_line() {
    smoke_workload("ipv4-64B-gpu-line");
}

#[test]
fn smoke_ipv4_64b_cpu_line() {
    smoke_workload("ipv4-64B-cpu-line");
}

#[test]
fn smoke_ipsec_1514b_gpu_line() {
    smoke_workload("ipsec-1514B-gpu-line");
}

#[test]
fn smoke_nat_imix_gpu_half() {
    smoke_workload("nat-imix-gpu-half");
}

#[test]
fn unknown_workload_is_rejected() {
    assert!(workloads::workload("ipv6-64B", 1).is_none());
    for name in workloads::NAMES {
        assert_eq!(workloads::workload(name, 1).unwrap().name, name);
    }
}
