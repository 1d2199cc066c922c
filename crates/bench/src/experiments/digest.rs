//! Virtual-time digest (`ps-bench digest`): the FNV-1a hash of every
//! `RouterReport`'s `Debug` form over a fixed configuration matrix ×
//! traffic seeds 1–8.
//!
//! A wall-clock optimisation must not move the modeled router. Run
//! this on the parent commit and on the change and `diff` the two
//! outputs: every line that differs names a configuration and seed
//! whose simulated results moved. The matrix spans the regimes that
//! take different code paths — CPU-only and CPU+GPU forwarding,
//! synchronous and stream-mode (`concurrent_copy`) shading, the
//! stateful flow cache, wildcard matching, direct-DMA staging and the
//! fault plan's CPU fallback — at the default `PS_BENCH_MS` window.

use ps_core::apps::{IpsecApp, NatApp};
use ps_core::{App, Router, RouterConfig, RouterReport};
use ps_fault::FaultSpec;
use ps_gpu::Staging;
use ps_pktgen::TrafficSpec;
use ps_sim::MILLIS;

use crate::experiments::nfv::nfv_spec;
use crate::{header, window_ms, workloads};

/// Traffic seeds every configuration runs.
pub const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

/// Configuration names, in output order.
pub const CONFIGS: [&str; 8] = [
    "ipv4-cpu",
    "ipv4-gpu",
    "ipsec-gpu",
    "ipsec-gpu-streams",
    "nat-imix-gpu",
    "openflow-gpu",
    "ipv4-gpu-direct-dma",
    "ipv4-gpu-faults",
];

/// FNV-1a over `bytes`: the cheapest stable digest that fits in a
/// pinned constant.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of one report: FNV-1a of its `Debug` output, which covers
/// every field (floats and histograms included).
pub fn report_digest(r: &RouterReport) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

fn run<A: App + Send>(cfg: RouterConfig, app: A, spec: TrafficSpec) -> RouterReport {
    Router::run_with_shards(cfg, app, spec, window_ms() * MILLIS, 1)
}

/// Run configuration `name` (one of [`CONFIGS`]) at traffic seed
/// `seed`.
pub fn run_config(name: &str, seed: u64) -> RouterReport {
    let gpu = RouterConfig::paper_gpu();
    let line = TrafficSpec::ipv4_64b(60.0, seed);
    let ipsec = || IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-digest");
    match name {
        "ipv4-cpu" => run(
            RouterConfig::paper_cpu(),
            workloads::ipv4_app(50_000, 1),
            line,
        ),
        "ipv4-gpu" => run(gpu, workloads::ipv4_app(50_000, 1), line),
        "ipsec-gpu" => run(gpu, ipsec(), TrafficSpec::ipv4_64b(20.0, seed)),
        "ipsec-gpu-streams" => run(
            RouterConfig {
                concurrent_copy: true,
                ..gpu
            },
            ipsec(),
            TrafficSpec::ipv4_64b(20.0, seed),
        ),
        "nat-imix-gpu" => run(gpu, NatApp::new(8, 2, 1 << 20, 0), nfv_spec(20.0, seed)),
        "openflow-gpu" => {
            let mut spec = TrafficSpec::ipv4_64b(40.0, seed);
            spec.flows = Some(8192);
            run(gpu, workloads::openflow_app(&spec, 8192, 32), spec)
        }
        "ipv4-gpu-direct-dma" => run(
            RouterConfig {
                staging: Staging::DirectDma,
                ..gpu
            },
            workloads::ipv4_app(50_000, 1),
            line,
        ),
        "ipv4-gpu-faults" => run(
            RouterConfig {
                faults: FaultSpec::scenario("all")
                    .expect("built-in scenario")
                    .with_rate(0.01),
                ..gpu
            },
            workloads::ipv4_app(50_000, 1),
            line,
        ),
        _ => panic!("unknown digest configuration {name}"),
    }
}

/// Print one `config seed digest` line per run; returns the rows.
pub fn run_all() -> Vec<(&'static str, u64, u64)> {
    header(&format!(
        "Virtual-time digest — FNV-1a of RouterReport Debug, {} ms per run",
        window_ms()
    ));
    let mut rows = Vec::new();
    for name in CONFIGS {
        for seed in SEEDS {
            let d = report_digest(&run_config(name, seed));
            println!("{name:>20}  seed={seed}  {d:016x}");
            rows.push((name, seed, d));
        }
    }
    rows
}
