//! The fast-path determinism guard (ISSUE 3).
//!
//! The wall-clock fast path — T-table AES, batched CTR keystreams,
//! cached HMAC pads, zero-alloc launch scratch and chunk staging — is
//! only admissible if it changes *nothing* observable in virtual
//! time. `tests/determinism.rs` proves runs are self-consistent; this
//! file pins the actual values the *seed implementation* (byte-
//! oriented AES, per-launch allocation) produced at commit d7309d9,
//! captured before any fast-path code landed. If an "optimization"
//! perturbs a fingerprint, a trace byte, or even the dump length,
//! these constants catch it — not just a flaky inequality.

use packetshader::core::apps::{IpsecApp, Ipv4App, NatApp, OpenFlowApp};
use packetshader::core::{App, Router, RouterConfig};
use packetshader::lookup::route::Route4;
use packetshader::lookup::synth;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;
use packetshader::trace::{chrome, TraceConfig};
use ps_bench::experiments::digest::fnv1a;
use ps_bench::workloads;

/// Same aggregate tuple as tests/determinism.rs.
type Fingerprint = (u64, u64, u64, u64, u64, u64);

fn run_fingerprint<A: App + Send>(cfg: RouterConfig, app: A, spec: TrafficSpec) -> Fingerprint {
    let report = Router::run(cfg, app, spec, MILLIS);
    (
        report.offered.packets,
        report.delivered.packets,
        report.rx_drops,
        report.slow_path,
        report.latency.p50(),
        report.latency.max(),
    )
}

fn fingerprint(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(2_000, 8, 3));
    run_fingerprint(
        cfg,
        Ipv4App::new(&routes),
        TrafficSpec::ipv4_64b(30.0, seed),
    )
}

fn fingerprint_ipsec(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let app = IpsecApp::new([7u8; 16], 0xABCD, b"determinism-key");
    run_fingerprint(cfg, app, TrafficSpec::ipv4_64b(10.0, seed))
}

fn fingerprint_openflow(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let mut spec = TrafficSpec::ipv4_64b(20.0, seed);
    spec.flows = Some(64);
    let app = OpenFlowApp::new(workloads::openflow_switch(&spec, 64, 16));
    run_fingerprint(cfg, app, spec)
}

/// Stream-mode shading (`concurrent_copy`) and the stateful NAT tier
/// take master paths the seed pins above never exercise. Captured
/// when the one-pending-wake contract (DESIGN.md §7) landed; the
/// code before it produced the same values at this window.
#[test]
fn stream_mode_and_nat_fingerprints_are_pinned() {
    let streams = RouterConfig {
        concurrent_copy: true,
        ..RouterConfig::paper_gpu()
    };
    assert_eq!(
        fingerprint_ipsec(streams, 5),
        (11364, 12168, 614, 0, 106495, 319836),
        "ipsec gpu streams"
    );
    let cfg = RouterConfig::paper_gpu();
    assert_eq!(
        run_fingerprint(
            cfg,
            NatApp::new(cfg.ports, cfg.nodes, 1 << 20, 0),
            TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3),
        ),
        (5184, 6061, 159, 0, 49151, 242369),
        "nat imix gpu"
    );
}

/// Every (app, mode) fingerprint at seed 5 must equal the values the
/// seed implementation produced. Captured pre-fast-path at d7309d9.
#[test]
fn fingerprints_match_seed_implementation() {
    assert_eq!(
        fingerprint(RouterConfig::paper_cpu(), 5),
        (34091, 23323, 906, 0, 327679, 463635),
        "ipv4 cpu"
    );
    assert_eq!(
        fingerprint(RouterConfig::paper_gpu(), 5),
        (34091, 23115, 2375, 0, 294911, 429719),
        "ipv4 gpu"
    );
    assert_eq!(
        fingerprint_ipsec(RouterConfig::paper_cpu(), 5),
        (11364, 3584, 1916, 0, 524287, 747150),
        "ipsec cpu"
    );
    assert_eq!(
        fingerprint_ipsec(RouterConfig::paper_gpu(), 5),
        (11364, 11573, 833, 0, 147455, 336124),
        "ipsec gpu"
    );
    assert_eq!(
        fingerprint_openflow(RouterConfig::paper_cpu(), 5),
        (22728, 26106, 0, 0, 122879, 215565),
        "openflow cpu"
    );
    assert_eq!(
        fingerprint_openflow(RouterConfig::paper_gpu(), 5),
        (22728, 26742, 568, 0, 53247, 240665),
        "openflow gpu"
    );
}

/// The full GPU-mode trace dump — every span, counter and instant the
/// pipeline emits, byte for byte — must match the seed implementation.
/// Pinned as (length, FNV-1a) per seed; a fast path that reordered a
/// launch, split a copy, or emitted one extra event flips the hash.
///
/// Re-pinned when the columnar staging layer landed: `GpuEngine::copy`
/// now emits `submit`/`wait`/`queue_depth` args on both directions and
/// the stage adds cumulative `pcie_*` counters, which legitimately
/// grow the dump. The *result* fingerprints above did not move.
#[test]
fn trace_dump_matches_seed_implementation() {
    let dump = |seed: u64| {
        let (_, collector) = ps_bench::trace::traced(TraceConfig::all(), || {
            fingerprint(RouterConfig::paper_gpu(), seed)
        });
        chrome::export(&collector)
    };
    let d5 = dump(5);
    assert_eq!(d5.len(), 33_039_635, "seed 5 dump length");
    assert_eq!(
        fnv1a(d5.as_bytes()),
        0x14c9_53e9_c2c9_96a6,
        "seed 5 dump hash"
    );
    let d6 = dump(6);
    assert_eq!(d6.len(), 33_095_165, "seed 6 dump length");
    assert_eq!(
        fnv1a(d6.as_bytes()),
        0xe3d4_6f57_66f7_c3dd,
        "seed 6 dump hash"
    );
}
