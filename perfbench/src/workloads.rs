//! The four benchmark workloads and the inputs each derives from its
//! seed. Every workload is open loop over 8 ports and runs on one
//! thread (`shards = 1`); NOTES.md says why each was chosen.

use ps_core::apps::{IpsecApp, NatApp};
use ps_core::RouterConfig;
use ps_lookup::route::Route4;
use ps_lookup::synth;
use ps_pktgen::TrafficSpec;
use ps_sim::time::{Time, MILLIS};

/// Which application a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// IPv4 forwarding over a RouteViews-size DIR-24-8 table.
    Ipv4,
    /// IPsec tunnel gateway (AES-CTR + HMAC-SHA1).
    Ipsec,
    /// Source NAT over the per-node flow cache.
    Nat,
}

/// One benchmark workload: router configuration, offered traffic and
/// the fixed virtual run length.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The application.
    pub app: AppKind,
    /// Router configuration.
    pub cfg: RouterConfig,
    /// Offered traffic (its seed is the workload seed).
    pub spec: TrafficSpec,
    /// Virtual run length. The line-rate workloads build an in-model
    /// backlog, so their latency figures hold at this length only.
    pub duration: Time,
    /// Delivered packets whose id is a multiple of this are checked.
    pub sample_every: u64,
    /// Traffic seeds an end-to-end run pools, derived from the
    /// workload seed (the first is the seed itself).
    pub traffic_seeds: usize,
}

impl Workload {
    /// The offered traffic under the workload's `i`-th traffic seed.
    pub fn traffic(&self, i: usize) -> TrafficSpec {
        TrafficSpec {
            seed: self
                .spec
                .seed
                .wrapping_add(i as u64 * 0x9E37_79B9_7F4A_7C15),
            ..self.spec
        }
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "ipv4-64B-gpu-line",
    "ipv4-64B-cpu-line",
    "ipsec-1514B-gpu-line",
    "nat-imix-gpu-half",
];

/// The workload `name` with inputs from `seed`, or `None` for an
/// unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let line_64b = TrafficSpec::ipv4_64b(80.0, seed);
    let w = match name {
        "ipv4-64B-gpu-line" => Workload {
            name: NAMES[0],
            app: AppKind::Ipv4,
            cfg: RouterConfig::paper_gpu(),
            spec: line_64b,
            duration: 10 * MILLIS,
            sample_every: 1021,
            traffic_seeds: 1,
        },
        "ipv4-64B-cpu-line" => Workload {
            name: NAMES[1],
            app: AppKind::Ipv4,
            cfg: RouterConfig::paper_cpu(),
            spec: line_64b,
            duration: 10 * MILLIS,
            sample_every: 1021,
            traffic_seeds: 1,
        },
        "ipsec-1514B-gpu-line" => Workload {
            name: NAMES[2],
            app: AppKind::Ipsec,
            cfg: RouterConfig {
                concurrent_copy: true,
                ..RouterConfig::paper_gpu()
            },
            spec: TrafficSpec {
                frame_len: 1514,
                ..line_64b
            },
            duration: 10 * MILLIS,
            sample_every: 13,
            traffic_seeds: 32,
        },
        "nat-imix-gpu-half" => Workload {
            name: NAMES[3],
            app: AppKind::Nat,
            cfg: RouterConfig::paper_gpu(),
            spec: TrafficSpec::imix(20.0, seed).with_heavy_tail(512, 3),
            duration: 10 * MILLIS,
            sample_every: 7,
            traffic_seeds: 8,
        },
        _ => return None,
    };
    Some(w)
}

/// The §6.2.1 table: RouteViews-shaped prefixes plus two /1 routes so
/// every random destination resolves. Hops are output ports.
pub fn ipv4_routes(seed: u64) -> Vec<Route4> {
    let mut routes = vec![
        Route4::new(0x0000_0000, 1, 0),
        Route4::new(0x8000_0000, 1, 4),
    ];
    routes.extend(synth::routeviews_like(synth::ROUTEVIEWS_PREFIXES, 8, seed));
    routes
}

/// IPsec SA keys derived from the seed.
pub fn ipsec_keys(seed: u64) -> ([u8; 16], u32, Vec<u8>) {
    let mut aes = [0u8; 16];
    for (i, b) in aes.iter_mut().enumerate() {
        *b = (seed.rotate_left(8 * i as u32) as u8) ^ (0x42 + i as u8);
    }
    let hmac = format!("perfbench-hmac-{seed:016x}").into_bytes();
    (aes, 0xD00D ^ seed as u32, hmac)
}

/// Fresh IPsec gateway.
pub fn ipsec_app(seed: u64) -> IpsecApp {
    let (aes, nonce, hmac) = ipsec_keys(seed);
    IpsecApp::new(aes, nonce, &hmac)
}

/// Fresh NAT: 8 ports over 2 nodes, 1 Mi bindings per node, no expiry
/// (the stateful-NFV tier's standard translator).
pub fn nat_app(cfg: &RouterConfig) -> NatApp {
    NatApp::new(cfg.ports, cfg.nodes, 1 << 20, 0)
}
