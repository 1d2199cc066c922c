//! Wake-up economy of the master and worker loops.
//!
//! Each loop keeps at most one pending wake-up (DESIGN.md, "wake-up
//! contract"). A wake that a newer one superseded must not survive as
//! a self-rescheduling copy: before the contract, every `MasterLoop`
//! that fired while the master was shading re-armed at `busy_until`
//! and nothing merged the copies, so loop events per delivered packet
//! grew with the length of the run instead of staying flat.
//!
//! The router is driven through the public API, as an outside profiler
//! would drive it: a counting [`Model`] wrapped around [`Router`],
//! `Simulation::new` + `schedule(0, Ev::Gen)` + `run_until`.

use packetshader::core::apps::{IpsecApp, NatApp};
use packetshader::core::router::Ev;
use packetshader::core::{App, Router, RouterConfig};
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::time::Time;
use packetshader::sim::{Model, Scheduler, Simulation, MILLIS};
use ps_bench::workloads;

/// Counts loop events on their way into the router.
struct Counting<A: App> {
    router: Router<A>,
    master: u64,
    worker: u64,
}

impl<A: App> Model for Counting<A> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        match ev {
            Ev::MasterLoop { .. } => self.master += 1,
            Ev::WorkerLoop { .. } => self.worker += 1,
            _ => {}
        }
        self.router.handle(sched, ev);
    }
}

/// Loop events per delivered packet over one run.
#[derive(Debug)]
struct PerPkt {
    master: f64,
    worker: f64,
}

/// Run like a sequential `Router::run` and divide the loop events by
/// the packets delivered inside the measurement window (the first
/// fifth of the run is warm-up).
fn per_pkt<A: App>(cfg: RouterConfig, app: A, spec: TrafficSpec, duration: Time) -> PerPkt {
    let router = Router::new(cfg, app, spec, duration);
    let mut sim = Simulation::new(Counting {
        router,
        master: 0,
        worker: 0,
    });
    sim.schedule(0, Ev::Gen);
    sim.run_until(duration);
    let report = sim.model.router.report(duration - duration / 5);
    let delivered = report.delivered.packets;
    assert!(delivered > 0, "nothing delivered");
    PerPkt {
        master: sim.model.master as f64 / delivered as f64,
        worker: sim.model.worker as f64 / delivered as f64,
    }
}

/// The short window and the one four times longer.
const SHORT: Time = 2 * MILLIS;
const LONG: Time = 4 * SHORT;

/// Run `run` at both windows, check the bounds on the long one and
/// that neither rate grows with the run length (10% slack plus a
/// small absolute floor for rates near zero).
fn check(name: &str, run: impl Fn(Time) -> PerPkt, master_max: f64, worker_max: f64) {
    let short = run(SHORT);
    let long = run(LONG);
    println!("{name}: short {short:?} long {long:?}");
    assert!(
        long.master <= master_max,
        "{name}: {:.3} MasterLoop events per delivered packet (max {master_max})",
        long.master
    );
    assert!(
        long.worker <= worker_max,
        "{name}: {:.3} WorkerLoop events per delivered packet (max {worker_max})",
        long.worker
    );
    let grows = |s: f64, l: f64| l > s * 1.1 + 0.01;
    assert!(
        !grows(short.master, long.master),
        "{name}: MasterLoop events per packet grow with run length: {:.3} -> {:.3}",
        short.master,
        long.master
    );
    assert!(
        !grows(short.worker, long.worker),
        "{name}: WorkerLoop events per packet grow with run length: {:.3} -> {:.3}",
        short.worker,
        long.worker
    );
}

/// NAT over IMIX at half its ceiling: the master is busy most of the
/// time but launches small batches — the regime that leaked most.
#[test]
fn nat_imix_half_load_keeps_one_wake_per_loop() {
    let cfg = RouterConfig::paper_gpu();
    check(
        "nat-imix",
        |d| {
            let spec = TrafficSpec::imix(20.0, 1).with_heavy_tail(512, 3);
            per_pkt(cfg, NatApp::new(cfg.ports, cfg.nodes, 1 << 20, 0), spec, d)
        },
        0.2,
        0.5,
    );
}

/// IPv4 64 B at line rate on the GPU path.
#[test]
fn ipv4_gpu_line_rate_keeps_one_wake_per_loop() {
    check(
        "ipv4-gpu",
        |d| {
            per_pkt(
                RouterConfig::paper_gpu(),
                workloads::ipv4_app(50_000, 1),
                TrafficSpec::ipv4_64b(80.0, 1),
                d,
            )
        },
        0.01,
        0.1,
    );
}

/// IPsec in stream mode: the master is free again once the uploads
/// are queued, long before its shading ends.
#[test]
fn ipsec_streams_keep_one_wake_per_loop() {
    let cfg = RouterConfig {
        concurrent_copy: true,
        ..RouterConfig::paper_gpu()
    };
    check(
        "ipsec-streams",
        |d| {
            per_pkt(
                cfg,
                IpsecApp::new([7u8; 16], 0xABCD, b"wakeups-key"),
                TrafficSpec::ipv4_64b(20.0, 1),
                d,
            )
        },
        0.01,
        0.1,
    );
}
