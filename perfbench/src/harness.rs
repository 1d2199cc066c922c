//! Wrappers that observe the router from outside: an [`App`] that
//! times the application callbacks, and a [`Model`] around `Router`
//! that times each event handler, counts events by kind and taps
//! delivered packets.

use ps_core::router::Ev;
use ps_core::{App, PreShadeResult, Router, RouterConfig, RouterReport, ShardAffinity, Staging};
use ps_gpu::GpuEngine;
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_pktgen::TrafficSpec;
use ps_sim::time::Time;
use ps_sim::{Model, Scheduler, Simulation};

use crate::spans::{self, Layer};

/// Forwards every method to the wrapped app; times `pre_shade`,
/// `process_cpu`, `shade` and `setup_gpu` when a span recorder is
/// installed, and counts the calls that carry work.
pub struct TracedApp<A> {
    /// The wrapped application.
    pub inner: A,
    /// `pre_shade` calls with at least one packet (fetches that
    /// found work).
    pub fetches: u64,
    /// `shade` calls (GPU launches requested by a master).
    pub shades: u64,
}

impl<A> TracedApp<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> TracedApp<A> {
        TracedApp {
            inner,
            fetches: 0,
            shades: 0,
        }
    }
}

impl<A: App> App for TracedApp<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_staging(&mut self, mode: Staging) {
        self.inner.set_staging(mode);
    }

    fn setup_gpu(&mut self, node: usize, eng: &mut GpuEngine) {
        spans::span(Layer::SetupGpu, || self.inner.setup_gpu(node, eng));
    }

    fn staging_totals(&self) -> Option<(u64, u64, u64)> {
        self.inner.staging_totals()
    }

    fn pre_shade(&mut self, pkts: &mut Vec<Packet>) -> PreShadeResult {
        if !pkts.is_empty() {
            self.fetches += 1;
        }
        spans::span(Layer::PreShade, || self.inner.pre_shade(pkts))
    }

    fn process_cpu(&mut self, pkts: &mut Vec<Packet>) -> u64 {
        spans::span(Layer::ProcessCpu, || self.inner.process_cpu(pkts))
    }

    fn shade(
        &mut self,
        node: usize,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
        pkts: &mut [Packet],
    ) -> Time {
        self.shades += 1;
        spans::span(Layer::Shade, || {
            self.inner.shade(node, eng, ioh, ready, pkts)
        })
    }

    fn post_shade_cycles(&self, n: usize) -> u64 {
        self.inner.post_shade_cycles(n)
    }

    fn on_gpu_fault(&mut self, node: usize) {
        self.inner.on_gpu_fault(node);
    }

    fn shard_replica(&self) -> Option<(Self, ShardAffinity)> {
        self.inner
            .shard_replica()
            .map(|(a, aff)| (TracedApp::new(a), aff))
    }
}

/// Event kinds, indexing [`Harness::events`].
const EV_KINDS: [Layer; 6] = [
    Layer::Gen,
    Layer::Rx,
    Layer::Worker,
    Layer::Master,
    Layer::Tx,
    Layer::Cross,
];

fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Gen => 0,
        Ev::RxReady { .. } => 1,
        Ev::WorkerLoop { .. } => 2,
        Ev::MasterLoop { .. } => 3,
        Ev::TxDone { .. } => 4,
        Ev::CrossArrive { .. } => 5,
    }
}

/// A delivered packet kept for the output checks.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Generator packet id.
    pub id: u64,
    /// Port the packet came in on.
    pub in_port: u16,
    /// Port the app sent it out of.
    pub out_port: Option<u16>,
    /// The frame as it left the router.
    pub data: Vec<u8>,
}

/// Checks one delivered packet; `Err` says what is wrong with it.
pub type Verifier = Box<dyn FnMut(&Packet) -> Result<(), String>>;

/// What the harness records about delivered packets.
#[derive(Default)]
pub struct Tap {
    /// Keep packets whose id is a multiple of this (0 = keep none).
    pub sample_every: u64,
    /// Round-trip latency (ns) of every packet delivered inside the
    /// measurement window, timed from its due generation instant.
    pub latency_ns: Vec<u64>,
    /// In-window deliveries of packets that were also generated
    /// inside the window (the others were offered before counting
    /// started).
    pub offered_in_window: u64,
    /// Sampled deliveries.
    pub samples: Vec<Delivered>,
    /// Run on every in-window delivery, when set.
    pub verify: Option<Verifier>,
    /// Deliveries the verifier passed or failed.
    pub verified: u64,
    /// Deliveries the verifier failed.
    pub wrong: u64,
    /// The verifier's first few failure messages.
    pub wrong_msgs: Vec<String>,
}

/// `Router` as a `Model`, observed from outside: each `handle` call is
/// a span of its event kind when a recorder is installed, events are
/// counted by kind, and the scheduler's pending-event peak is kept.
pub struct Harness<A: App> {
    /// The router under test.
    pub router: Router<A>,
    /// Events dispatched, by [`EV_KINDS`] index.
    pub events: [u64; 6],
    /// Peak of `Scheduler::pending` after any event.
    pub pending_peak: usize,
    /// Delivered-packet tap; `None` leaves `TxDone` untouched.
    pub tap: Option<Tap>,
    measure_from: Time,
}

impl<A: App> Harness<A> {
    /// Events dispatched of the kind `layer` handles.
    pub fn count(&self, layer: Layer) -> u64 {
        EV_KINDS
            .iter()
            .position(|&l| l == layer)
            .map_or(0, |i| self.events[i])
    }
}

impl<A: App> Model for Harness<A> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        let k = kind(&ev);
        self.events[k] += 1;
        if let (Some(tap), Ev::TxDone { pkt }) = (self.tap.as_mut(), &ev) {
            let now = sched.now();
            if now >= self.measure_from {
                tap.latency_ns.push(now.saturating_sub(pkt.gen_ts));
                tap.offered_in_window += u64::from(pkt.gen_ts >= self.measure_from);
                if let Some(verify) = tap.verify.as_mut() {
                    tap.verified += 1;
                    if let Err(msg) = verify(pkt) {
                        tap.wrong += 1;
                        if tap.wrong_msgs.len() < 5 {
                            tap.wrong_msgs.push(msg);
                        }
                    }
                }
                if tap.sample_every > 0 && pkt.id % tap.sample_every == 0 {
                    tap.samples.push(Delivered {
                        id: pkt.id,
                        in_port: pkt.in_port.0,
                        out_port: pkt.out_port.map(|p| p.0),
                        data: pkt.data.clone(),
                    });
                }
            }
        }
        let router = &mut self.router;
        spans::span(EV_KINDS[k], || router.handle(sched, ev));
        self.pending_peak = self.pending_peak.max(sched.pending());
    }
}

/// Where `Router::run` starts counting: generation stops at
/// `duration`, and the first fifth is warm-up.
fn measure_from(duration: Time) -> Time {
    duration / 5
}

/// Drive `Router::new` + `Simulation::run_until` exactly as
/// `Router::run` does for a sequential run, with the harness around
/// the router. The whole `run_until` is a [`Layer::Sched`] span.
pub fn run_harness<A: App>(
    cfg: RouterConfig,
    app: A,
    spec: TrafficSpec,
    duration: Time,
    tap: Option<Tap>,
) -> (RouterReport, Harness<A>) {
    let router = Router::new(cfg, app, spec, duration);
    let mut sim = Simulation::new(Harness {
        router,
        events: [0; 6],
        pending_peak: 0,
        tap,
        measure_from: measure_from(duration),
    });
    sim.schedule(0, Ev::Gen);
    spans::span(Layer::Sched, || sim.run_until(duration));
    let report = sim.model.router.report(duration - measure_from(duration));
    (report, sim.model)
}

/// A byte-exact fingerprint of a report: every field, floats
/// included, in `Debug` form.
pub fn fingerprint(r: &RouterReport) -> String {
    format!("{r:?}")
}
