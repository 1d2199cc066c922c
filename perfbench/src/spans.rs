//! Wall-clock spans recorded around calls into the router's layers.
//!
//! A [`Recorder`] is installed per thread for the duration of a traced
//! run. Each span holds its layer, start, end and the index of the span
//! that was open when it began (its parent). Spans stay in memory and
//! are reduced at the end by [`self_times`]: a layer's self time is its
//! spans' duration minus the time covered by their children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers the benchmark times from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Simulation::run_until`: the root; its self time is the scheduler.
    Sched,
    /// `Ev::Gen` handler: pacing, NIC/IOH admission, frame build, RSS.
    Gen,
    /// `Ev::RxReady` handler: the RX ring enqueue and worker wake-up.
    Rx,
    /// `Ev::WorkerLoop` handler minus the app callbacks it makes.
    Worker,
    /// `Ev::MasterLoop` handler minus `App::shade`.
    Master,
    /// `Ev::TxDone` handler: sink accounting and buffer recycling.
    Tx,
    /// `Ev::CrossArrive` handler (cross-node TX; absent on the paper box).
    Cross,
    /// `App::pre_shade`.
    PreShade,
    /// `App::process_cpu`.
    ProcessCpu,
    /// `App::shade`: GPU-kernel emulation and its copies.
    Shade,
    /// `App::setup_gpu`: table and key upload at router construction.
    SetupGpu,
}

impl Layer {
    /// Metric-name stem of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sched => "sim.sched",
            Layer::Gen => "router.gen",
            Layer::Rx => "router.rx",
            Layer::Worker => "router.worker",
            Layer::Master => "router.master",
            Layer::Tx => "router.tx",
            Layer::Cross => "router.cross",
            Layer::PreShade => "app.pre_shade",
            Layer::ProcessCpu => "app.process_cpu",
            Layer::Shade => "app.shade",
            Layer::SetupGpu => "setup.gpu_upload",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are ns since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which layer the span times.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span store of one traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: Layer) {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 4G spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        self.open.push(idx);
    }

    fn end(&mut self) {
        let idx = self.open.pop().expect("span end without a begin") as usize;
        self.spans[idx].end = self.now();
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, discarding any earlier ones.
pub fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Stop recording and hand back every span recorded since
/// [`install`] (empty when none was installed).
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |r| r.spans))
}

/// Run `f` inside a span of `layer` when a recorder is installed;
/// otherwise just run it.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let on = RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.begin(layer);
            true
        }
        None => false,
    });
    let out = f();
    if on {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.end();
            }
        });
    }
    out
}

/// Per-layer aggregate over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of the layer.
    pub count: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans (ns).
    pub self_ns: u64,
}

/// Reduce spans to per-layer totals and self times. Children of one
/// parent never overlap (the recorder nests them on one thread), so
/// the time they cover is the sum of their durations; it is clamped to
/// the parent's own duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<Layer, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    let mut out: BTreeMap<Layer, LayerTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.layer).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        // run [0,100) ⊃ gen [10,40) ⊃ pre_shade [15,25)
        //            ⊃ worker [50,90) ⊃ pre_shade [55,60), shade [60,80)
        let spans = [
            sp(Layer::Sched, 0, 100, NO_PARENT),
            sp(Layer::Gen, 10, 40, 0),
            sp(Layer::PreShade, 15, 25, 1),
            sp(Layer::Worker, 50, 90, 0),
            sp(Layer::PreShade, 55, 60, 3),
            sp(Layer::Shade, 60, 80, 3),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&Layer::Sched].self_ns, 100 - 30 - 40);
        assert_eq!(t[&Layer::Gen].self_ns, 30 - 10);
        assert_eq!(t[&Layer::Worker].self_ns, 40 - 5 - 20);
        assert_eq!(
            t[&Layer::PreShade],
            LayerTime {
                count: 2,
                total_ns: 15,
                self_ns: 15
            }
        );
        assert_eq!(t[&Layer::Shade].self_ns, 20);
        // Self times partition the root exactly.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_clamps_at_zero() {
        // A child reported longer than its parent (clock skew) must
        // not underflow the parent's self time.
        let spans = [sp(Layer::Sched, 0, 10, NO_PARENT), sp(Layer::Gen, 0, 12, 0)];
        assert_eq!(self_times(&spans)[&Layer::Sched].self_ns, 0);
    }

    #[test]
    fn recorder_nests_spans_by_call_structure() {
        install();
        span(Layer::Sched, || {
            span(Layer::Worker, || span(Layer::PreShade, || ()));
            span(Layer::Tx, || ());
        });
        let spans = take();
        let parents: Vec<(Layer, u32)> = spans.iter().map(|s| (s.layer, s.parent)).collect();
        assert_eq!(
            parents,
            [
                (Layer::Sched, NO_PARENT),
                (Layer::Worker, 0),
                (Layer::PreShade, 1),
                (Layer::Tx, 0)
            ]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
        let t = self_times(&spans);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, spans[0].dur());
        // Nothing is recorded once the recorder is taken.
        span(Layer::Gen, || ());
        assert!(take().is_empty());
    }
}
