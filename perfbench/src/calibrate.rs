//! Host-speed calibration: a fixed loop, independent of the program,
//! that the end-to-end measurement times next to each router run.
//!
//! On a shared host the cores run slower by up to 80% for phases of
//! seconds to minutes, mostly when other tenants take the shared
//! cache. That moves a run's wall-clock figures by far more than a
//! program change worth catching. The loop below is a frozen miniature
//! of the router's per-packet work, so it slows with the router: a
//! lookup in a 32 MiB DIR-24-8-style first-level table, a flow-table
//! update, an event-heap pop and push, and a packet buffer allocated,
//! stamped with a header and checksummed. Dividing a run's wall time
//! by the loop's in the same run cancels most of the host's speed;
//! multiplying by [`REF_NS_PER_STEP`] turns the result back into
//! nanoseconds on a reference core.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Steps per sample: about 25 ms on the development host.
pub const STEPS: u64 = 100_000;

/// The reference core's time per step, in ns: about the fastest step
/// time seen on the development host (NOTES.md). Calibrated figures
/// are in that core's nanoseconds.
pub const REF_NS_PER_STEP: f64 = 240.0;

/// Pending events in the heap, as in a router with a few thousand
/// timers and in-flight chunks.
const EVENTS: u64 = 4096;

/// 64-bit LCG step (Knuth's MMIX constants).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// The ones'-complement sum of an IPv4 header.
fn checksum(header: &[u8]) -> u32 {
    header
        .chunks(2)
        .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
        .sum()
}

/// The loop's state, allocated once and reused by every sample, so a
/// sample allocates nothing but its packet buffers.
pub struct Calibrator {
    /// Next hop per /24: a DIR-24-8 first level.
    routes: Vec<u16>,
    /// Flow id to byte count.
    flows: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    /// Pending events by due time.
    events: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Build the table and reserve the flow table and heap.
    pub fn new() -> Calibrator {
        let mut x = 7u64;
        let routes = (0..1usize << 24)
            .map(|_| {
                x = lcg(x);
                (x >> 48) as u16
            })
            .collect();
        Calibrator {
            routes,
            flows: HashMap::with_capacity_and_hasher(1 << 17, BuildHasherDefault::default()),
            events: BinaryHeap::with_capacity(EVENTS as usize + 1),
        }
    }

    /// Time one sample of the loop; returns ns per step. Every sample
    /// starts from the same state and does the same work.
    pub fn ns_per_step(&mut self) -> f64 {
        self.flows.clear();
        self.events.clear();
        self.events
            .extend((0..EVENTS).map(|i| Reverse((i * 37 % EVENTS, i as u32))));
        let (mut x, mut acc) = (1u64, 0u64);
        let t = Instant::now();
        for _ in 0..STEPS {
            x = lcg(x);
            let dst = (x >> 32) as u32;
            let hop = self.routes[(dst >> 8) as usize];
            let flow = x >> 46;
            *self.flows.entry(flow).or_insert(0) += u64::from(hop);
            let mut pkt = vec![0u8; 64 + (flow as usize & 255)];
            pkt[8] = 64;
            pkt[16..20].copy_from_slice(&dst.to_be_bytes());
            let sum = checksum(&pkt[..20]);
            let Reverse((at, id)) = self.events.pop().expect("the heap never empties");
            self.events
                .push(Reverse((at + 1 + u64::from(hop & 1023), id ^ sum)));
            acc = acc.wrapping_add(u64::from(black_box(&pkt)[19]) ^ at);
        }
        let ns = t.elapsed().as_nanos() as f64 / STEPS as f64;
        black_box((acc, self.flows.len()));
        ns
    }
}
