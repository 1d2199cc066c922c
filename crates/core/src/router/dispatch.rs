//! The router's event enum, the worker-side handlers (fetch,
//! pre-shade, CPU process, post-shade, TX serialization), the event
//! dispatch [`Model`] impl, and the RSS hash.
//!
//! Handlers address workers, rings and ports by the same global ids
//! the events carry; the [`super::Router`] accessors map those onto
//! the per-NUMA-domain [`super::node::NodeShard`]s. The only
//! cross-domain interactions are (a) a worker transmitting out a
//! remote node's port and (b) NUMA-blind DMA mirroring — (a) is
//! exactly what [`Ev::CrossArrive`] reifies so the parallel runtime
//! can exchange it at window barriers. The admission side (generator,
//! NIC RX, interrupts) lives in `rx`; the master's
//! gather/shade/scatter in `master`.

use ps_hw::ioh::Direction;
use ps_hw::numa::Placement;
use ps_io::{dma_bytes, Packet};
use ps_net::ethernet::{EtherType, EthernetFrame};
use ps_net::ipv4::Ipv4Packet;
use ps_net::ipv6::Ipv6Packet;
use ps_net::tcp::TcpSegment;
use ps_net::udp::UdpDatagram;
use ps_nic::rss::{toeplitz_hash, MSFT_KEY};
use ps_sim::time::Time;
use ps_sim::{Model, Scheduler};

use crate::app::App;
use crate::chunk::Chunk;
use crate::config::Mode;

use super::parallel::CrossTx;
use super::Router;

/// Router events.
#[derive(Debug)]
pub enum Ev {
    /// Generator emits its next packet.
    Gen,
    /// A packet's RX DMA completed; it lands in a worker's queue.
    RxReady {
        /// Global worker id the RSS hash selected.
        worker: usize,
        /// The received frame.
        pkt: Box<Packet>,
    },
    /// A worker thread continues its loop.
    WorkerLoop {
        /// Global worker id.
        worker: usize,
    },
    /// A master thread checks its input queue.
    MasterLoop {
        /// NUMA node of the master.
        node: usize,
    },
    /// A transmitted frame finished serializing onto the wire.
    TxDone {
        /// The delivered frame.
        pkt: Box<Packet>,
    },
    /// A processed packet arrived at a *remote* node for TX: it
    /// crossed the QPI (paying `qpi_hop_ns`) and now starts its TX
    /// DMA on the destination node's IOH. In a windowed parallel run
    /// this event is scheduled by the barrier delivery; sequentially
    /// it comes straight off the heap.
    CrossArrive {
        /// Destination NUMA node (owner of the out port).
        node: usize,
        /// The crossing frame.
        pkt: Box<Packet>,
    },
}

impl<A: App> Router<A> {
    pub(super) fn cycles_ns(&self, cycles: u64) -> Time {
        self.cpu.cycles_to_ns(cycles)
    }

    pub(super) fn wake_worker(&mut self, sched: &mut Scheduler<Ev>, w: usize, t: Time) {
        let t = t.max(sched.now());
        let ws = self.worker_mut(w);
        if let Some(pending) = ws.next_wake {
            if pending <= t {
                return;
            }
        }
        ws.next_wake = Some(t);
        sched.at(t, Ev::WorkerLoop { worker: w });
    }

    /// Arm node `node`'s master loop at `t`, or at `busy_until` if
    /// the master is still shading then. At most one wake is pending:
    /// an earlier one absorbs this request, a later one is superseded.
    pub(super) fn wake_master(&mut self, sched: &mut Scheduler<Ev>, node: usize, t: Time) {
        let now = sched.now();
        let ms = self.master_mut(node);
        let t = t.max(now).max(ms.busy_until);
        if let Some(pending) = ms.next_wake {
            if pending <= t {
                return;
            }
        }
        ms.next_wake = Some(t);
        sched.at(t, Ev::MasterLoop { node });
    }

    fn on_worker_loop(&mut self, sched: &mut Scheduler<Ev>, w: usize) {
        let now = sched.now();
        if self.worker(w).busy_until > now {
            // A superseded wake leaves the pending one armed, so the
            // re-arm at `busy_until` merges with it instead of adding
            // another copy.
            if self.worker(w).next_wake == Some(now) {
                self.worker_mut(w).next_wake = None;
            }
            let t = self.worker(w).busy_until;
            self.wake_worker(sched, w, t);
            return;
        }
        // A free core polls even on a superseded wake: the loop
        // re-checks its rings and done queue, and the model's timing
        // depends on those polls.
        self.worker_mut(w).next_wake = None;

        // 1. Completed shading output? Post-shade + transmit.
        if let Some(&(ready, _)) = self.worker(w).done_queue.front() {
            if ready <= now {
                let ws = self.worker_mut(w);
                let (_, chunk) = ws.done_queue.pop_front().expect("front exists");
                ws.outstanding -= 1;
                self.finish_chunk(sched, w, chunk, true);
                return;
            }
        }

        // 2. Fetch a new chunk if the pipeline has room. The priority
        // ring is strictly first and fetched with its own small cap,
        // so latency-critical packets never wait behind a bulk batch.
        let can_fetch = match self.cfg.mode {
            Mode::CpuOnly => true,
            Mode::CpuGpu => self.worker(w).outstanding < self.cfg.pipeline_depth,
        };
        let fetch_prio = can_fetch && !self.prio_ring(w).is_empty();
        if fetch_prio || (can_fetch && !self.ring(w).is_empty()) {
            let batch = if fetch_prio {
                let cap = self
                    .cfg
                    .latency
                    .priority
                    .map_or(self.cfg.io.batch_cap, |c| c.cap);
                let b = self.prio_ring_mut(w).pop_batch(cap);
                ps_io::trace::trace_prio_ring_depth(w as u32, now, self.prio_ring(w).len() as u64);
                b
            } else {
                let cap = self.effective_batch_cap(w);
                if self.cfg.latency.adaptive_batch {
                    ps_io::trace::trace_batch_cap(w as u32, now, cap as u64);
                }
                let b = self.ring_mut(w).pop_batch(cap);
                ps_io::trace::trace_ring_depth(w as u32, now, self.ring(w).len() as u64);
                b
            };
            self.stats.rx_batches += 1;
            self.stats.rx_packets += batch.len() as u64;
            let n = batch.len() as u64;
            let bytes: u64 = batch.iter().map(|p| p.len() as u64).sum();
            let rx_cycles = self.cost.rx_batch_cycles(n, bytes, self.cfg.io.placement);
            let mut pkts = batch;
            let corrupt_before = match &self.plan {
                Some(_) => pkts.iter().filter(|p| p.corrupted).count() as u64,
                None => 0,
            };
            let pre = self.app.pre_shade(&mut pkts);
            if let Some(plan) = self.plan.as_mut() {
                // Corrupted frames the pre-shader rejected (malformed,
                // bad checksum) or diverted off the fast path settle
                // as counted drops.
                let after = pkts.iter().filter(|p| p.corrupted).count() as u64;
                plan.note_corrupt_dropped(corrupt_before - after);
            }
            self.stats.app_drops += pre.dropped;
            self.stats.slow_path += pre.slow_path;
            let t1 = now + self.cycles_ns(rx_cycles + pre.cycles);
            self.worker_mut(w).busy_until = t1;
            // One span for the fused RX-fetch + pre-shade interval:
            // the model charges them as a single cycle budget, and
            // splitting the ns conversion would round differently.
            ps_io::trace::trace_rx_batch(w as u32, now, t1, n, bytes);
            ps_trace::complete(
                ps_trace::Category::Stage,
                "pre_shade",
                w as u32,
                now,
                t1,
                || {
                    vec![
                        ("pkts", n),
                        ("bytes", bytes),
                        ("dropped", pre.dropped),
                        ("slow_path", pre.slow_path),
                    ]
                },
            );

            if pkts.is_empty() {
                self.wake_worker(sched, w, t1);
                return;
            }

            let use_cpu = match self.cfg.mode {
                Mode::CpuOnly => true,
                // Priority chunks bypass the GPU pipeline entirely:
                // gather/shade/scatter buys throughput with latency,
                // which is the wrong trade for the priority lane.
                Mode::CpuGpu => {
                    fetch_prio
                        || (self.cfg.opportunistic && pkts.len() < self.cfg.opportunistic_threshold)
                }
            };
            if use_cpu {
                let corrupt_before = match &self.plan {
                    Some(_) => pkts.iter().filter(|p| p.corrupted).count() as u64,
                    None => 0,
                };
                let cycles = self.app.process_cpu(&mut pkts);
                if let Some(plan) = self.plan.as_mut() {
                    let after = pkts.iter().filter(|p| p.corrupted).count() as u64;
                    plan.note_corrupt_dropped(corrupt_before - after);
                }
                let t2 = t1 + self.cycles_ns(cycles);
                self.worker_mut(w).busy_until = t2;
                let n = pkts.len() as u64;
                ps_trace::complete(
                    ps_trace::Category::Stage,
                    "cpu_process",
                    w as u32,
                    t1,
                    t2,
                    || vec![("pkts", n)],
                );
                let chunk = Chunk::new(w, pkts, now);
                // Transmit as soon as processing ends.
                let ws = self.worker_mut(w);
                ws.done_queue.push_back((t2, chunk));
                ws.outstanding += 1;
                self.wake_worker(sched, w, t2);
            } else {
                let node = self.worker_node(w);
                let chunk = Chunk::new(w, pkts, now);
                self.worker_mut(w).outstanding += 1;
                self.master_mut(node).input.push_back(chunk);
                self.wake_master(sched, node, t1);
                self.wake_worker(sched, w, t1);
            }
            return;
        }

        // 3. Output pending but not ready: sleep until it is.
        if let Some(&(ready, _)) = self.worker(w).done_queue.front() {
            self.wake_worker(sched, w, ready);
            return;
        }

        // 4. Nothing to do: arm the interrupt (§5.2).
        if self.ring(w).is_empty() && self.prio_ring(w).is_empty() {
            self.worker_mut(w).idle = true;
        } else {
            // Pipeline full; the master's scatter will wake us.
        }
    }

    /// The RX fetch cap for this fetch: the configured cap, or — in
    /// adaptive mode — scaled with the ring's current depth so
    /// shallow queues take small, low-latency batches while deep
    /// queues grow back to the paper's 64-packet cap (§4.3's "the
    /// chunk size is not fixed but only capped", made load-aware).
    fn effective_batch_cap(&self, w: usize) -> usize {
        let lat = &self.cfg.latency;
        if !lat.adaptive_batch {
            return self.cfg.io.batch_cap;
        }
        let cap = self.cfg.io.batch_cap;
        (self.ring(w).len() / lat.depth_per_cap.max(1)).clamp(lat.min_batch.min(cap), cap)
    }

    /// Post-shade + TX a finished chunk on worker `w`.
    fn finish_chunk(&mut self, sched: &mut Scheduler<Ev>, w: usize, chunk: Chunk, charge: bool) {
        let now = sched.now();
        let mut pkts = chunk.packets;
        // Application may have cleared out_port for drops.
        let before = pkts.len();
        if self.plan.is_some() {
            let dead = pkts
                .iter()
                .filter(|p| p.corrupted && p.out_port.is_none())
                .count() as u64;
            if let Some(plan) = self.plan.as_mut() {
                plan.note_corrupt_dropped(dead);
            }
        }
        pkts.retain(|p| p.out_port.is_some());
        self.stats.app_drops += (before - pkts.len()) as u64;

        let bytes: u64 = pkts.iter().map(|p| p.len() as u64).sum();
        let cycles = if charge {
            self.app.post_shade_cycles(pkts.len())
                + self
                    .cost
                    .tx_batch_cycles(pkts.len() as u64, bytes, self.cfg.io.placement)
        } else {
            0
        };
        let t2 = now + self.cycles_ns(cycles);
        self.worker_mut(w).busy_until = t2;
        if charge {
            let n = pkts.len() as u64;
            ps_io::trace::trace_tx_batch(w as u32, now, t2, n, bytes);
            ps_trace::complete(
                ps_trace::Category::Stage,
                "post_shade",
                w as u32,
                now,
                t2,
                || vec![("pkts", n), ("bytes", bytes)],
            );
        }

        let src_node = self.worker_node(w);
        let qpi = self.cfg.testbed.ioh.qpi_hop_ns;
        for p in pkts {
            let out = p.out_port.expect("retained");
            let node = self.node_of_port(out);
            if qpi > 0 && node != src_node {
                // The frame crosses the QPI to the remote IOH before
                // its TX DMA; the hop is the parallel runtime's
                // lookahead, so in a windowed run the packet leaves
                // through the barrier (even when the destination node
                // is hosted by this same shard — routing *all*
                // crossings one way keeps delivery order independent
                // of the hosting). Sequentially it takes the heap.
                let at = t2 + qpi;
                if at > self.stop_at {
                    // Past the run horizon: a sequential run would
                    // never dispatch this arrival (`run_until` stops
                    // at the deadline) and a windowed run discards it
                    // at the barrier — ledger it at the source in
                    // both, so the drop ledger is byte-identical at
                    // every shard count.
                    self.stats.drops.far_future += 1;
                    self.reclaim_buf(p.data);
                    continue;
                }
                if self.cross_windowed {
                    self.pending_cross.push(CrossTx {
                        src: src_node,
                        to: node,
                        at,
                        pkt: p,
                    });
                } else {
                    let pkt = self.event_box(p);
                    sched.at(at, Ev::CrossArrive { node, pkt });
                }
                continue;
            }
            // TX DMA: the NIC reads the frame from host memory.
            let mut dma_done =
                self.nodes[node]
                    .ioh
                    .dma(t2, Direction::HostToDevice, dma_bytes(p.len()));
            if self.cfg.io.placement == Placement::NumaBlind && self.cfg.nodes > 1 && p.id % 4 != 0
            {
                // Blind buffers: the NIC's read crosses the remote IOH.
                let other = (node + 1) % self.cfg.nodes;
                let mirrored =
                    self.nodes[other]
                        .ioh
                        .dma(t2, Direction::HostToDevice, dma_bytes(p.len()));
                dma_done = dma_done.max(mirrored);
            }
            let len = p.len();
            let wire_done = self.port_mut(out).tx_frame(dma_done, len);
            let pkt = self.event_box(p);
            // Per-port TX completions serialize onto the wire in
            // nondecreasing order; lanes sit above the RX-node lanes.
            sched.at_fifo(
                self.cfg.nodes + out.0 as usize,
                wire_done,
                Ev::TxDone { pkt },
            );
        }
        self.wake_worker(sched, w, t2);
    }

    /// A QPI-crossing packet reached its destination node: start the
    /// TX DMA on the *remote* IOH and serialize onto the out port.
    fn on_cross_arrive(&mut self, sched: &mut Scheduler<Ev>, node: usize, pkt: Box<Packet>) {
        let now = sched.now();
        let len = pkt.len();
        let out = pkt.out_port.expect("cross packets carry an out port");
        let dma_done = self.nodes[node]
            .ioh
            .dma(now, Direction::HostToDevice, dma_bytes(len));
        let wire_done = self.port_mut(out).tx_frame(dma_done, len);
        // Cross completions interleave with the port's native TX lane
        // stream non-monotonically (two independent DMA horizons), so
        // they take the heap.
        sched.at(wire_done, Ev::TxDone { pkt });
    }
}

impl<A: App> Model for Router<A> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        match ev {
            Ev::Gen => self.on_gen(sched),
            Ev::RxReady { worker, pkt } => self.on_rx_ready(sched, worker, pkt),
            Ev::WorkerLoop { worker } => self.on_worker_loop(sched, worker),
            Ev::MasterLoop { node } => self.on_master_loop(sched, node),
            Ev::CrossArrive { node, pkt } => self.on_cross_arrive(sched, node, pkt),
            Ev::TxDone { pkt } => {
                let now = sched.now();
                if now >= self.measure_from {
                    self.sink.deliver(now, &pkt);
                    // Per-packet sojourn: RX DMA completion to last
                    // TX bit on the wire — the residence time queues
                    // and batching govern (gen-to-TX RTT additionally
                    // includes wire serialization and NIC admission
                    // wait; the sink keeps that one).
                    let sojourn = now.saturating_sub(pkt.arrival);
                    self.stats.sojourn.record(sojourn);
                    if pkt.priority {
                        self.stats.prio_sojourn.record(sojourn);
                    }
                }
                let p = self.event_unbox(pkt);
                if p.corrupted {
                    if let Some(plan) = self.plan.as_mut() {
                        plan.note_corrupt_delivered();
                    }
                }
                self.reclaim_buf(p.data);
            }
        }
    }
}

/// RSS hash over the frame's 5-tuple (Toeplitz, §4.4); non-IP frames
/// hash to 0 (queue 0), like the 82599.
pub fn rss_hash(frame: &[u8]) -> u32 {
    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return 0;
    };
    match eth.ethertype() {
        EtherType::Ipv4 => {
            let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
                return 0;
            };
            let (sport, dport) = l4_ports(ip.protocol(), ip.payload());
            let mut input = [0u8; 12];
            input[0..4].copy_from_slice(&ip.src().octets());
            input[4..8].copy_from_slice(&ip.dst().octets());
            input[8..10].copy_from_slice(&sport.to_be_bytes());
            input[10..12].copy_from_slice(&dport.to_be_bytes());
            toeplitz_hash(&MSFT_KEY, &input)
        }
        EtherType::Ipv6 => {
            let Ok(ip) = Ipv6Packet::new_checked(eth.payload()) else {
                return 0;
            };
            let (sport, dport) = l4_ports(ip.next_header(), ip.payload());
            let mut input = [0u8; 36];
            input[0..16].copy_from_slice(&ip.src().octets());
            input[16..32].copy_from_slice(&ip.dst().octets());
            input[32..34].copy_from_slice(&sport.to_be_bytes());
            input[34..36].copy_from_slice(&dport.to_be_bytes());
            toeplitz_hash(&MSFT_KEY, &input)
        }
        _ => 0,
    }
}

fn l4_ports(proto: u8, payload: &[u8]) -> (u16, u16) {
    match proto {
        ps_net::ipv4::protocol::UDP => UdpDatagram::new_checked(payload)
            .map(|u| (u.src_port(), u.dst_port()))
            .unwrap_or((0, 0)),
        ps_net::ipv4::protocol::TCP => TcpSegment::new_checked(payload)
            .map(|t| (t.src_port(), t.dst_port()))
            .unwrap_or((0, 0)),
        _ => (0, 0),
    }
}
