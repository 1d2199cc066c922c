//! The master loop (§5.3): gather worker chunks into one batch,
//! shade it on the node's GPU (or fall back to the CPU under injected
//! faults), and scatter the results back to per-worker output queues.

use ps_fault::ShadeFault;
use ps_hw::ioh::Direction;
use ps_io::Packet;
use ps_sim::time::Time;
use ps_sim::{Scheduler, MICROS};

use crate::app::App;
use crate::chunk::Chunk;

use super::node::NodeShard;
use super::{Ev, Router};

/// Master orchestration cycles per gathered chunk (it "transfers the
/// input data ... without touching the data itself", §5.3).
const MASTER_CYCLES_PER_CHUNK: u64 = 300;
/// Driver timeout before the host notices a dead or escalated GPU
/// batch and starts the CPU fallback.
const FAULT_DETECT_NS: Time = 10 * MICROS;

impl<A: App> Router<A> {
    /// Trace lane for node `node`'s master gather work: masters get
    /// the lanes just above the workers so every thread in the machine
    /// has its own row in the timeline.
    fn gather_lane(&self, node: usize) -> u32 {
        (self.cfg.total_workers() + node) as u32
    }

    /// Trace lane for node `node`'s shading intervals. Kept separate
    /// from the gather lane because in stream mode the next gather
    /// overlaps the previous shade; per-lane stage spans stay disjoint
    /// so busy-time accounting can sum them.
    fn shade_lane(&self, node: usize) -> u32 {
        (self.cfg.total_workers() + self.cfg.nodes + node) as u32
    }

    pub(super) fn on_master_loop(&mut self, sched: &mut Scheduler<Ev>, node: usize) {
        let now = sched.now();
        let ms = self.master_mut(node);
        if ms.next_wake != Some(now) {
            return; // superseded by the pending wake
        }
        ms.next_wake = None;
        // Wakes are never armed before `busy_until` (DESIGN.md §7).
        assert!(ms.busy_until <= now, "master woken while busy");
        if ms.input.is_empty() {
            return;
        }
        // Gather pending chunks (Figure 10(b)); without gather, take
        // exactly one.
        let take = if self.cfg.gather {
            self.cfg
                .max_gather_chunks
                .min(self.master_mut(node).input.len())
        } else {
            1
        };
        let chunks: Vec<Chunk> = self.master_mut(node).input.drain(..take).collect();
        let mut all: Vec<Packet> = Vec::with_capacity(chunks.iter().map(Chunk::len).sum());
        let mut splits = Vec::with_capacity(take);
        for c in &chunks {
            splits.push((c.worker, c.len(), c.fetched_at));
        }
        for c in chunks {
            all.extend(c.packets);
        }

        let ready = now + self.cycles_ns(MASTER_CYCLES_PER_CHUNK * take as u64);
        self.stats.shade_batches += 1;
        self.stats.shade_packets += all.len() as u64;
        let n = all.len() as u64;
        ps_trace::complete(
            ps_trace::Category::Stage,
            "gather",
            self.gather_lane(node),
            now,
            ready,
            || vec![("chunks", take as u64), ("pkts", n)],
        );
        // Injected shading faults: a PCIe stall pushes the batch (and
        // the node's fabric) back by its retry backoff; an abort or an
        // exhausted retry budget sends the whole batch down the CPU
        // fallback; a straggler stretches the launch.
        let mut start = ready;
        let mut fallback = false;
        let mut straggle_pct = 0u32;
        if let Some(plan) = self.plan.as_mut() {
            match plan.shade_fault(node, ready) {
                ShadeFault::None => {}
                ShadeFault::PcieStall { stall_ns, escalate } => {
                    self.nodes[node]
                        .ioh
                        .inject_stall(ready, Direction::HostToDevice, stall_ns);
                    start = ready + stall_ns;
                    fallback = escalate;
                }
                ShadeFault::GpuAbort => {
                    fallback = true;
                    // A device context reset loses any state the app
                    // keeps synchronized on this node's GPU (a
                    // stateful NF's flow table); let it reconcile
                    // before the CPU fallback re-runs the batch.
                    self.app.on_gpu_fault(node);
                }
                ShadeFault::Straggle { extra_pct } => straggle_pct = extra_pct,
            }
        }

        if fallback {
            // The GPU batch is lost: after the driver timeout the
            // master re-runs the kernel functionally on the host at
            // the calibrated CPU cost. `process_cpu` may *remove*
            // packets the shader would only have unmarked, so the
            // scatter walks survivors against each split's original
            // id range (order is preserved).
            let ids: Vec<u64> = all.iter().map(|p| p.id).collect();
            let corrupt_before = all.iter().filter(|p| p.corrupted).count() as u64;
            let cycles = self.app.process_cpu(&mut all);
            let done = start + FAULT_DETECT_NS + self.cycles_ns(cycles);
            if let Some(plan) = self.plan.as_mut() {
                plan.note_cpu_fallback(ids.len() as u64);
                let after = all.iter().filter(|p| p.corrupted).count() as u64;
                plan.note_corrupt_dropped(corrupt_before - after);
            }
            self.stats.app_drops += (ids.len() - all.len()) as u64;
            ps_trace::complete(
                ps_trace::Category::Stage,
                "cpu_fallback",
                self.shade_lane(node),
                start,
                done,
                || vec![("pkts", n)],
            );
            let mut out: Vec<Vec<Packet>> = splits
                .iter()
                .map(|&(_, len, _)| Vec::with_capacity(len))
                .collect();
            let mut j = 0usize; // cursor into the original id sequence
            let mut s = 0usize; // current split
            let mut bound = splits[0].1;
            for p in all {
                while ids[j] != p.id {
                    j += 1;
                }
                while j >= bound {
                    s += 1;
                    bound += splits[s].1;
                }
                out[s].push(p);
                j += 1;
            }
            for ((worker, _, fetched_at), pkts) in splits.into_iter().zip(out) {
                let chunk = Chunk::new(worker, pkts, fetched_at);
                self.worker_mut(worker).done_queue.push_back((done, chunk));
                self.wake_worker(sched, worker, done);
            }
            // The master itself did the fallback work: it blocks
            // until the batch is done regardless of stream mode.
            self.master_mut(node).busy_until = done;
        } else {
            let NodeShard { ioh, gpu, .. } = &mut self.nodes[node];
            let done = self.app.shade(
                node,
                gpu.as_mut().expect("CpuGpu mode has a GPU per node"),
                ioh,
                start,
                &mut all,
            );
            let done = if straggle_pct > 0 {
                let extra = (done - start) * u64::from(straggle_pct) / 100;
                // The straggling warp occupies the engines past the
                // modeled completion, queueing the next launch too.
                self.nodes[node]
                    .gpu
                    .as_mut()
                    .expect("CpuGpu mode has a GPU per node")
                    .delay_engines(extra);
                if let Some(plan) = self.plan.as_mut() {
                    plan.note_straggle_ns(extra);
                }
                done + extra
            } else {
                done
            };
            ps_trace::complete(
                ps_trace::Category::Stage,
                "shade",
                self.shade_lane(node),
                start,
                done,
                || vec![("pkts", n)],
            );

            // Scatter results back to per-worker output queues, moving
            // the packets out of the gathered batch — no per-packet
            // clones of the frame data.
            let mut rest = all.into_iter();
            for (worker, len, fetched_at) in splits {
                let pkts: Vec<Packet> = rest.by_ref().take(len).collect();
                let chunk = Chunk::new(worker, pkts, fetched_at);
                self.worker_mut(worker).done_queue.push_back((done, chunk));
                self.wake_worker(sched, worker, done);
            }

            // With streams the master pipelines the next gather behind
            // this one as soon as this gather's uploads are queued;
            // without streams it blocks until the results are back.
            self.master_mut(node).busy_until = if self.cfg.concurrent_copy {
                start.max(
                    self.nodes[node]
                        .gpu
                        .as_ref()
                        .expect("CpuGpu mode has a GPU per node")
                        .next_copy_slot(),
                )
            } else {
                done
            };
        }
        // Re-check the queue once free, whether or not it is empty.
        self.wake_master(sched, node, self.nodes[node].master.busy_until);
    }
}
