//! Output checks: every one is counted as attempted, and a failure
//! makes the benchmark report `correct: false` and exit non-zero.

use std::collections::HashMap;

use ps_core::RouterReport;
use ps_crypto::esp::decrypt_tunnel;
use ps_crypto::SecurityAssociation;
use ps_lookup::route::{lpm4, Route4};
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::{Ipv4Packet, UdpDatagram};
use ps_pktgen::{Generator, TrafficSpec};

use crate::harness::{Delivered, Verifier};

/// Attempted and failed checks, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Messages of the first failures.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one check; on failure keep its message (up to 20).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// The report's drop-ledger and conservation identities.
    /// `delivered_offered` counts in-window deliveries of packets
    /// generated inside the window: the report's `delivered` also
    /// holds packets offered before the window opened, so below
    /// capacity it can exceed `offered` by the packets in flight then.
    pub fn report_identities(&mut self, r: &RouterReport, delivered_offered: u64) {
        self.check(r.drops.nic_side() == r.rx_drops, || {
            format!(
                "drops.nic_side() {} != rx_drops {}",
                r.drops.nic_side(),
                r.rx_drops
            )
        });
        self.check(delivered_offered <= r.offered.packets, || {
            format!(
                "delivered {delivered_offered} of the packets offered in the window, > offered {}",
                r.offered.packets
            )
        });
        self.check(r.delivered.packets > 0, || "nothing delivered".into());
    }

    /// Fold in checks made elsewhere (the harness's per-delivery
    /// verifier).
    pub fn add(&mut self, attempted: u64, failed: u64, messages: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = 20usize.saturating_sub(self.messages.len());
        self.messages.extend(messages.into_iter().take(room));
    }

    /// Two runs of the same inputs must give byte-identical reports.
    pub fn same_report(&mut self, what: &str, expect: &str, got: &str) {
        self.check(expect == got, || format!("{what}: report differs"));
    }
}

/// The generator's original frames for `ids`, rebuilt by replaying
/// the workload's own traffic spec.
pub fn originals(spec: &TrafficSpec, ids: &[u64]) -> HashMap<u64, Vec<u8>> {
    let Some(&last) = ids.iter().max() else {
        return HashMap::new();
    };
    let mut want: Vec<u64> = ids.to_vec();
    want.sort_unstable();
    let mut out = HashMap::with_capacity(want.len());
    let mut g = Generator::new(*spec);
    let mut next = want.iter().peekable();
    loop {
        let meta = g.next_meta();
        if next.peek() == Some(&&meta.id) {
            out.insert(meta.id, g.materialize_into(&meta, Vec::new()).data);
            while next.peek() == Some(&&meta.id) {
                next.next();
            }
        }
        if meta.id >= last {
            return out;
        }
    }
}

fn ip(frame: &[u8]) -> Option<Ipv4Packet<&[u8]>> {
    Ipv4Packet::new_checked(frame.get(ETH_LEN..)?).ok()
}

/// IPv4 forwarding: each sampled packet left through the port a naive
/// longest-prefix match over the route list picks, with its
/// destination kept, TTL decremented and header checksum valid.
pub fn ipv4(c: &mut Checks, routes: &[Route4], spec: &TrafficSpec, samples: &[Delivered]) {
    let ids: Vec<u64> = samples.iter().map(|d| d.id).collect();
    let orig = originals(spec, &ids);
    for d in samples {
        let (Some(out), Some(o)) = (ip(&d.data), orig.get(&d.id).and_then(|f| ip(f))) else {
            c.check(false, || format!("ipv4 packet {}: unparsable frame", d.id));
            continue;
        };
        let dst = u32::from(o.dst());
        let expect = lpm4(routes, dst);
        c.check(d.out_port == expect, || {
            format!(
                "ipv4 packet {} to {dst:#010x}: out_port {:?}, LPM says {expect:?}",
                d.id, d.out_port
            )
        });
        c.check(
            out.dst() == o.dst() && out.ttl() + 1 == o.ttl() && out.verify_checksum(),
            || format!("ipv4 packet {}: header not forwarded correctly", d.id),
        );
    }
}

/// A second, independent longest-prefix match: one hash map per
/// prefix length, probed from the longest length down. Fast enough to
/// check every delivered packet; the same tie rule as `lpm4` (the last
/// of equal routes wins).
pub struct PrefixMaps {
    by_len: Vec<(u8, HashMap<u32, u16>)>,
}

impl PrefixMaps {
    /// Index `routes`.
    pub fn new(routes: &[Route4]) -> PrefixMaps {
        let mut by_len: Vec<(u8, HashMap<u32, u16>)> = Vec::new();
        for r in routes {
            let i = match by_len.iter().position(|(l, _)| *l == r.len) {
                Some(i) => i,
                None => {
                    by_len.push((r.len, HashMap::new()));
                    by_len.len() - 1
                }
            };
            by_len[i].1.insert(r.prefix, r.hop);
        }
        by_len.sort_by_key(|(len, _)| std::cmp::Reverse(*len));
        PrefixMaps { by_len }
    }

    /// The hop of the longest matching prefix.
    pub fn lookup(&self, addr: u32) -> Option<u16> {
        self.by_len
            .iter()
            .find_map(|(len, m)| m.get(&ps_lookup::route::mask4(addr, *len)).copied())
    }
}

/// IPv4 forwarding, every delivered packet: the out port is the one a
/// [`PrefixMaps`] lookup of its destination picks, and the rewritten
/// header's checksum is valid.
pub fn ipv4_verifier(routes: &[Route4]) -> Verifier {
    let maps = PrefixMaps::new(routes);
    Box::new(move |p| {
        let ip = ip(&p.data).ok_or("unparsable frame")?;
        let dst = u32::from(ip.dst());
        let expect = maps.lookup(dst);
        let got = p.out_port.map(|o| o.0);
        if got != expect {
            return Err(format!(
                "ipv4 packet {} to {dst:#010x}: out_port {got:?}, LPM says {expect:?}",
                p.id
            ));
        }
        if !ip.verify_checksum() {
            return Err(format!("ipv4 packet {}: bad header checksum", p.id));
        }
        Ok(())
    })
}

/// IPsec: each sampled packet decrypts (ICV verified) back to exactly
/// the inner packet the generator sent.
pub fn ipsec(c: &mut Checks, sa: &SecurityAssociation, spec: &TrafficSpec, samples: &[Delivered]) {
    let ids: Vec<u64> = samples.iter().map(|d| d.id).collect();
    let orig = originals(spec, &ids);
    for d in samples {
        let inner = ip(&d.data)
            .ok_or_else(|| "outer header unparsable".to_string())
            .and_then(|outer| decrypt_tunnel(sa, outer.payload()).map_err(|e| format!("{e:?}")));
        let expect = orig.get(&d.id).map(|f| &f[ETH_LEN..]);
        c.check(
            matches!((&inner, expect), (Ok(i), Some(e)) if i.as_slice() == e),
            || {
                format!(
                    "ipsec packet {}: round trip failed ({:?})",
                    d.id,
                    inner.err()
                )
            },
        );
    }
}

/// A UDP flow as the generator sent it: source, destination, ports.
type Flow = (u32, u32, u16, u16);

/// First address of node `node`'s public NAT pool: one /16 per node
/// starting at 203.113.0.0 (see `ps_core::apps::nat`).
const NAT_POOL_BASE: u32 = 0xCB71_0000;
/// Ports per NUMA node on the paper box.
const PORTS_PER_NODE: u16 = 4;

/// NAT: every sampled packet of one flow leaves with the same external
/// source address and port, drawn from its RX node's pool, and with
/// its destination untouched. Translation state is per RX node, and
/// input ports rotate, so a flow is bound once per node.
pub fn nat(c: &mut Checks, spec: &TrafficSpec, samples: &[Delivered]) {
    let ids: Vec<u64> = samples.iter().map(|d| d.id).collect();
    let orig = originals(spec, &ids);
    let mut bindings: HashMap<(u32, Flow), (u32, u16)> = HashMap::new();
    for d in samples {
        let parsed = orig.get(&d.id).and_then(|f| {
            let (o, t) = (ip(f)?, ip(&d.data)?);
            let (ou, tu) = (
                UdpDatagram::new_checked(o.payload()).ok()?,
                UdpDatagram::new_checked(t.payload()).ok()?,
            );
            Some((
                (
                    u32::from(o.src()),
                    u32::from(o.dst()),
                    ou.src_port(),
                    ou.dst_port(),
                ),
                (u32::from(t.src()), tu.src_port()),
                (u32::from(t.dst()), tu.dst_port()),
            ))
        });
        let Some((flow, ext, dst)) = parsed else {
            c.check(false, || format!("nat packet {}: unparsable frame", d.id));
            continue;
        };
        let node = u32::from(d.in_port / PORTS_PER_NODE);
        let pool = NAT_POOL_BASE + (node << 16);
        c.check(
            (pool..pool + 0x1_0000).contains(&ext.0) && ext.1 >= 1024 && dst == (flow.1, flow.3),
            || format!("nat packet {}: {ext:?} outside node {node}'s pool", d.id),
        );
        let first = *bindings.entry((node, flow)).or_insert(ext);
        c.check(first == ext, || {
            format!("nat flow {flow:?} on node {node} remapped from {first:?} to {ext:?}")
        });
    }
}
