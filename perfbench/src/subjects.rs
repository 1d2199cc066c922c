//! The app constructor and output check of each workload kind.

use ps_core::apps::{IpsecApp, Ipv4App, NatApp};
use ps_core::RouterConfig;
use ps_crypto::SecurityAssociation;
use ps_lookup::route::Route4;
use ps_pktgen::TrafficSpec;

use crate::checks::{self, Checks};
use crate::harness::{Delivered, Verifier};
use crate::measure::Subject;
use crate::workloads;

/// IPv4 forwarding over the seed's route table.
pub struct Ipv4 {
    /// The route list the table is built from and checked against.
    pub routes: Vec<Route4>,
}

impl Subject for Ipv4 {
    type A = Ipv4App;
    /// The DIR-24-8 table build is part of set-up.
    fn build(&self) -> Ipv4App {
        Ipv4App::new(&self.routes)
    }
    fn check_outputs(&self, c: &mut Checks, spec: &TrafficSpec, samples: &[Delivered]) {
        checks::ipv4(c, &self.routes, spec, samples);
    }
    fn verifier(&self) -> Option<Verifier> {
        Some(checks::ipv4_verifier(&self.routes))
    }
}

/// The IPsec gateway keyed from the seed.
pub struct Ipsec {
    /// Workload seed (keys).
    pub seed: u64,
}

impl Subject for Ipsec {
    type A = IpsecApp;
    fn build(&self) -> IpsecApp {
        workloads::ipsec_app(self.seed)
    }
    fn check_outputs(&self, c: &mut Checks, spec: &TrafficSpec, samples: &[Delivered]) {
        let sa: SecurityAssociation = self.build().peer_sa();
        checks::ipsec(c, &sa, spec, samples);
    }
}

/// Source NAT.
pub struct Nat {
    /// Router configuration (port and node counts).
    pub cfg: RouterConfig,
}

impl Subject for Nat {
    type A = NatApp;
    fn build(&self) -> NatApp {
        workloads::nat_app(&self.cfg)
    }
    fn check_outputs(&self, c: &mut Checks, spec: &TrafficSpec, samples: &[Delivered]) {
        checks::nat(c, spec, samples);
    }
}
