//! One module per paper artifact. Every function both prints its
//! table and returns the data, so integration tests can assert the
//! shapes (who wins, crossovers, ceilings) without parsing text.

pub mod ablations;
pub mod apps;
pub mod digest;
pub mod faults;
pub mod fig2;
pub mod io;
pub mod latency;
pub mod micro;
pub mod nfv;
pub mod overload;
pub mod staging;
pub mod trace;

/// Run everything in paper order (the `ps-bench all` entry point).
pub fn run_all() {
    micro::spec_table2();
    micro::table1_pcie();
    micro::launch_latency();
    fig2::run();
    io::table3_breakdown();
    io::fig5_batching();
    io::fig6_io_engine();
    io::numa_placement();
    apps::fig11a_ipv4();
    apps::fig11b_ipv6();
    apps::fig11c_openflow();
    apps::fig11d_ipsec();
    latency::fig12();
    ablations::gather_scatter();
    ablations::concurrent_copy();
    ablations::opportunistic();
    staging::run();
    nfv::run();
    overload::run();
    trace::stage_breakdown();
}
