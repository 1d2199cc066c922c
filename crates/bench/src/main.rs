//! `ps-bench` — regenerate every table and figure of the paper.
//!
//! ```text
//! ps-bench all            # everything, paper order
//! ps-bench table1         # PCIe transfer rates
//! ps-bench fig2           # IPv6 lookup, CPU vs GPU vs batch size
//! ps-bench table3 fig5 fig6 numa
//! ps-bench fig11a fig11b fig11c fig11d fig12
//! ps-bench launch spec
//! ps-bench ablate-gather ablate-streams ablate-opportunistic
//! ps-bench ablate-staging                # frames vs SoA vs direct-DMA
//! ps-bench --ablation direct-dma [o.json]# same sweep + JSON artifact
//! ps-bench overload                      # latency profiles across the knee
//! ps-bench --overload [o.json]           # same sweep + JSON artifact
//! ps-bench trace-breakdown
//! ps-bench digest                    # RouterReport hashes, 8 configs x seeds 1-8
//! ps-bench --trace-out t.json fig6   # also dump the virtual-time trace
//! ps-bench --baseline [out.json]     # record wall-clock ns/pkt snapshot
//! ps-bench --compare [base.json]     # fail on wall-clock regressions
//! ps-bench --scaling [out.json]      # shard matrix 1/2/4/8 + ratio gates
//! ps-bench --shards 2 fig11a         # eligible runs on 2 OS threads
//! ```
//!
//! `PS_BENCH_MS` sets the virtual milliseconds per throughput run
//! (default 2; the README uses 4 for smoother numbers). `--trace-out
//! <path>` (or setting `PS_TRACE`) records every simulation under a
//! trace collector; with `--trace-out` the combined timeline is
//! written as Chrome `trace_event` JSON (see OBSERVABILITY.md).

use ps_bench::experiments as ex;
use ps_bench::timed;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--shards N` is sugar for PS_SHARDS=N: every Router::run in
    // every mode below resolves its shard count from that variable,
    // and the JSON artifact headers record it. Parsed first so it
    // composes with the exclusive modes.
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        if i + 1 >= args.len() {
            eprintln!("ps-bench: --shards needs a count (>= 1)");
            std::process::exit(2);
        }
        let n = args.remove(i + 1);
        args.remove(i);
        if n.parse::<usize>().map_or(true, |n| n < 1) {
            eprintln!("ps-bench: --shards needs a numeric count >= 1, got {n}");
            std::process::exit(2);
        }
        std::env::set_var("PS_SHARDS", &n);
    }
    // Wall-clock regression harness: exclusive modes, no tracing
    // (a collector would perturb the very numbers being recorded).
    if let Some(i) = args.iter().position(|a| a == "--baseline") {
        let path = args.get(i + 1).cloned();
        let path = path.as_deref().unwrap_or("BENCH_baseline.json");
        if let Err(e) = ps_bench::baseline::write_baseline(path) {
            eprintln!("ps-bench: baseline failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let path = args.get(i + 1).cloned();
        let path = path.as_deref().unwrap_or("BENCH_baseline.json");
        match ps_bench::baseline::compare(path) {
            Ok(0) => return,
            Ok(_) => std::process::exit(1),
            Err(e) => {
                eprintln!("ps-bench: compare failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // Shard scaling matrix: the replicated minimal workload at
    // shards ∈ {1,2,4,8} under identical offered load, gated on
    // in-run speedup/overhead ratios (direction-aware, see
    // baseline::scaling_verdicts). Optional path writes the rows as a
    // JSON artifact for CI upload.
    if let Some(i) = args.iter().position(|a| a == "--scaling") {
        let path = args.get(i + 1).cloned();
        match ps_bench::baseline::scaling(path.as_deref()) {
            Ok(0) => return,
            Ok(n) => {
                eprintln!("ps-bench: {n} scaling gate(s) failed");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("ps-bench: scaling failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // Staging ablation with a JSON artifact: `--ablation direct-dma
    // [out.json]` runs the frames/soa/direct-dma sweep (the direct-DMA
    // delta is its headline) and writes the rows for CI upload.
    if let Some(i) = args.iter().position(|a| a == "--ablation") {
        if i + 1 >= args.len() {
            eprintln!("ps-bench: --ablation needs a name (direct-dma)");
            std::process::exit(2);
        }
        let name = args.remove(i + 1);
        if name != "direct-dma" && name != "staging" {
            eprintln!("ps-bench: unknown ablation {name} (have: direct-dma)");
            std::process::exit(2);
        }
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "staging_ablation.json".to_string());
        if let Err(e) = ex::staging::run_and_write(&path) {
            eprintln!("ps-bench: staging ablation failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Overload sweep with a JSON artifact: `--overload [out.json]`
    // runs the load-factor x latency-profile grid (see
    // experiments::overload) and writes the rows for CI upload.
    if let Some(i) = args.iter().position(|a| a == "--overload") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "overload_sweep.json".to_string());
        if let Err(e) = ex::overload::run_and_write(&path) {
            eprintln!("ps-bench: overload sweep failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Fault-degradation sweep: exclusive mode like the baseline
    // harness (fault plans and trace collectors are orthogonal; the
    // sweep prints its own fault_summary tables).
    if let Some(i) = args.iter().position(|a| a == "--faults") {
        if i + 1 >= args.len() {
            eprintln!("ps-bench: --faults needs a scenario (nic|corrupt|pcie|gpu|all)");
            std::process::exit(2);
        }
        let scenario = args.remove(i + 1);
        if let Err(e) = ex::faults::run_and_write(&scenario) {
            eprintln!("ps-bench: degradation sweep failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut trace_out = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            eprintln!("ps-bench: --trace-out needs a path");
            std::process::exit(2);
        }
        trace_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    if args.is_empty() {
        eprintln!("usage: ps-bench [--shards n] [--trace-out t.json] <experiment>...");
        eprintln!("       ps-bench --baseline [out.json] | --compare [base.json]");
        eprintln!("       ps-bench --scaling [out.json]  (shard matrix + ratio gates)");
        eprintln!("       ps-bench --faults <nic|corrupt|pcie|gpu|all>   (degradation sweep)");
        eprintln!("       ps-bench --overload [out.json]                 (load sweep + artifact)");
        eprintln!(
            "       ps-bench --ablation direct-dma [out.json]      (staging sweep + artifact)"
        );
        eprintln!("       (--shards n, or PS_SHARDS=n, runs eligible workloads on n threads)");
        eprintln!("experiments: spec table1 launch fig2 table3 fig5 fig6 numa");
        eprintln!("             fig11a fig11b fig11c fig11d fig12");
        eprintln!("             ablate-gather ablate-streams ablate-opportunistic ablate-staging");
        eprintln!("             nfv nfv-apps nfv-pressure overload trace-breakdown digest all");
        std::process::exit(2);
    }
    let tracing = trace_out.is_some() || std::env::var("PS_TRACE").is_ok();
    let run_all = || {
        for arg in &args {
            let ((), secs) = timed(|| dispatch(arg));
            println!("[{arg}: simulated in {secs:.1}s wall clock]");
        }
    };
    if tracing {
        let ((), collector) =
            ps_bench::trace::traced(ps_bench::trace::config_from_env_or_all(), run_all);
        if let Some(path) = trace_out {
            match ps_bench::trace::write_chrome(&collector, &path) {
                Ok(bytes) => println!("trace: wrote {path} ({bytes} bytes)"),
                Err(e) => {
                    eprintln!("ps-bench: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        run_all();
    }
}

fn dispatch(name: &str) {
    match name {
        "all" => ex::run_all(),
        "spec" => {
            ex::micro::spec_table2();
        }
        "table1" => {
            ex::micro::table1_pcie();
        }
        "launch" => {
            ex::micro::launch_latency();
        }
        "fig2" => {
            ex::fig2::run();
        }
        "table3" => {
            ex::io::table3_breakdown();
        }
        "fig5" => {
            ex::io::fig5_batching();
        }
        "fig6" => {
            ex::io::fig6_io_engine();
        }
        "numa" => {
            ex::io::numa_placement();
        }
        "fig11a" => {
            ex::apps::fig11a_ipv4();
        }
        "fig11b" => {
            ex::apps::fig11b_ipv6();
        }
        "fig11c" => {
            ex::apps::fig11c_openflow();
        }
        "fig11d" => {
            ex::apps::fig11d_ipsec();
        }
        "fig12" => {
            ex::latency::fig12();
        }
        "ablate-gather" => {
            ex::ablations::gather_scatter();
        }
        "ablate-streams" => {
            ex::ablations::concurrent_copy();
        }
        "ablate-opportunistic" => {
            ex::ablations::opportunistic();
        }
        "ablate-staging" => {
            ex::staging::run();
        }
        "overload" => {
            ex::overload::run();
        }
        "trace-breakdown" => {
            ex::trace::stage_breakdown();
        }
        "nfv" => {
            ex::nfv::run();
        }
        "nfv-apps" => {
            ex::nfv::cross_nf();
        }
        "nfv-pressure" => {
            ex::nfv::flow_pressure();
        }
        "digest" => {
            ex::digest::run_all();
        }
        "dbg-ipsec" => {
            use ps_core::apps::IpsecApp;
            use ps_core::{Router, RouterConfig};
            use ps_pktgen::{TrafficKind, TrafficSpec};
            for (size, concurrent) in [(64usize, true), (64, false), (1514, true)] {
                let mut cfg = RouterConfig::paper_gpu();
                cfg.concurrent_copy = concurrent;
                let spec = TrafficSpec {
                    kind: TrafficKind::Ipv4Udp,
                    frame_len: size,
                    offered_bits: 40_000_000_000,
                    ports: 8,
                    seed: 42,
                    flows: None,
                    ..TrafficSpec::default()
                };
                let app = IpsecApp::new([0x42; 16], 0xD00D, b"dbg");
                let r = Router::run(cfg, app, spec, 8 * ps_sim::MILLIS);
                println!(
                    "size={size} streams={concurrent} in_gbps(input)={:.1} kernels={} shade_batch={:.1} rx_drops={:?} p50={}us ioh_d2h={:.1?} ioh_h2d={:.1?}",
                    r.out_gbps_input_sized(size),
                    r.gpu_kernels,
                    r.mean_shade_batch,
                    r.drop_split,
                    r.latency.p50() / 1000,
                    r.ioh_d2h_gbit,
                    r.ioh_h2d_gbit,
                );
            }
        }
        "dbg-gpu" => {
            use ps_core::{Router, RouterConfig};
            use ps_pktgen::{TrafficKind, TrafficSpec};
            let cfg = RouterConfig::paper_gpu();
            let spec = TrafficSpec {
                kind: TrafficKind::Ipv4Udp,
                frame_len: 64,
                offered_bits: 80_000_000_000,
                ports: 8,
                seed: 42,
                flows: None,
                ..TrafficSpec::default()
            };
            let app = ps_bench::workloads::ipv4_app(50_000, 1);
            let r = Router::run(cfg, app, spec, 2 * ps_sim::MILLIS);
            println!("out={:.1} Gbps in={:.1}", r.out_gbps(), r.in_gbps());
            println!(
                "rx_drops={} app_drops={} slow={} kernels={} shade_batch={:.1} rx_batch={:.1} p50={}us",
                r.rx_drops, r.app_drops, r.slow_path, r.gpu_kernels,
                r.mean_shade_batch, r.mean_rx_batch, r.latency.p50() / 1000,
            );
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}
