//! Interconnect study: drive the three network models directly with
//! synthetic uniform-random traffic (no TLBs involved) and compare their
//! latency under increasing load — the experiment behind Fig 11(c) — plus
//! a look at NOCSTAR's round-trip vs one-way acquire modes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example interconnect_study [cores] [cycles]
//! ```

use nocstar::noc::circuit::{AcquireMode, CircuitFabric};
use nocstar::noc::mesh::MeshNoc;
use nocstar::noc::traffic::run_uniform_random;
use nocstar::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let cores: usize = args.next().and_then(|c| c.parse().ok()).unwrap_or(64);
    let cycles: u64 = args.next().and_then(|c| c.parse().ok()).unwrap_or(4_000);
    let mesh = MeshShape::square_for(cores);
    println!("{mesh}, {cycles} cycles of injection per rate\n");

    let mut table = Table::new([
        "injection rate",
        "NOCSTAR",
        "SMART(8)",
        "mesh",
        "NOCSTAR no-contention %",
    ]);
    for rate in [0.01, 0.05, 0.1, 0.2, 0.3] {
        let mut fabric = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        let nocstar = run_uniform_random(&mut fabric, mesh, rate, cycles, 7);
        let mut smart = MeshNoc::smart(mesh, 8);
        let smart_r = run_uniform_random(&mut smart, mesh, rate, cycles, 7);
        let mut multihop = MeshNoc::contended(mesh);
        let mesh_r = run_uniform_random(&mut multihop, mesh, rate, cycles, 7);
        table.row([
            format!("{rate}"),
            format!("{:.2}", nocstar.mean_latency),
            format!("{:.2}", smart_r.mean_latency),
            format!("{:.2}", mesh_r.mean_latency),
            format!("{:.0}", nocstar.no_contention_fraction * 100.0),
        ]);
    }
    println!("{table}");

    println!("HPCmax sensitivity at rate 0.05 (pipelining long paths):");
    for hpc in [4usize, 8, 16] {
        let mut fabric = CircuitFabric::new(mesh, hpc, AcquireMode::OneWay);
        let report = run_uniform_random(&mut fabric, mesh, 0.05, cycles, 7);
        println!(
            "  HPCmax={hpc:2}  mean latency {:.2} cycles ({:.0}% uncontended)",
            report.mean_latency,
            report.no_contention_fraction * 100.0
        );
    }
}
