//! Parallel suite campaign: plan the scenario matrix, execute it
//! across worker threads, aggregate it, and print the per-library
//! speedup summary — the pipeline `swan-report --threads N` runs for
//! the full 59-kernel campaign.
//!
//! ```text
//! cargo run --release --example campaign [threads]
//! ```

use std::collections::BTreeMap;
use swan::prelude::*;
use swan_core::report::library_speedups;
use swan_core::{aggregate, execution_groups, try_execute_plan_checkpointed};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("thread count"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let kernels = swan::suite();
    println!(
        "campaign over {} kernels on {threads} thread{}...",
        kernels.len(),
        if threads == 1 { "" } else { "s" }
    );

    let t0 = std::time::Instant::now();
    let plan = plan(&kernels, Scale::test(), 42);
    let groups = execution_groups(&plan).len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let run = try_execute_plan_checkpointed(&kernels, &plan, threads, None, None, None, |msg| {
        let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        eprintln!("  [{n:>3}/{groups}] {msg}");
    });
    for f in &run.failures {
        eprintln!("campaign kernel failed: {}: {}", f.id, f.message);
    }
    if !run.failures.is_empty() {
        std::process::exit(1);
    }
    let suite = aggregate(&kernels, &plan, &run.measurements, Scale::test());
    println!("campaign finished in {:.1}s\n", t0.elapsed().as_secs_f32());

    let speedups: BTreeMap<Library, f64> = library_speedups(&suite);
    println!("{:<6} {:>14}", "lib", "Neon perf(x)");
    for (lib, s) in &speedups {
        println!("{:<6} {:>14.2}", lib.to_string(), s);
    }
    let geomean = speedups.values().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
    println!("\nsuite geomean speedup: {:.2}x", geomean.exp());
}
