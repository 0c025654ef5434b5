//! `cargo bench --bench figures` — regenerates every paper table and figure
//! and prints the series (same rows the paper reports), timing each
//! experiment once: the payload here is the regenerated data, not
//! statistical timing; see `kernels.rs` for sampled micro-benchmarks.
//!
//! Select a subset with `cargo bench --bench figures -- fig13 fig15`.
//! `--quick` lists the registered specs without regenerating them (the CI
//! smoke mode — full regeneration takes minutes).

use biscatter_bench::all_specs;
use biscatter_bench::harness::Args;

fn main() {
    let args = Args::parse();
    if args.quick {
        for spec in all_specs() {
            println!("{}", spec.name);
        }
        println!("--quick: listed specs only, nothing regenerated");
        return;
    }
    for spec in all_specs().into_iter().filter(|s| args.wants(s.name)) {
        let start = std::time::Instant::now();
        let exp = (spec.run)();
        let elapsed = start.elapsed().as_secs_f64();
        println!("{}", exp.to_table());
        println!("[{}] regenerated in {elapsed:.2}s\n", spec.name);
    }
}
