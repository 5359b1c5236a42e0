//! The paper's case study (§III-A and §IV-A): how interval size `T` and the
//! prefetch repetition factor `R` shape the CPMR and the execution-time
//! breakdown of `bicg` — a compact reproduction of Figs 3, 4 and 5.
//!
//! ```text
//! cargo run --release --example bicg_case_study
//! ```

use prem_gpu::harness::PlanExecutor;
use prem_gpu::kernels::Bicg;
use prem_gpu::report::fig3::fig35_with;
use prem_gpu::report::fig4::fig4_with_sweeps_from;
use prem_gpu::report::Harness;

fn main() {
    let kernel = Bicg::new(512, 512);
    let harness = Harness::quick();
    // One executor for every figure: runs shared between them execute once.
    let executor = PlanExecutor::new();

    // Fig 4 (reduced grid): CPMR vs (R, T).
    let grid = fig4_with_sweeps_from(
        &kernel,
        &harness,
        &[1, 2, 4, 8],
        &[64, 128, 160, 192, 224, 256],
        &executor,
    );
    println!("{}", grid.table());
    let knee_before = grid.at(8, 192).expect("grid value");
    let knee_after = grid.at(8, 256).expect("grid value");
    println!(
        "good-way capacity knee: CPMR {:.2}% at 192K vs {:.2}% at 256K\n",
        knee_before * 100.0,
        knee_after * 100.0
    );

    // Fig 3 (naive) vs Fig 5 (tamed) at a few sizes.
    for r in [1, 8] {
        let fig = fig35_with(&kernel, &harness, r, &[64, 96], &[96, 160, 192], &executor);
        println!("{}", fig.table());
        println!("{}", fig.chart());
    }
}
