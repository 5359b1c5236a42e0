//! Suite-level evaluation (paper §V): per-kernel fair co-scheduling results
//! and the average sensitivity to interference — compact Figs 6 and 7 on
//! reduced problem sizes.
//!
//! ```text
//! cargo run --release --example polybench_sweep
//! ```

use prem_gpu::harness::PlanExecutor;
use prem_gpu::kernels::suite_small;
use prem_gpu::report::fig6::fig6_with;
use prem_gpu::report::fig7::fig7_with_sweep_from;
use prem_gpu::report::Harness;

fn main() {
    let suite = suite_small();
    let harness = Harness::quick();
    // One executor for both figures: runs shared between them execute once.
    let executor = PlanExecutor::new();

    let f6 = fig6_with(&suite, &harness, 160, 8, &executor);
    println!("{}", f6.table());
    println!(
        "LLC vs SPM (geomean, interference): {:.2}x  |  LLC vs baseline-interf: {:.2}x (best {:.2}x)\n",
        f6.avg_spm_over_llc(),
        f6.avg_base_over_llc_intf(),
        f6.best_base_over_llc_intf()
    );

    let f7 = fig7_with_sweep_from(&suite, &harness, 8, &[64, 96, 128, 160, 192], &executor);
    println!("{}", f7.table());
    println!(
        "PREM keeps sensitivity in the single digits; the baseline suffers {:.0}%.",
        f7.baseline_sensitivity * 100.0
    );
}
