//! One criterion bench per paper artifact: each measures the end-to-end
//! regeneration of a figure on a reduced problem size (the full-size
//! artifacts are produced by the `figures` binary; see EXPERIMENTS.md).
//! Plan-backed figures render from a fresh `PlanExecutor` per iteration,
//! so every iteration times execution, not cache hits.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use prem_harness::PlanExecutor;
use prem_kernels::{suite_small, Bicg};
use prem_memsim::KIB;
use prem_report::{
    ablation, common::Harness, fig2::fig2, fig3::fig35_with, fig4::fig4_with_sweeps_from,
    fig6::fig6_with, fig7::fig7_with_sweep_from, mei::mei,
};

fn bench_fig2(c: &mut Criterion) {
    let kernel = Bicg::new(256, 256);
    c.bench_function("fig2_instruction_counts", |b| {
        b.iter(|| black_box(fig2(&kernel, 96 * KIB)))
    });
}

fn bench_fig3(c: &mut Criterion) {
    let kernel = Bicg::new(256, 256);
    let harness = Harness::quick();
    c.bench_function("fig3_breakdown_r1", |b| {
        b.iter(|| {
            let x = PlanExecutor::new();
            black_box(fig35_with(&kernel, &harness, 1, &[48, 96], &[96, 160], &x))
        })
    });
}

fn bench_fig4(c: &mut Criterion) {
    let kernel = Bicg::new(256, 256);
    let harness = Harness::quick();
    c.bench_function("fig4_cpmr_grid", |b| {
        b.iter(|| {
            let x = PlanExecutor::new();
            black_box(fig4_with_sweeps_from(
                &kernel,
                &harness,
                &[1, 8],
                &[96, 192],
                &x,
            ))
        })
    });
}

fn bench_fig5(c: &mut Criterion) {
    let kernel = Bicg::new(256, 256);
    let harness = Harness::quick();
    c.bench_function("fig5_breakdown_r8", |b| {
        b.iter(|| {
            let x = PlanExecutor::new();
            black_box(fig35_with(&kernel, &harness, 8, &[48, 96], &[96, 160], &x))
        })
    });
}

fn bench_fig6(c: &mut Criterion) {
    let suite = suite_small();
    let harness = Harness::quick();
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("fig6_per_kernel", |b| {
        b.iter(|| black_box(fig6_with(&suite, &harness, 160, 8, &PlanExecutor::new())))
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let suite = suite_small();
    let harness = Harness::quick();
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fig7_sensitivity", |b| {
        b.iter(|| {
            let x = PlanExecutor::new();
            black_box(fig7_with_sweep_from(&suite, &harness, 8, &[96, 160], &x))
        })
    });
    g.finish();
}

fn bench_mei(c: &mut Criterion) {
    c.bench_function("mei_dissection", |b| b.iter(|| black_box(mei(2_000, 7))));
}

fn bench_ablation(c: &mut Criterion) {
    let kernel = Bicg::new(256, 256);
    let harness = Harness::quick();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.bench_function("policy_ablation", |b| {
        b.iter(|| black_box(ablation::policy_ablation(&kernel, &harness, 96 * KIB, &[8])))
    });
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig2, bench_fig3, bench_fig4, bench_fig5, bench_fig6,
              bench_fig7, bench_mei, bench_ablation
}
criterion_main!(figures);
