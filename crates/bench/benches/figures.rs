//! One benchmark per paper table/figure: times the code that regenerates
//! each result (generation + evaluation pipeline, not just printing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use roboshape::kernels::kernel_table;
use roboshape::{
    batched_computation, constrained_selection, coprocessor_roundtrip, emit_verilog,
    evaluate_strategies_with, pareto_frontier, single_computation, sweep_design_space_with,
    AcceleratorDesign, AcceleratorKnobs, BlockMatmulPlan, FullDesignModel, IoModel,
    MatmulLatencyModel, ParallelismProfile, Pipeline, Platform, SparsityPattern,
};
use roboshape_bench::fixture;
use roboshape_robots::{zoo, Zoo};
use std::hint::black_box;

fn bench_table1_kernels(c: &mut Criterion) {
    c.bench_function("table1_kernels", |b| b.iter(|| black_box(kernel_table())));
}

fn bench_table2_resources(c: &mut Criterion) {
    let configs = [(7usize, 7usize, 7usize), (12, 3, 6), (15, 4, 4)];
    c.bench_function("table2_resources", |b| {
        b.iter(|| {
            configs
                .iter()
                .map(|&(n, pe, blk)| {
                    FullDesignModel.estimate(n, &AcceleratorKnobs::symmetric(pe, blk))
                })
                .collect::<Vec<_>>()
        })
    });
}

fn bench_table3_metrics(c: &mut Criterion) {
    let robots: Vec<_> = Zoo::ALL.iter().map(|&z| zoo(z)).collect();
    c.bench_function("table3_metrics", |b| {
        b.iter(|| {
            robots
                .iter()
                .map(|r| black_box(r.topology().metrics()))
                .collect::<Vec<_>>()
        })
    });
}

fn bench_fig4_patterns(c: &mut Criterion) {
    let baxter = zoo(Zoo::Baxter);
    c.bench_function("fig4_patterns", |b| {
        b.iter(|| {
            let p = ParallelismProfile::of(black_box(baxter.topology()));
            let s = SparsityPattern::mass_matrix(baxter.topology());
            (p, s.nnz())
        })
    });
}

fn bench_fig9_latency(c: &mut Criterion) {
    // Full generation + latency evaluation per robot (the Fig. 9 pipeline).
    let mut g = c.benchmark_group("fig9_latency");
    let configs = [
        (Zoo::Iiwa, AcceleratorKnobs::symmetric(7, 7)),
        (Zoo::Hyq, AcceleratorKnobs::symmetric(3, 6)),
        (Zoo::Baxter, AcceleratorKnobs::symmetric(4, 4)),
    ];
    for (which, knobs) in configs {
        let topo = zoo(which).topology().clone();
        g.bench_with_input(
            BenchmarkId::from_parameter(which.name()),
            &topo,
            |b, topo| {
                b.iter(|| {
                    let d = AcceleratorDesign::generate(black_box(topo), knobs);
                    single_computation(&d)
                })
            },
        );
    }
    g.finish();
}

fn bench_fig10_roundtrip(c: &mut Criterion) {
    let d = AcceleratorDesign::generate(
        zoo(Zoo::Baxter).topology(),
        AcceleratorKnobs::symmetric(4, 4),
    );
    c.bench_function("fig10_roundtrip", |b| {
        b.iter(|| {
            let batch = batched_computation(black_box(&d), 4);
            let rt = coprocessor_roundtrip(&d, 4);
            (batch, rt.roundtrip_us())
        })
    });
    let io = IoModel::new(SparsityPattern::mass_matrix(zoo(Zoo::Hyq).topology()));
    c.bench_function("fig10_io_model", |b| {
        b.iter(|| (black_box(&io).matrix_fraction(), io.reduction()))
    });
}

fn bench_fig12_sweep(c: &mut Criterion) {
    // The full N³ sweep for the smallest robot (larger robots scale
    // cubically; iiwa keeps bench time sane).
    let topo = zoo(Zoo::Iiwa).topology().clone();
    let mut g = c.benchmark_group("fig12_sweep");
    g.sample_size(10);
    g.bench_function("iiwa", |b| {
        b.iter(|| {
            let pts = sweep_design_space_with(Pipeline::global(), black_box(&topo));
            pareto_frontier(&pts).len()
        })
    });
    g.finish();
}

fn bench_fig13_strategies(c: &mut Criterion) {
    let topo = zoo(Zoo::Hyq).topology().clone();
    let mut g = c.benchmark_group("fig13_strategies");
    g.sample_size(10);
    g.bench_function("hyq", |b| {
        b.iter(|| evaluate_strategies_with(Pipeline::global(), black_box(&topo)))
    });
    g.finish();
}

fn bench_fig15_blocksweep(c: &mut Criterion) {
    let pattern = SparsityPattern::mass_matrix(zoo(Zoo::Hyq).topology());
    let model = MatmulLatencyModel::default();
    c.bench_function("fig15_blocksweep", |b| {
        b.iter(|| {
            (1..=10u64)
                .map(|blk| {
                    BlockMatmulPlan::new(black_box(&pattern), 24, blk as usize, 3).latency(&model)
                })
                .collect::<Vec<_>>()
        })
    });
}

fn bench_fig16_constrained(c: &mut Criterion) {
    let pts = sweep_design_space_with(Pipeline::global(), zoo(Zoo::Baxter).topology());
    c.bench_function("fig16_constrained", |b| {
        b.iter(|| {
            Platform::all()
                .iter()
                .map(|&p| constrained_selection(black_box(&pts), p).is_infeasible())
                .collect::<Vec<_>>()
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    // The cycle-level simulator on the Baxter design (backs Fig. 9's
    // functional verification).
    let f = fixture(Zoo::Baxter);
    let d = AcceleratorDesign::generate(f.robot.topology(), AcceleratorKnobs::symmetric(4, 4));
    c.bench_function("simulator_baxter", |b| {
        b.iter(|| roboshape::simulate(&f.robot, black_box(&d), &f.q, &f.qd, &f.tau))
    });
}

fn bench_codegen(c: &mut Criterion) {
    let d = AcceleratorDesign::generate(
        zoo(Zoo::Baxter).topology(),
        AcceleratorKnobs::symmetric(4, 4),
    );
    c.bench_function("verilog_emit_baxter", |b| {
        b.iter(|| emit_verilog(black_box(&d)))
    });
}

criterion_group!(
    figures,
    bench_table1_kernels,
    bench_table2_resources,
    bench_table3_metrics,
    bench_fig4_patterns,
    bench_fig9_latency,
    bench_fig10_roundtrip,
    bench_fig12_sweep,
    bench_fig13_strategies,
    bench_fig15_blocksweep,
    bench_fig16_constrained,
    bench_simulator,
    bench_codegen
);
criterion_main!(figures);
