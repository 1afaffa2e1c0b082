//! One bench per table and figure of the paper's evaluation.
//!
//! Each bench regenerates its artifact from the shared quick-scale dataset
//! (the data-dependent experiments) or by running the underlying pipeline
//! (Fig. 2 and the Table 8/9 mechanism comparison). The point is twofold:
//! the artifacts are reproduced under `cargo bench`, and regressions in the
//! analysis pipeline's performance are caught. A final section compares the
//! serial engine against the parallel one on the same workload.

use bench_suite::{quick_dataset, Harness};
use experiments::{
    ablation, fig1, fig11, fig2, fig3, fig6, fig7, mechanism, table1, table3, table4, table5,
    table6, ComparisonScale, Dataset, Engine,
};

fn dataset_benches(h: &Harness) {
    // Building the dataset is the expensive step shared by most artifacts:
    // benchmark it once, at a reduced scale.
    let scale = experiments::Scale {
        flows_per_service: 10,
        seed: 1,
    };
    h.bench("dataset/build_quick", || {
        Dataset::build_streaming(scale, &Engine::serial())
            .services
            .len()
    });

    let ds = quick_dataset();
    h.bench("tables/table1", || table1::table1(&ds));
    h.bench("tables/table3", || table3::table3(&ds));
    h.bench("tables/table4", || table4::table4(&ds));
    h.bench("tables/table5", || table5::table5(&ds));
    h.bench("tables/table6", || table6::table6(&ds));
    h.bench("tables/table7", || table6::table7(&ds));

    h.bench("figures/fig1a", || fig1::fig1a(&ds));
    h.bench("figures/fig1b", || fig1::fig1b(&ds));
    h.bench("figures/fig3", || fig3::fig3(&ds));
    h.bench("figures/fig6", || fig6::fig6(&ds));
    h.bench("figures/fig7", || fig7::fig7(&ds));
    h.bench("figures/fig10", || fig7::fig10(&ds));
    h.bench("figures/fig11", || fig11::fig11(&ds));
    h.bench("figures/fig12", || fig11::fig12(&ds));

    // Print the regenerated artifacts once so `cargo bench` leaves the
    // paper's numbers in its log.
    println!("{}", table1::table1(&ds).render());
    println!("{}", table3::table3(&ds).render());
    println!("{}", table5::table5(&ds).render());
}

fn scenario_benches(h: &Harness) {
    h.bench("scenario/fig2_illustrative_flow", || {
        fig2::fig2_flow().1.stalls.len()
    });
}

fn mechanism_benches(h: &Harness) {
    let scale = ComparisonScale {
        web_flows: 20,
        cloud_short_flows: 20,
        cloud_flows: 10,
        seed: 360,
    };
    h.bench("mechanism/table8_table9_comparison", || {
        let cmp = mechanism::run_comparison(scale, &Engine::serial());
        (mechanism::table8(&cmp), mechanism::table9(&cmp))
    });

    let cmp = mechanism::run_comparison(ComparisonScale::quick(), &Engine::serial());
    println!("{}", mechanism::table8(&cmp).render());
    println!("{}", mechanism::table9(&cmp).render());
    println!("{}", mechanism::large_flow_throughput(&cmp).render());
}

fn ablation_benches(h: &Harness) {
    let engine = Engine::serial();
    h.bench("ablation/burstiness", || {
        ablation::burstiness_ablation(10, 99, &engine)
    });
    h.bench("ablation/srto_t2", || {
        ablation::srto_t2_ablation(15, 99, &engine)
    });
}

fn engine_benches(h: &Harness) {
    // The tentpole comparison: the same dataset build, serial vs all cores.
    // Parallel output is bit-identical; the ratio of these two numbers is
    // the speedup on this machine.
    let scale = experiments::Scale {
        flows_per_service: 40,
        seed: 2015,
    };
    let serial = h.bench("engine/dataset_serial", || {
        Dataset::build_streaming(scale, &Engine::serial())
            .services
            .len()
    });
    let auto = Engine::auto();
    let parallel = h.bench(
        &format!("engine/dataset_{}_threads", auto.threads()),
        || Dataset::build_streaming(scale, &auto).services.len(),
    );
    if let (Some(s), Some(p)) = (serial, parallel) {
        println!(
            "engine speedup: {:.2}x on {} threads",
            s.as_secs_f64() / p.as_secs_f64().max(1e-12),
            auto.threads()
        );
    }
}

fn main() {
    let h = Harness::from_args();
    dataset_benches(&h);
    scenario_benches(&h);
    mechanism_benches(&h);
    ablation_benches(&h);
    engine_benches(&h);
}
