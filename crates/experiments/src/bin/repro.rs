//! `repro` — regenerate the paper's tables and figures. `repro --help`
//! lists the flags and experiments.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};

use experiments::{
    ablation, dataset::Scale, fig1, fig11, fig2, fig3, fig6, fig7, mechanism, output::Figure,
    output::Table, table1, table3, table4, table5, table6, validate, ComparisonScale, Dataset,
    Engine,
};
use simnet::cli::Args;
use tapo::json::Json;

const HELP: &str = "\
usage: repro [--quick] [--json] [--out DIR] [--threads N] [EXPERIMENT...]

EXPERIMENT: table1 table3 table4 table5 table6 table7 table8 table9
            fig1 fig2 fig3 fig6 fig7 fig10 fig11 fig12
            ablations accuracy validate all      (default: all)

  --quick      a smaller dataset, for smoke runs
  --json       also write DIR/summary.json
  --out DIR    where CSVs are written (default results/)
  --threads N  shard flow synthesis and analysis over N workers (default:
               all cores); the output is bit-identical at any thread count
";

const EXPERIMENTS: [&str; 20] = [
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "fig1",
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "accuracy",
    "validate",
    "all",
];

/// End the run at the first failed write, naming what it was writing.
fn written(path: &Path, result: io::Result<()>) {
    if let Err(e) = result {
        eprintln!("repro: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    let mut cli = Args::new("repro", HELP, std::env::args().skip(1));
    let mut quick = false;
    let mut json = false;
    let mut threads = 0usize;
    let mut out_dir = PathBuf::from("results");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--out" => out_dir = cli.value(&flag, "a directory"),
            "--threads" => threads = cli.value(&flag, "N"),
            _ => cli.unknown(&flag),
        }
    }
    let wanted = cli.positionals();
    if let Some(name) = wanted.iter().find(|w| !EXPERIMENTS.contains(&w.as_str())) {
        cli.fail(format!("unknown experiment {name}"));
    }
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    let engine = Engine::new(threads);

    let ds_scale = if quick {
        Scale::quick()
    } else {
        Scale::standard()
    };
    let cmp_scale = if quick {
        ComparisonScale::quick()
    } else {
        ComparisonScale::standard()
    };

    let needs_dataset = [
        "table1", "table3", "table4", "table5", "table6", "table7", "fig1", "fig3", "fig6", "fig7",
        "fig10", "fig11", "fig12",
    ]
    .iter()
    .any(|e| want(e));

    let artifacts: RefCell<Vec<Json>> = RefCell::new(Vec::new());
    let print_t = |t: Table| {
        written(
            &out_dir.join(format!("{}.csv", t.id)),
            t.write_csv(&out_dir),
        );
        println!("{}", t.render());
        if json {
            artifacts.borrow_mut().push(Json::obj([
                ("kind", Json::from("table")),
                ("table", t.to_json()),
            ]));
        }
    };
    let print_f = |f: Figure| {
        written(
            &out_dir.join(format!("{}.csv", f.id)),
            f.write_csv(&out_dir),
        );
        println!("{}", f.render());
        if json {
            artifacts.borrow_mut().push(Json::obj([
                ("kind", Json::from("figure")),
                ("figure", f.to_json()),
            ]));
        }
    };

    if needs_dataset {
        eprintln!(
            "building dataset: {} flows/service (seed {}, {} threads)...",
            ds_scale.flows_per_service,
            ds_scale.seed,
            engine.threads()
        );
        let ds = Dataset::build_streaming(ds_scale, &engine);
        if want("table1") {
            print_t(table1::table1(&ds));
        }
        if want("fig1") {
            print_f(fig1::fig1a(&ds));
            print_f(fig1::fig1b(&ds));
        }
        if want("fig3") {
            print_f(fig3::fig3(&ds));
            for (svc, any, half) in fig3::stall_headline(&ds) {
                println!(
                    "   {svc}: {:.0}% of flows stalled at least once; {:.0}% stalled >50% of lifetime",
                    any * 100.0,
                    half * 100.0
                );
            }
            println!();
        }
        if want("table3") {
            print_t(table3::table3(&ds));
        }
        if want("fig6") {
            print_f(fig6::fig6(&ds));
        }
        if want("table4") {
            print_t(table4::table4(&ds));
        }
        if want("table5") {
            print_t(table5::table5(&ds));
        }
        if want("fig7") {
            let (a, b) = fig7::fig7(&ds);
            print_f(a);
            print_f(b);
        }
        if want("table6") {
            print_t(table6::table6(&ds));
        }
        if want("fig10") {
            let (a, b) = fig7::fig10(&ds);
            print_f(a);
            print_f(b);
        }
        if want("table7") {
            print_t(table6::table7(&ds));
        }
        if want("fig11") {
            print_f(fig11::fig11(&ds));
        }
        if want("fig12") {
            print_f(fig11::fig12(&ds));
        }
    }

    if want("fig2") {
        eprintln!("building fig2 scenario...");
        print_f(fig2::fig2());
    }

    if want("table8") || want("table9") {
        eprintln!(
            "running mechanism comparison: {} web + {} cloud flows × 4 mechanisms...",
            cmp_scale.web_flows, cmp_scale.cloud_flows
        );
        let cmp = mechanism::run_comparison(cmp_scale, &engine);
        if want("table8") {
            print_t(mechanism::table8(&cmp));
            print_t(mechanism::large_flow_throughput(&cmp));
        }
        if want("table9") {
            print_t(mechanism::table9(&cmp));
        }
    }

    if want("ablations") {
        eprintln!("running ablations...");
        let n = if quick { 60 } else { 200 };
        print_t(ablation::srto_sweep(n, 99, &engine));
        print_t(ablation::srto_t2_ablation(n, 99, &engine));
        print_t(ablation::burstiness_ablation(
            if quick { 40 } else { 150 },
            99,
            &engine,
        ));
        print_t(ablation::pacing_ablation(
            if quick { 40 } else { 150 },
            99,
            &engine,
        ));
        print_t(ablation::early_retransmit_ablation(
            if quick { 30 } else { 100 },
            99,
            &engine,
        ));
        print_t(ablation::crosstraffic_experiment(99, &engine));
        print_t(ablation::actionability());
    }

    if want("accuracy") {
        eprintln!("running TAPO accuracy check...");
        print_t(ablation::tapo_accuracy(
            if quick { 40 } else { 150 },
            77,
            &engine,
        ));
    }

    if want("validate") {
        eprintln!("running ground-truth validation gate...");
        let report = validate::run_validation(ds_scale.flows_per_service, ds_scale.seed, &engine);
        print_t(validate::validation_table(&report));
        let mut violations = validate::floor_violations(&report);
        eprintln!("running T-RACKs validation (accuracy + paired benefit)...");
        let tracks =
            validate::run_tracks_validation(ds_scale.flows_per_service, ds_scale.seed, &engine);
        print_t(validate::tracks_validation_table(&tracks));
        violations.extend(validate::tracks_floor_violations(&tracks));
        if violations.is_empty() {
            eprintln!("validation gate: PASS (all accuracy and benefit floors met)");
        } else {
            for v in &violations {
                eprintln!("validation gate FAIL: {v}");
            }
            std::process::exit(1);
        }
    }

    if json {
        let doc = Json::obj([
            (
                "paper",
                Json::from(
                    "Demystifying and Mitigating TCP Stalls at the Server Side (CoNEXT 2015)",
                ),
            ),
            ("quick", Json::from(quick)),
            ("threads", Json::from(engine.threads())),
            ("artifacts", Json::Arr(artifacts.into_inner())),
        ]);
        let path = out_dir.join("summary.json");
        written(&path, std::fs::write(&path, doc.pretty()));
        eprintln!("JSON summary written to {}", path.display());
    }
    eprintln!("CSV output written to {}", out_dir.display());
}
