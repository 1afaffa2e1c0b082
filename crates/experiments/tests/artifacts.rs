//! Structural tests of the reproduced artifacts: every table/figure must
//! have the paper's shape properties at any scale, not just look plausible
//! at the standard seed.

use experiments::{
    fig1, fig11, fig3, fig6, fig7, mechanism, table1, table3, table4, table5, table6,
    ComparisonScale, Dataset, Engine, Scale,
};

fn dataset(flows_per_service: usize, seed: u64) -> Dataset {
    let scale = Scale {
        flows_per_service,
        seed,
    };
    Dataset::build_streaming(scale, &Engine::serial())
}

fn tiny_dataset() -> Dataset {
    dataset(25, 99)
}

#[test]
fn table1_has_three_service_rows() {
    let ds = tiny_dataset();
    let t = table1::table1(&ds);
    assert_eq!(t.rows.len(), 3);
    assert_eq!(t.header.len(), 7);
    // #flows column reflects the scale.
    for row in &t.rows {
        assert_eq!(row[1], "25");
    }
}

#[test]
fn table3_shares_sum_to_about_hundred() {
    let ds = tiny_dataset();
    let t = table3::table3(&ds);
    // Columns 2.. are per-service volume/time percentages; each column
    // must sum to ~100 (or 0 if the service had no stalls).
    for col in 2..t.header.len() {
        let sum: f64 = t
            .rows
            .iter()
            .map(|r| r[col].parse::<f64>().unwrap_or(0.0))
            .sum();
        assert!(
            (sum - 100.0).abs() < 1.5 || sum == 0.0,
            "column {} ({}) sums to {sum}",
            col,
            t.header[col]
        );
    }
}

#[test]
fn table5_shares_sum_to_about_hundred() {
    let ds = tiny_dataset();
    let t = table5::table5(&ds);
    for col in 1..t.header.len() {
        let sum: f64 = t
            .rows
            .iter()
            .map(|r| r[col].parse::<f64>().unwrap_or(0.0))
            .sum();
        assert!(
            (sum - 100.0).abs() < 1.5 || sum == 0.0,
            "column {} ({}) sums to {sum}",
            col,
            t.header[col]
        );
    }
}

#[test]
fn table4_zero_window_probability_declines_with_rwnd_for_software() {
    // The paper's key correlation: larger initial windows mean fewer
    // zero-window flows. Use a bigger sample for a stable monotone trend.
    let ds = dataset(150, 7);
    let t = table4::table4(&ds);
    let soft = t
        .rows
        .iter()
        .find(|r| r[0].contains("soft"))
        .expect("software row");
    let values: Vec<f64> = soft[1..].iter().filter_map(|c| c.parse().ok()).collect();
    assert!(
        values.len() >= 3,
        "need at least 3 populated buckets: {soft:?}"
    );
    assert!(
        values.first().unwrap() > values.last().unwrap(),
        "zero-window probability must decline with init rwnd: {values:?}"
    );
}

#[test]
fn figures_are_valid_cdfs() {
    let ds = tiny_dataset();
    let figs = vec![
        fig1::fig1a(&ds),
        fig1::fig1b(&ds),
        fig3::fig3(&ds),
        fig6::fig6(&ds),
        fig7::fig7(&ds).0,
        fig7::fig7(&ds).1,
        fig7::fig10(&ds).0,
        fig7::fig10(&ds).1,
        fig11::fig11(&ds),
        fig11::fig12(&ds),
    ];
    for f in figs {
        for s in &f.series {
            // Monotone nondecreasing, bounded in [0,1].
            let mut prev = 0.0;
            for &(x, y) in &s.points {
                assert!(x.is_finite());
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&y),
                    "{} {}: y={y}",
                    f.id,
                    s.name
                );
                assert!(
                    y + 1e-9 >= prev,
                    "{} {} not monotone at x={x}",
                    f.id,
                    s.name
                );
                prev = y;
            }
        }
    }
}

#[test]
fn fig6_reproduces_the_small_window_population() {
    let ds = dataset(150, 7);
    let f = fig6::fig6(&ds);
    let soft = f
        .series
        .iter()
        .find(|s| s.name.contains("soft"))
        .expect("software series");
    // CDF at 11 MSS ≈ the paper's 18% small-window share.
    let at11 = soft
        .points
        .iter()
        .find(|(x, _)| *x == 11.0)
        .map(|(_, y)| *y)
        .unwrap();
    assert!((0.08..=0.30).contains(&at11), "CDF(11 MSS) = {at11}");
    // And everyone is below the top bucket.
    assert_eq!(soft.points.last().unwrap().1, 1.0);
}

#[test]
fn comparison_is_paired_and_complete() {
    let scale = ComparisonScale {
        web_flows: 10,
        cloud_short_flows: 10,
        cloud_flows: 5,
        seed: 3,
    };
    let cmp = mechanism::run_comparison(scale, &Engine::serial());
    assert_eq!(cmp.runs.len(), 4);
    assert_eq!(cmp.runs[0].label, "Linux");
    assert_eq!(cmp.runs[3].label, "T-RACKs");
    // Identical populations: same number of flows and same offered bytes.
    let bytes = |c: &workloads::Corpus| c.flows.iter().map(|f| f.response_bytes).sum::<u64>();
    for run in &cmp.runs[1..] {
        assert_eq!(run.web.flows.len(), cmp.runs[0].web.flows.len());
        assert_eq!(bytes(&run.web), bytes(&cmp.runs[0].web));
        assert_eq!(bytes(&run.cloud_short), bytes(&cmp.runs[0].cloud_short));
    }
    let t8 = mechanism::table8(&cmp);
    assert_eq!(t8.rows.len(), 5); // 50/90/95/mean/#(flows)
    let t9 = mechanism::table9(&cmp);
    assert_eq!(t9.rows.len(), 2);
    assert_eq!(t9.header.len(), 5); // service + all four mechanisms
}

#[test]
fn dataset_is_deterministic_across_builds() {
    let a = dataset(10, 5);
    let b = dataset(10, 5);
    let t_a = table3::table3(&a);
    let t_b = table3::table3(&b);
    assert_eq!(t_a, t_b);
}

#[test]
fn table6_and_7_percentages_are_complementary() {
    let ds = tiny_dataset();
    for t in [table6::table6(&ds), table6::table7(&ds)] {
        assert_eq!(t.rows.len(), 2);
        for col in 1..t.header.len() {
            let a: f64 = t.rows[0][col].trim_end_matches('%').parse().unwrap();
            let b: f64 = t.rows[1][col].trim_end_matches('%').parse().unwrap();
            let sum = a + b;
            assert!(
                (sum - 100.0).abs() < 0.2 || sum == 0.0,
                "{} column {col}: {a} + {b} = {sum}",
                t.id
            );
        }
    }
}
