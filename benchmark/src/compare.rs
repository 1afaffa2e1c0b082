//! `--compare a.json b.json`: apply the bounds of `BENCHMARK.json` to two
//! result files written by a full set, row by row.

use std::fmt;

use tapo::json::Json;

use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own runs spread wider than the bound and B does not beat every
    /// one of them, so the pair cannot tell a change from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::items)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str);
            Ok(Bound {
                name: text("name").ok_or("metric without a name")?.to_string(),
                higher_is_better: match text("better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("metric without a direction".to_string()),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Judge B's runs of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], m: &Bound) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if m.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    // Fewer than four runs have no quartiles to speak of.
    if a.len() >= 4 && stats::iqr_share(a) > m.bound {
        let beats = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
        let b_beats_all = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        if !b_beats_all {
            return Verdict::Unresolved;
        }
    }
    if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .items()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn runs(results: &Json, name: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = workload(results, name)?.get("end_to_end")?.get(metric)?;
    runs.items()?.iter().map(Json::as_f64).collect()
}

fn layer(results: &Json, name: &str, metric: &str) -> Option<f64> {
    workload(results, name)?
        .get("per_layer")?
        .get(metric)?
        .as_f64()
}

/// Print one row per workload × end-to-end metric, then every layer
/// metric of unit `count` that did not repeat exactly; returns whether no
/// row is `worse` and every count repeated.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound], workloads: &[&str]) -> Result<bool, String> {
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "bound"
    );
    let mut ok = true;
    for w in workloads {
        for m in bounds {
            let get = |doc: &Json, which: &str| {
                runs(doc, w, &m.name)
                    .filter(|v| !v.is_empty())
                    .ok_or(format!("{which}: no runs of {} on {w}", m.name))
            };
            let (ra, rb) = (get(a, "A")?, get(b, "B")?);
            let verdict = judge(&ra, &rb, m);
            ok &= verdict != Verdict::Worse;
            let (ma, mb) = (stats::median(&ra), stats::median(&rb));
            println!(
                "{w:<16} {:<20} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.0}%  {verdict}",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
            );
        }
    }
    // Counts are functions of the input alone: on the same input they
    // must repeat to the last digit.
    if a.get("seed") == b.get("seed") && a.get("quick") == b.get("quick") {
        for w in workloads {
            for (name, _) in crate::spec::PER_LAYER.iter().filter(|m| m.1 == "count") {
                let (va, vb) = (layer(a, w, name), layer(b, w, name));
                if va != vb {
                    ok = false;
                    println!("{w:<16} {name:<44} count differs: {va:?} vs {vb:?}");
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = bound(true, 0.06);
        assert_eq!(judge(&[100.0], &[95.0], &rate), Verdict::Same);
        assert_eq!(judge(&[100.0], &[93.0], &rate), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[200.0], &rate), Verdict::Same);
        let lag = bound(false, 0.10);
        assert_eq!(judge(&[1.0], &[1.09], &lag), Verdict::Same);
        assert_eq!(judge(&[1.0], &[1.2], &lag), Verdict::Worse);
        // A's own quartiles are 20 % apart: a 10 % drop proves nothing...
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(&noisy, &[90.0; 5], &rate), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[130.0; 5], &rate), Verdict::Same);
    }

    #[test]
    fn bounds_are_read_from_the_declaration() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                {"name":"items_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b[0].higher_is_better && b[1].higher_is_better);
        assert_eq!(b[1].bound, 0.1);
    }
}
