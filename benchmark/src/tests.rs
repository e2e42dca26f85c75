//! Harness-level tests: the smoke grid, the `BENCHMARK.json` contract,
//! seed plumbing and the command line.

use crate::json::{self, Value};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::run::{result_line, run_workload, Options, Outcome};
use crate::workloads::{self, WORKLOADS};
use crate::{parse_cli, DEFAULT_SECONDS};

fn smoke(name: &str, seed: &str, trace: bool) -> Outcome {
    let spec = workloads::find(name).expect("workload").smoke();
    run_workload(
        &spec,
        &Options {
            seed: seed.to_string(),
            seconds: 0.0,
            trace,
            kernel_seconds: 0.0,
        },
    )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The names and units in a result line, in the line's own terms.
fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    let line = json::parse(&result_line(outcome)).expect("result line parses");
    let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        line.get("correct").and_then(Value::as_bool),
        Some(outcome.failed == 0)
    );
    assert!(
        line.get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let mut out: Vec<(String, String)> = line
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert!(valid_name(name), "bad metric name {name:?}");
            let fields: Vec<&String> = m.as_object().expect("metric object").keys().collect();
            assert_eq!(fields, ["unit", "value"]);
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .expect("value")
                .is_finite());
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    out.sort();
    out
}

fn declared(table: &[Def]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = table
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn smoke_grid_runs_every_workload_and_kernel() {
    for spec in &WORKLOADS {
        let untraced = smoke(spec.name, "1", false);
        assert_eq!(untraced.failed, 0, "{}: a smoke decision failed", spec.name);
        assert_eq!(untraced.attempted, spec.smoke().decisions());
        assert_eq!(printed(&untraced), declared(&END_TO_END), "{}", spec.name);
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0: {:?}",
            spec.name,
            untraced.metrics
        );
        assert!(
            untraced.tracer.spans().is_empty(),
            "untraced pass recorded spans"
        );

        let traced = smoke(spec.name, "1", true);
        assert_eq!(traced.failed, 0);
        assert_eq!(printed(&traced), declared(&PER_LAYER), "{}", spec.name);
        assert_eq!(
            traced.counts, untraced.counts,
            "{}: counts differ between the untraced and traced passes",
            spec.name
        );
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.def.name == name)
                .unwrap_or_else(|| panic!("no {name}"))
                .value
        };
        let ratio = value("core.span_sum_ratio");
        assert!(
            (0.9..=1.0).contains(&ratio),
            "{}: span sum ratio {ratio}",
            spec.name
        );
        // Every kernel ran: all of them are times, rates or sizes, never 0.
        for m in traced
            .metrics
            .iter()
            .skip_while(|m| m.def.name != "crypto.sha256.batch_ns_per_digest")
        {
            if m.def.name != "core.failure_share" {
                assert!(m.value > 0.0, "{}: kernel {} read 0", spec.name, m.def.name);
            }
        }
        // The trace renders: the repetition's spans, then one per kernel.
        let doc = json::parse(&traced.tracer.to_json(spec.name)).expect("trace parses");
        let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
        assert!(
            spans.len() > 30,
            "{}: only {} spans",
            spec.name,
            spans.len()
        );
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("rep"));
    }
}

#[test]
fn a_second_seed_changes_the_counts_but_not_the_names() {
    let a = smoke("byz-owf-1k", "1", false);
    let b = smoke("byz-owf-1k", "2", false);
    assert_eq!(printed(&a), printed(&b));
    let bits = |o: &Outcome| o.counts[0];
    assert_eq!(bits(&a).0, "max_bits_per_party");
    assert_ne!(bits(&a).1, bits(&b).1, "seed did not reach the program");
    assert_eq!(
        bits(&a),
        bits(&smoke("byz-owf-1k", "1", false)),
        "same seed, same counts"
    );
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {v:?}"))
}

#[test]
fn benchmark_json_names_exactly_what_the_command_prints() {
    let doc = manifest();
    let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths, [Value::String("benchmark".to_string())]);

    let listed = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let listed: Vec<(&str, &str)> = listed
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);
    assert!(ours
        .iter()
        .all(|(name, why)| valid_name(name) && why.len() <= 200));

    let listed = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, def) in listed.iter().zip(&END_TO_END) {
        assert_eq!(entry.as_object().expect("object").len(), 4, "{entry:?}");
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.label());
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(def.bound));
        assert!(def.bound <= 0.25);
    }
    let listed = doc
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, def) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(entry.as_object().expect("object").len(), 3, "{entry:?}");
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.label());
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    assert!(names.iter().all(|n| valid_name(n) && n.len() <= 64));
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn command_line() {
    let parse = |args: &[&str]| parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    // The driver's form.
    let cli = parse(&[
        "--workload",
        "kssv-512",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "0",
    ])
    .expect("driver form");
    assert_eq!(cli.workload.as_deref(), Some("kssv-512"));
    assert_eq!(
        (cli.seed.as_str(), cli.seconds, cli.trace),
        ("7", 3.0, false)
    );
    // Bare `--trace` and an explicit 1 both switch tracing on.
    assert!(parse(&["--trace"]).expect("bare").trace);
    assert!(
        parse(&["--trace", "--smoke"])
            .expect("bare, then a flag")
            .smoke
    );
    assert!(
        parse(&["--trace", "1", "--repeat", "2"])
            .expect("explicit")
            .trace
    );
    // Harness-level errors.
    for bad in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &["--seed"],
        &["--seconds", "-1"],
        &["--seconds", "soon"],
        &["--repeat", "0"],
        &["--workload", "kssv-512", "--repeat", "2"],
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}
