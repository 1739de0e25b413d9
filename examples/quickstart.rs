//! Quickstart: train the paper's headline configuration (`Pat_FS` —
//! closed-pattern features selected by MMRFS, linear SVM) on a small
//! dataset and inspect what the pipeline did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --trace spans.jsonl
//! ```
//!
//! `--trace <path>` (or `DFP_TRACE=<path>`) exports the run's span tree —
//! per-stage fit timings, mining recursion, model save/load — as JSONL for
//! `dfp-trace-check` or chrome://tracing.

use dfpc::core::{FrameworkConfig, PatternClassifier};
use dfpc::data::split::stratified_holdout;
use dfpc::data::synth::profile_by_name;

fn main() {
    let mut trace_path = None;
    let mut save_path = None;
    let mut rows_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = args.next(),
            "--save" => save_path = args.next(),
            "--emit-rows" => rows_path = args.next(),
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: quickstart \
                     [--trace <spans.jsonl>] [--save <model.dfpm>] \
                     [--emit-rows <rows.csv>]"
                );
                std::process::exit(2);
            }
        }
    }
    let trace = match trace_path {
        Some(path) => Some(dfpc::obs::TraceSession::begin(&path).expect("trace file opens")),
        None => dfpc::obs::TraceSession::from_env().expect("DFP_TRACE file opens"),
    };

    // The `iris` profile replays the UCI iris shape (150 × 4 numeric, 3
    // classes) with planted discriminative patterns — see DESIGN.md §4.
    let data = profile_by_name("iris").expect("catalog profile").generate();
    println!(
        "dataset: {} instances, {} attributes, {} classes",
        data.len(),
        data.schema.n_attributes(),
        data.schema.n_classes()
    );

    let fold = stratified_holdout(&data.labels, 0.3, 7);
    let train = data.subset(&fold.train);
    let test = data.subset(&fold.test);

    // Pat_FS: discretize (MDL) → itemize → mine patterns per class →
    // MMRFS selection → linear SVM on I ∪ Fs.
    let config = FrameworkConfig::pat_fs();
    let model = PatternClassifier::fit(&train, &config).expect("training succeeds");

    let info = model.info();
    println!("items (single features)     : {}", info.n_items);
    println!("resolved absolute min_sup   : {:?}", info.min_sup_abs);
    println!("closed patterns mined       : {}", info.n_patterns_mined);
    println!("patterns selected by MMRFS  : {}", info.n_selected);
    println!("final feature-space width   : {}", info.n_features);

    // The selected pattern features, in human-readable (attribute=value)
    // form, with their linear-SVM importance.
    let descriptions = model.describe_pattern_features();
    let weights = model.linear_feature_weights().expect("linear model");
    let mut ranked: Vec<(f64, &String)> = descriptions
        .iter()
        .enumerate()
        .map(|(k, d)| (weights[model.info().n_items + k], d))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite weights"));
    println!("top pattern features by |SVM weight|:");
    for (w, d) in ranked.iter().take(3) {
        println!("  {w:>7.3}  {d}");
    }

    println!(
        "train accuracy              : {:.4}",
        model.accuracy(&train)
    );
    println!("test  accuracy              : {:.4}", model.accuracy(&test));

    // Compare against the single-feature baseline on the same split.
    let baseline = PatternClassifier::fit(&train, &FrameworkConfig::item_all())
        .expect("baseline training succeeds");
    println!(
        "Item_All test accuracy      : {:.4}",
        baseline.accuracy(&test)
    );

    // Persist the fitted model as a DFPM artifact and load it back: the
    // loaded model reproduces the in-memory predictions exactly. This is
    // the artifact `dfp-serve` and `dfpc-score` consume.
    let artifact = std::env::temp_dir().join(format!("quickstart-{}.dfpm", std::process::id()));
    dfpc::model::save(&model, &artifact).expect("artifact saves");
    let loaded = dfpc::model::load(&artifact).expect("artifact loads");
    let size = std::fs::metadata(&artifact).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&artifact).ok();
    assert_eq!(
        loaded.predict(&test).expect("loaded model predicts"),
        model.predict(&test).expect("fitted model predicts"),
        "artifact round-trip must preserve predictions"
    );
    println!("artifact round-trip         : {size} bytes, predictions identical");

    // --save keeps a servable artifact; --emit-rows writes the held-out
    // attribute rows as CSV in the shape `dfp-serve` / `dfpc-score` accept.
    if let Some(path) = save_path {
        dfpc::model::save(&model, &path).expect("artifact saves to --save path");
        println!("artifact saved              : {path}");
    }
    if let Some(path) = rows_path {
        std::fs::write(&path, render_rows_csv(&test)).expect("rows write to --emit-rows path");
        println!("rows emitted                : {} → {path}", test.len());
    }

    if let Some(session) = trace {
        let spans = session.flush().expect("trace flushes");
        println!(
            "trace                       : {spans} spans → {}",
            session.path().display()
        );
    }
}

/// Renders attribute rows (no class column) as the CSV `parse_rows` accepts:
/// categorical cells by value name, numeric cells as plain floats, `?` for
/// missing.
fn render_rows_csv(data: &dfpc::data::dataset::Dataset) -> String {
    use dfpc::data::dataset::Value;
    use dfpc::data::schema::AttributeKind;
    let mut out = String::new();
    for row in &data.rows {
        for (a, cell) in row.iter().enumerate() {
            if a > 0 {
                out.push(',');
            }
            match (cell, &data.schema.attributes[a].kind) {
                (Value::Cat(v), AttributeKind::Categorical { values }) => {
                    out.push_str(&values[*v as usize])
                }
                (Value::Num(x), _) => out.push_str(&format!("{x}")),
                (Value::Missing, _) => out.push('?'),
                (Value::Cat(_), AttributeKind::Numeric) => unreachable!("validated by Dataset"),
            }
        }
        out.push('\n');
    }
    out
}
