//! The linear SVM's duality-gap stopping rule on real fold matrices: the
//! C = 10 solves of austral's Pat_FS model-selection folds converge before
//! the pass cap. The training counters are process-global, so this test has
//! a binary of its own and is the only reader of their deltas.

use dfpc::classify::svm::LinearSvmParams;
use dfpc::core::{cross_validate_framework, FrameworkConfig, ModelKind};
use dfpc::data::split::stratified_holdout;
use dfpc::data::synth::profile_by_name;
use dfpc::obs::metrics::dfp;

#[test]
fn austral_c10_fold_solves_stop_on_the_gap_not_the_cap() {
    let data = profile_by_name("austral").unwrap().generate();
    let partition = stratified_holdout(&data.labels, 0.3, 0x5eed);
    let train = data.subset(&partition.train);
    let params = LinearSvmParams::with_c(10.0);
    let cfg = FrameworkConfig::pat_fs().with_model(ModelKind::LinearSvm(params));
    let counters = || {
        [
            dfp::train_solves(),
            dfp::train_passes(),
            dfp::train_unconverged(),
        ]
        .map(|counter| counter.get())
    };
    let before = counters();
    cross_validate_framework(&train, &cfg, 10, 1).unwrap();
    let after = counters();
    let [solves, passes, unconverged] = [0, 1, 2].map(|i| after[i] - before[i]);
    // Two classes: one dual solve per fold.
    assert_eq!(solves, 10);
    assert!(
        unconverged <= 1,
        "{unconverged} of 10 solves stopped at max_epochs"
    );
    // Every solve makes at least one pass, and not all of them hit the cap.
    let cap = params.max_epochs as u64;
    assert!((solves..solves * cap).contains(&passes), "{passes} passes");
}
