//! The end-to-end pipeline: discretize → itemize → mine → select →
//! transform → learn, plus the outer cross-validation harness used by the
//! experiment binaries.

use crate::config::{DiscretizerKind, FeatureMode, FrameworkConfig, ModelKind, SelectionStrategy};
use crate::error::FrameworkError;
use dfp_classify::knn::Knn;
use dfp_classify::naive_bayes::BernoulliNb;
use dfp_classify::svm::{KernelSvm, LinearSvm};
use dfp_classify::tree::C45;
use dfp_classify::Classifier;
use dfp_data::dataset::Dataset;
use dfp_data::discretize::{DiscretizationModel, EqualFrequency, EqualWidth, MdlDiscretizer};
use dfp_data::features::SparseBinaryMatrix;
use dfp_data::schema::{ClassId, Schema};
use dfp_data::split::stratified_k_fold;
use dfp_data::transactions::{ItemMap, TransactionSet};
use dfp_mining::count::attach_class_supports;
use dfp_mining::{mine_features, mine_features_anytime, MinedPattern, RawPattern, StopReason};
use dfp_select::baseline::top_k_by_relevance;
use dfp_select::{mmrfs, FeatureSpace};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Runs `f` under a named span and records its wall-clock duration in the
/// `dfp_pipeline_stage_seconds{stage=...}` histogram. Both names must be
/// `'static` so span records stay allocation-free and histogram series stay
/// bounded.
fn timed_stage<T>(span_name: &'static str, stage: &'static str, f: impl FnOnce() -> T) -> T {
    let _sp = dfp_obs::span(span_name);
    let start = Instant::now();
    let out = f();
    dfp_obs::metrics::dfp::pipeline_stage(stage).observe(start.elapsed());
    out
}

/// The `stage="predict"` histogram handle, cached because `predict_batch`
/// runs once per serving request — the registry lookup must not sit on that
/// path.
fn predict_stage_hist() -> &'static Arc<dfp_obs::Histogram> {
    static CELL: OnceLock<Arc<dfp_obs::Histogram>> = OnceLock::new();
    CELL.get_or_init(|| dfp_obs::metrics::dfp::pipeline_stage("predict"))
}

/// The trained model behind a [`PatternClassifier`] — one variant per
/// [`ModelKind`]. Public so model serialization can reach the fitted state.
#[derive(Debug, Clone)]
pub enum TrainedModel {
    /// Linear SVM (one-vs-rest).
    Linear(LinearSvm),
    /// Kernel SVM (one-vs-one SMO).
    Kernel(KernelSvm),
    /// C4.5 decision tree.
    Tree(C45),
    /// Bernoulli naive Bayes.
    Nb(BernoulliNb),
    /// k-nearest neighbours.
    Knn(Knn),
}

impl Classifier for TrainedModel {
    fn predict(&self, row: &[u32]) -> ClassId {
        match self {
            TrainedModel::Linear(m) => m.predict(row),
            TrainedModel::Kernel(m) => m.predict(row),
            TrainedModel::Tree(m) => m.predict(row),
            TrainedModel::Nb(m) => m.predict(row),
            TrainedModel::Knn(m) => m.predict(row),
        }
    }

    /// Batch scoring (`dfpc-score`, the `/predict` endpoint, CV
    /// evaluation). A linear-SVM, C4.5 or naive-Bayes row costs well under
    /// a microsecond, less than starting a worker, so those batches run in
    /// a plain loop on the calling thread. A kernel-SVM or kNN row
    /// costs time that grows with the training set, so those batches shard
    /// across workers.
    fn predict_batch(&self, rows: &[Vec<u32>]) -> Vec<ClassId> {
        let mut sp = dfp_obs::span("pipeline.predict_batch");
        sp.attr("rows", rows.len());
        let start = Instant::now();
        let out = match self {
            TrainedModel::Linear(m) => m.predict_batch(rows),
            TrainedModel::Tree(m) => m.predict_batch(rows),
            TrainedModel::Nb(m) => m.predict_batch(rows),
            TrainedModel::Kernel(_) | TrainedModel::Knn(_) => {
                dfp_par::par_chunks_map(rows, 256, |r| self.predict(r))
            }
        };
        predict_stage_hist().observe(start.elapsed());
        out
    }
}

/// Diagnostics from a pipeline fit — the numbers the paper's tables report.
#[derive(Debug, Clone, Default)]
pub struct FitInfo {
    /// Item universe size `|I|` after discretization.
    pub n_items: usize,
    /// Candidate patterns mined (`|F|`); 0 for items-only modes.
    pub n_patterns_mined: usize,
    /// Features selected (`|Fs|`, or selected items for `Item_FS`).
    pub n_selected: usize,
    /// Final feature-space width `d'`.
    pub n_features: usize,
    /// The absolute global `min_sup` the strategy resolved to, if patterns
    /// were mined.
    pub min_sup_abs: Option<usize>,
}

/// How much of the configured pipeline actually ran during a fit — the
/// degradation contract for anytime mining (see DESIGN.md §10). A default
/// report means nothing was degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationReport {
    /// `true` iff the mining step (if any) ran to completion.
    pub mining_complete: bool,
    /// Why mining stopped early, when `mining_complete == false`.
    pub mining_stopped_by: Option<StopReason>,
}

impl Default for DegradationReport {
    fn default() -> Self {
        DegradationReport {
            mining_complete: true,
            mining_stopped_by: None,
        }
    }
}

impl DegradationReport {
    /// `true` iff any pipeline step was degraded.
    pub fn is_degraded(&self) -> bool {
        !self.mining_complete
    }
}

/// A fitted frequent pattern-based classifier.
#[derive(Debug, Clone)]
pub struct PatternClassifier {
    model: TrainedModel,
    feature_space: FeatureSpace,
    discretization: Option<DiscretizationModel>,
    item_map: Option<ItemMap>,
    /// The raw training schema (before discretization), kept so a saved
    /// model can parse and predict new rows without the training data.
    schema: Option<Schema>,
    info: FitInfo,
    /// In-memory only — not persisted in model artifacts.
    degradation: DegradationReport,
    /// FNV-1a fingerprint of the itemized training transactions
    /// ([`dfp_mining::memo::fingerprint`]), recorded at fit time so a saved
    /// artifact can assert mining-cache compatibility on load.
    dataset_fingerprint: Option<u64>,
}

impl PatternClassifier {
    /// Runs the full pipeline on a (possibly numeric) dataset.
    pub fn fit(train: &Dataset, cfg: &FrameworkConfig) -> Result<Self, FrameworkError> {
        if train.is_empty() {
            return Err(FrameworkError::EmptyTrainingSet);
        }
        let mut sp = dfp_obs::span("pipeline.fit");
        sp.attr("rows", train.len());
        let (categorical, discretization) =
            timed_stage("pipeline.discretize", "discretize", || {
                if train.schema.has_numeric() {
                    let (d, m) = match cfg.discretizer {
                        DiscretizerKind::Mdl => train.discretize(&MdlDiscretizer::new()),
                        DiscretizerKind::EqualWidth(b) => train.discretize(&EqualWidth::new(b)),
                        DiscretizerKind::EqualFrequency(b) => {
                            train.discretize(&EqualFrequency::new(b))
                        }
                    };
                    (d, Some(m))
                } else {
                    (train.clone(), None)
                }
            });
        let (ts, map) = timed_stage("pipeline.itemize", "itemize", || {
            categorical.to_transactions()
        });
        let mut fitted = Self::fit_transactions(&ts, cfg)?;
        fitted.discretization = discretization;
        fitted.item_map = Some(map);
        fitted.schema = Some(train.schema.clone());
        Ok(fitted)
    }

    /// Runs the pipeline on already-itemized data (no discretization step).
    pub fn fit_transactions(
        ts: &TransactionSet,
        cfg: &FrameworkConfig,
    ) -> Result<Self, FrameworkError> {
        if ts.is_empty() {
            return Err(FrameworkError::EmptyTrainingSet);
        }
        let _sp = dfp_obs::span("pipeline.fit_transactions");
        let dataset_fingerprint = Some(dfp_mining::memo::fingerprint(ts));
        let mut info = FitInfo {
            n_items: ts.n_items(),
            ..FitInfo::default()
        };
        let mut degradation = DegradationReport::default();

        let feature_space = match &cfg.features {
            FeatureMode::ItemsOnly => FeatureSpace::items_only(ts.n_items(), ts.n_classes()),
            FeatureMode::ItemsSelected(mmrfs_cfg) => {
                timed_stage("pipeline.select", "select", || {
                    // Treat every single item as a length-1 pattern and run MMRFS.
                    let singletons: Vec<RawPattern> = (0..ts.n_items())
                        .map(|i| RawPattern {
                            items: vec![dfp_data::transactions::Item(i as u32)],
                            support: 0,
                        })
                        .collect();
                    let candidates = attach_class_supports(ts, &singletons);
                    let result = mmrfs(ts, &candidates, mmrfs_cfg);
                    let selected = result.patterns(&candidates);
                    info.n_patterns_mined = candidates.len();
                    info.n_selected = selected.len();
                    FeatureSpace::selected_only(ts.n_items(), ts.n_classes(), &selected)
                })
            }
            FeatureMode::Patterns {
                min_sup,
                mining,
                selection,
            } => {
                let priors = ts.class_priors();
                let abs = min_sup.resolve(ts.len(), &priors);
                info.min_sup_abs = Some(abs);
                let rel = abs as f64 / ts.len().max(1) as f64;
                let mining_cfg = mining.to_mining_config(rel);
                let candidates = {
                    let _sp = dfp_obs::span("pipeline.mine");
                    let start = Instant::now();
                    let candidates = if mining.anytime {
                        let feats = mine_features_anytime(ts, &mining_cfg)?;
                        degradation = DegradationReport {
                            mining_complete: feats.complete,
                            mining_stopped_by: feats.stopped_by,
                        };
                        feats.patterns
                    } else {
                        mine_features(ts, &mining_cfg)?
                    };
                    dfp_obs::metrics::dfp::pipeline_stage("mine").observe(start.elapsed());
                    candidates
                };
                info.n_patterns_mined = candidates.len();
                let selected: Vec<MinedPattern> =
                    timed_stage("pipeline.select", "select", || match selection {
                        SelectionStrategy::None => candidates,
                        SelectionStrategy::Mmrfs(mmrfs_cfg) => {
                            let result = mmrfs(ts, &candidates, mmrfs_cfg);
                            result.patterns(&candidates)
                        }
                        SelectionStrategy::TopK(k, measure) => {
                            top_k_by_relevance(ts, &candidates, *measure, *k)
                                .into_iter()
                                .map(|i| candidates[i].clone())
                                .collect()
                        }
                    });
                info.n_selected = selected.len();
                FeatureSpace::new(ts.n_items(), ts.n_classes(), &selected)
            }
        };
        info.n_features = feature_space.n_features();

        // Surface the degradation outcome: gauge reflects the most recent fit
        // in this process, and a WARN event names the stop reason.
        dfp_obs::metrics::dfp::pipeline_degraded().set(i64::from(degradation.is_degraded()));
        if let Some(reason) = degradation.mining_stopped_by {
            let reason = format!("{reason:?}");
            dfp_obs::log::warn(
                "dfp_core::pipeline",
                "anytime mining stopped early; model fitted on partial pattern set",
                &[
                    ("stopped_by", reason.as_str()),
                    ("patterns", &info.n_patterns_mined.to_string()),
                ],
            );
        }

        let matrix = timed_stage("pipeline.transform", "transform", || {
            feature_space.transform(ts)
        });
        let model = timed_stage("pipeline.train", "train", || match &cfg.model {
            ModelKind::LinearSvm(p) => TrainedModel::Linear(LinearSvm::fit(&matrix, p)),
            ModelKind::KernelSvm(p) => TrainedModel::Kernel(KernelSvm::fit(&matrix, p)),
            ModelKind::C45(p) => TrainedModel::Tree(C45::fit(&matrix, p)),
            ModelKind::NaiveBayes => TrainedModel::Nb(BernoulliNb::fit(&matrix)),
            ModelKind::Knn(k) => TrainedModel::Knn(Knn::fit(&matrix, *k)),
        });
        dfp_obs::metrics::dfp::pipeline_fits().inc();
        Ok(PatternClassifier {
            model,
            feature_space,
            discretization: None,
            item_map: None,
            schema: None,
            info,
            degradation,
            dataset_fingerprint,
        })
    }

    /// Reassembles a classifier from its parts (the inverse of what the
    /// serialization layer decomposes a saved model into).
    pub fn from_parts(
        model: TrainedModel,
        feature_space: FeatureSpace,
        discretization: Option<DiscretizationModel>,
        item_map: Option<ItemMap>,
        schema: Option<Schema>,
        info: FitInfo,
    ) -> Self {
        PatternClassifier {
            model,
            feature_space,
            discretization,
            item_map,
            schema,
            info,
            degradation: DegradationReport::default(),
            dataset_fingerprint: None,
        }
    }

    /// The trained model variant.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// What (if anything) was degraded while fitting this model. Models
    /// loaded from artifacts report the default (nothing degraded) — the
    /// report is a fit-time diagnostic and is not persisted.
    pub fn degradation(&self) -> &DegradationReport {
        &self.degradation
    }

    /// The fitted discretization, if the training data was numeric.
    pub fn discretization(&self) -> Option<&DiscretizationModel> {
        self.discretization.as_ref()
    }

    /// The `(attribute, value) ↔ item` map, if fitted from a raw dataset.
    pub fn item_map(&self) -> Option<&ItemMap> {
        self.item_map.as_ref()
    }

    /// The raw training schema, if fitted from a raw dataset. This is what a
    /// serving layer needs to parse incoming CSV rows into [`Dataset`]s
    /// compatible with [`Self::predict`].
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// Fit diagnostics.
    pub fn info(&self) -> &FitInfo {
        &self.info
    }

    /// The training-data fingerprint recorded at fit time (the mining
    /// cache's dataset key), if this model was fitted in-process or loaded
    /// from an artifact whose cache-key section matched the current
    /// fingerprint algorithm version.
    pub fn dataset_fingerprint(&self) -> Option<u64> {
        self.dataset_fingerprint
    }

    /// Sets the training-data fingerprint — used by the artifact codec when
    /// reassembling a model whose stored cache key passed the compatibility
    /// check.
    pub fn set_dataset_fingerprint(&mut self, fp: Option<u64>) {
        self.dataset_fingerprint = fp;
    }

    /// Feature importances for linear-SVM models: per feature, the largest
    /// absolute weight across the one-vs-rest sub-problems. `None` for
    /// non-linear models. Indices follow the fitted feature space
    /// (single items first, then pattern features).
    pub fn linear_feature_weights(&self) -> Option<Vec<f64>> {
        let TrainedModel::Linear(svm) = &self.model else {
            return None;
        };
        Some(
            (0..svm.n_features())
                .map(|f| {
                    (0..svm.n_classes())
                        .map(|c| svm.weight(c, f).abs())
                        .fold(0.0, f64::max)
                })
                .collect(),
        )
    }

    /// Human-readable descriptions of the pattern features in the fitted
    /// space, e.g. `"outlook=sunny ∧ wind=strong"`. Falls back to raw item
    /// ids when the model was fitted on pre-itemized transactions.
    pub fn describe_pattern_features(&self) -> Vec<String> {
        self.feature_space
            .patterns
            .iter()
            .map(|items| {
                items
                    .iter()
                    .map(|&it| match &self.item_map {
                        Some(map) => map.name(it).to_string(),
                        None => it.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(" ∧ ")
            })
            .collect()
    }

    /// The fitted feature space.
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.feature_space
    }

    /// Transforms a raw dataset through the fitted discretization and
    /// feature space.
    pub fn transform(&self, data: &Dataset) -> Result<SparseBinaryMatrix, FrameworkError> {
        let categorical = match (&self.discretization, data.schema.has_numeric()) {
            (Some(model), _) => model.apply(data),
            (None, false) => data.clone(),
            (None, true) => {
                return Err(FrameworkError::SchemaMismatch(
                    "model fitted on categorical data but test data is numeric".into(),
                ))
            }
        };
        let (ts, _) = categorical.to_transactions();
        if ts.n_items() != self.feature_space.n_items {
            return Err(FrameworkError::SchemaMismatch(format!(
                "test data maps to {} items, model was fitted on {}",
                ts.n_items(),
                self.feature_space.n_items
            )));
        }
        Ok(self.feature_space.transform(&ts))
    }

    /// Predicts labels for a raw dataset.
    pub fn predict(&self, data: &Dataset) -> Result<Vec<ClassId>, FrameworkError> {
        Ok(self.model.predict_all(&self.transform(data)?))
    }

    /// Accuracy on a labelled raw dataset.
    ///
    /// # Panics
    /// Panics if the dataset is incompatible with the fitted schema
    /// (use [`Self::predict`] for a fallible version).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let pred = self.predict(data).expect("dataset incompatible with model");
        dfp_classify::eval::accuracy(&pred, &data.labels)
    }

    /// Predicts labels for already-transformed feature rows (the output of
    /// [`Self::transform`]'s row encoding). This is the batch-scheduler
    /// entry point: the serving layer transforms each request's rows once,
    /// coalesces many requests, and scores them in a single call.
    pub fn predict_rows(&self, rows: &[Vec<u32>]) -> Vec<ClassId> {
        self.model.predict_batch(rows)
    }

    /// Predicts labels for already-itemized transactions.
    pub fn predict_transactions(&self, ts: &TransactionSet) -> Vec<ClassId> {
        self.model.predict_all(&self.feature_space.transform(ts))
    }

    /// Accuracy on already-itemized transactions.
    pub fn accuracy_transactions(&self, ts: &TransactionSet) -> f64 {
        let pred = self.predict_transactions(ts);
        dfp_classify::eval::accuracy(&pred, ts.labels())
    }
}

/// Outer cross-validation outcome for one framework configuration.
#[derive(Debug, Clone)]
pub struct FrameworkCv {
    /// Held-out accuracy per fold.
    pub fold_accuracies: Vec<f64>,
    /// Fit diagnostics per fold.
    pub infos: Vec<FitInfo>,
}

impl FrameworkCv {
    /// Mean held-out accuracy.
    pub fn mean(&self) -> f64 {
        if self.fold_accuracies.is_empty() {
            return 0.0;
        }
        self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len() as f64
    }

    /// Mean number of mined patterns across folds.
    pub fn mean_patterns(&self) -> f64 {
        if self.infos.is_empty() {
            return 0.0;
        }
        self.infos
            .iter()
            .map(|i| i.n_patterns_mined as f64)
            .sum::<f64>()
            / self.infos.len() as f64
    }

    /// Mean number of selected features across folds.
    pub fn mean_selected(&self) -> f64 {
        if self.infos.is_empty() {
            return 0.0;
        }
        self.infos.iter().map(|i| i.n_selected as f64).sum::<f64>() / self.infos.len() as f64
    }
}

/// The paper's model-selection protocol (§4): "We did 10-fold cross
/// validation on each training set and picked the best model for test."
/// Runs inner cross validation on `train` for every candidate
/// configuration, picks the best mean accuracy (ties to the earlier
/// config), and refits that configuration on the full training set.
///
/// Returns the fitted model and the index of the winning configuration.
///
/// # Panics
/// Panics if `configs` is empty.
pub fn fit_with_model_selection(
    train: &Dataset,
    configs: &[FrameworkConfig],
    inner_folds: usize,
    seed: u64,
) -> Result<(PatternClassifier, usize), FrameworkError> {
    assert!(!configs.is_empty(), "need at least one configuration");
    let mut best = 0usize;
    let mut best_acc = f64::NEG_INFINITY;
    for (i, cfg) in configs.iter().enumerate() {
        let cv = cross_validate_framework(train, cfg, inner_folds, seed)?;
        if cv.mean() > best_acc {
            best_acc = cv.mean();
            best = i;
        }
    }
    Ok((PatternClassifier::fit(train, &configs[best])?, best))
}

/// Stratified k-fold cross validation of the **whole pipeline** on a raw
/// dataset — discretization, mining and selection are re-fitted inside every
/// fold, so no information leaks from test to train (the paper's §4
/// protocol).
pub fn cross_validate_framework(
    data: &Dataset,
    cfg: &FrameworkConfig,
    k: usize,
    seed: u64,
) -> Result<FrameworkCv, FrameworkError> {
    let mut sp = dfp_obs::span("cv.run");
    sp.attr("folds", k);
    let folds = stratified_k_fold(&data.labels, k, seed);
    // Every fold re-fits the whole pipeline from the fixed split, so folds
    // run on separate workers; results merge in fold order and the first
    // failing fold (in that order) decides the error, as sequentially.
    let per_fold: Vec<Result<(f64, FitInfo), FrameworkError>> = dfp_par::par_map(&folds, |fold| {
        dfp_fault::faultpoint!("cv.fold", FrameworkError::Injected("cv.fold"));
        let mut sp = dfp_obs::span("cv.fold");
        sp.attr("train", fold.train.len());
        sp.attr("test", fold.test.len());
        dfp_obs::metrics::dfp::cv_folds().inc();
        let train = data.subset(&fold.train);
        let test = data.subset(&fold.test);
        let model = PatternClassifier::fit(&train, cfg)?;
        Ok((model.accuracy(&test), model.info().clone()))
    });
    let mut fold_accuracies = Vec::with_capacity(k);
    let mut infos = Vec::with_capacity(k);
    for r in per_fold {
        let (acc, info) = r?;
        fold_accuracies.push(acc);
        infos.push(info);
    }
    Ok(FrameworkCv {
        fold_accuracies,
        infos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::dataset::categorical_dataset;
    use dfp_data::synth::profile_by_name;
    use dfp_measures::MinSupStrategy;

    /// A planted two-class categorical dataset where the pair (a0=1, a1=1)
    /// marks class 0 and (a0=1, a1=2) marks class 1 — single features are
    /// weak, the combination is decisive.
    fn confusable() -> Dataset {
        let mut rows: Vec<(Vec<u32>, u32)> = Vec::new();
        for i in 0..60u32 {
            let (vals, label) = if i % 2 == 0 {
                (vec![1, 1, i % 3], 0)
            } else {
                (vec![1, 2, i % 3], 1)
            };
            rows.push((vals, label));
        }
        let borrowed: Vec<(&[u32], u32)> = rows.iter().map(|(v, l)| (&v[..], *l)).collect();
        categorical_dataset(&[3, 3, 3], 2, &borrowed)
    }

    #[test]
    fn pat_fs_beats_items_on_confusable_data() {
        let data = confusable();
        let item = cross_validate_framework(&data, &FrameworkConfig::item_all(), 5, 1).unwrap();
        let pat = cross_validate_framework(&data, &FrameworkConfig::pat_fs(), 5, 1).unwrap();
        assert!(
            pat.mean() >= item.mean(),
            "Pat_FS {} < Item_All {}",
            pat.mean(),
            item.mean()
        );
        assert!(pat.mean() > 0.9, "Pat_FS mean {}", pat.mean());
    }

    #[test]
    fn fit_info_populated() {
        let data = confusable();
        let m = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs()).unwrap();
        let info = m.info();
        assert_eq!(info.n_items, 9);
        assert!(info.n_patterns_mined > 0);
        assert!(info.n_selected > 0);
        assert!(info.n_features >= info.n_items);
        assert!(info.min_sup_abs.is_some());
    }

    #[test]
    fn item_fs_selects_a_subset() {
        let data = confusable();
        let m = PatternClassifier::fit(&data, &FrameworkConfig::item_fs()).unwrap();
        assert!(m.info().n_selected <= m.info().n_items);
        assert!(m.info().n_features == m.info().n_selected);
    }

    #[test]
    fn min_sup_strategy_threads_through() {
        let data = confusable();
        let cfg = FrameworkConfig::pat_fs().with_min_sup(MinSupStrategy::Absolute(20));
        let m = PatternClassifier::fit(&data, &cfg).unwrap();
        assert_eq!(m.info().min_sup_abs, Some(20));
    }

    #[test]
    fn numeric_pipeline_with_mdl() {
        // iris profile is fully numeric → exercises discretization end to end.
        let data = profile_by_name("iris").unwrap().generate();
        let m = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs()).unwrap();
        let acc = m.accuracy(&data);
        assert!(acc > 0.6, "train accuracy {acc}");
    }

    #[test]
    fn discretization_replayed_on_test() {
        let data = profile_by_name("iris").unwrap().generate();
        let fold = dfp_data::split::stratified_holdout(&data.labels, 0.3, 3);
        let train = data.subset(&fold.train);
        let test = data.subset(&fold.test);
        let m = PatternClassifier::fit(&train, &FrameworkConfig::pat_fs()).unwrap();
        let acc = m.accuracy(&test);
        assert!(acc > 0.5, "test accuracy {acc}");
    }

    #[test]
    fn all_models_run() {
        use dfp_classify::tree::C45Params;
        let data = confusable();
        for model in [
            ModelKind::default(),
            ModelKind::C45(C45Params::default()),
            ModelKind::NaiveBayes,
            ModelKind::Knn(3),
            ModelKind::KernelSvm(dfp_classify::svm::KernelSvmParams::rbf(1.0, 0.5)),
        ] {
            let cfg = FrameworkConfig::pat_fs().with_model(model.clone());
            let m = PatternClassifier::fit(&data, &cfg).unwrap();
            assert!(
                m.accuracy(&data) > 0.8,
                "{model:?} accuracy {}",
                m.accuracy(&data)
            );
        }
    }

    #[test]
    fn model_selection_picks_working_config() {
        use dfp_classify::svm::LinearSvmParams;
        let data = confusable();
        // A crippled tree (depth 0 → majority stump) vs a real SVM.
        let stump =
            FrameworkConfig::item_all().with_model(ModelKind::C45(dfp_classify::tree::C45Params {
                max_depth: Some(0),
                ..dfp_classify::tree::C45Params::default()
            }));
        let svm =
            FrameworkConfig::pat_fs().with_model(ModelKind::LinearSvm(LinearSvmParams::default()));
        let (model, winner) = fit_with_model_selection(&data, &[stump, svm], 3, 5).unwrap();
        assert_eq!(winner, 1);
        assert!(model.accuracy(&data) > 0.9);
    }

    #[test]
    fn model_selection_tie_prefers_first() {
        let data = confusable();
        let a = FrameworkConfig::pat_fs();
        let b = FrameworkConfig::pat_fs();
        let (_, winner) = fit_with_model_selection(&data, &[a, b], 3, 5).unwrap();
        assert_eq!(winner, 0);
    }

    #[test]
    fn linear_weights_reflect_informative_features() {
        let data = confusable();
        let m = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs()).unwrap();
        let w = m.linear_feature_weights().expect("linear model");
        assert_eq!(w.len(), m.info().n_features);
        assert!(w.iter().all(|x| x.is_finite() && *x >= 0.0));
        // some pattern feature must carry non-trivial weight on this data
        let max_pattern_w = w[m.info().n_items..].iter().cloned().fold(0.0, f64::max);
        assert!(max_pattern_w > 0.0, "pattern features all zero-weighted");
        // non-linear models return None
        let tree = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs().with_c45()).unwrap();
        assert!(tree.linear_feature_weights().is_none());
    }

    #[test]
    fn pattern_features_are_describable() {
        let data = confusable();
        let m = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs()).unwrap();
        let desc = m.describe_pattern_features();
        assert_eq!(desc.len(), m.feature_space().patterns.len());
        assert!(!desc.is_empty());
        // attribute names from `categorical_dataset` look like "a0=v1"
        assert!(desc[0].contains('='), "{:?}", desc[0]);
        assert!(desc.iter().any(|d| d.contains(" ∧ ")), "{desc:?}");
    }

    #[test]
    fn empty_training_set_rejected() {
        let data = categorical_dataset(&[2], 1, &[]);
        assert_eq!(
            PatternClassifier::fit(&data, &FrameworkConfig::item_all()).unwrap_err(),
            FrameworkError::EmptyTrainingSet
        );
    }

    #[test]
    fn numeric_test_against_categorical_model_rejected() {
        let data = confusable();
        let m = PatternClassifier::fit(&data, &FrameworkConfig::item_all()).unwrap();
        let numeric = profile_by_name("iris").unwrap().generate();
        assert!(matches!(
            m.predict(&numeric).unwrap_err(),
            FrameworkError::SchemaMismatch(_)
        ));
    }
}
