//! Framework configuration: discretizer, feature mode, selection strategy,
//! model — plus constructors for the paper's five experimental variants.

use dfp_classify::svm::{Kernel, KernelSvmParams, LinearSvmParams};
use dfp_classify::tree::C45Params;
use dfp_measures::{MinSupStrategy, RelevanceMeasure};
use dfp_mining::per_class::MinerKind;
use dfp_mining::{MineOptions, MiningConfig};
use dfp_select::MmrfsConfig;

/// Which discretizer the pipeline fits on numeric attributes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DiscretizerKind {
    /// Supervised Fayyad–Irani MDL (default — what the discretized UCI
    /// datasets referenced by the paper use).
    #[default]
    Mdl,
    /// Unsupervised equal-width with the given bin count.
    EqualWidth(usize),
    /// Unsupervised equal-frequency with the given bin count.
    EqualFrequency(usize),
}

/// How pattern features are selected after mining.
#[derive(Debug, Clone)]
pub enum SelectionStrategy {
    /// MMRFS (the paper's Algorithm 1).
    Mmrfs(MmrfsConfig),
    /// Keep the `k` most relevant patterns (ablation baseline).
    TopK(usize, RelevanceMeasure),
    /// Keep every mined pattern (the `Pat_All` variant).
    None,
}

/// What the classifier's feature space contains.
#[derive(Debug, Clone)]
pub enum FeatureMode {
    /// Single items only (`Item_All` / `Item_RBF`).
    ItemsOnly,
    /// Single items *selected* by MMRFS over length-1 patterns (`Item_FS`).
    ItemsSelected(MmrfsConfig),
    /// Items plus frequent patterns (`Pat_All` / `Pat_FS`).
    Patterns {
        /// How `min_sup` is chosen (fixed or via the Eq. 8 strategy).
        min_sup: MinSupStrategy,
        /// Miner and pattern-shape options.
        mining: PatternMining,
        /// Post-mining selection.
        selection: SelectionStrategy,
    },
}

/// Mining knobs for pattern feature generation (relative support comes from
/// the [`MinSupStrategy`], so it is not duplicated here).
#[derive(Debug, Clone)]
pub struct PatternMining {
    /// Algorithm (closed mining by default, per the paper).
    pub miner: MinerKind,
    /// Length bounds / pattern budget.
    pub options: MineOptions,
    /// Per-class partition mining (paper default `true`).
    pub per_class: bool,
    /// Degrade gracefully: when `true`, a pattern budget or deadline stop
    /// keeps the best-so-far feature set (recorded in the fitted model's
    /// [`crate::pipeline::DegradationReport`]) instead of failing the fit.
    pub anytime: bool,
    /// Wall-clock budget for the mining step, resolved into an absolute
    /// deadline when mining starts. `None` = unbounded.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for PatternMining {
    fn default() -> Self {
        PatternMining {
            // Closed mining per the paper.
            miner: MinerKind::Closed,
            // A generous safety budget: mining aborts (instead of hanging)
            // if a pathologically low min_sup explodes the pattern count.
            options: MineOptions::default()
                .with_min_len(2)
                .with_max_patterns(2_000_000),
            per_class: true,
            anytime: false,
            time_budget: None,
        }
    }
}

impl PatternMining {
    /// Resolves into the `dfp-mining` configuration at a relative support.
    /// A `time_budget` becomes an absolute deadline at this point (i.e. the
    /// clock starts when the mining step starts).
    pub fn to_mining_config(&self, min_sup_rel: f64) -> MiningConfig {
        let mut options = self.options.clone();
        if let Some(budget) = self.time_budget {
            options = options.with_time_budget(budget);
        }
        MiningConfig {
            min_sup_rel,
            miner: self.miner,
            options,
            per_class: self.per_class,
        }
    }
}

/// Which model the pipeline trains on the transformed data.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Linear SVM (dual coordinate descent).
    LinearSvm(LinearSvmParams),
    /// Kernel SVM (SMO); use [`Kernel::Rbf`] for the `Item_RBF` variant.
    KernelSvm(KernelSvmParams),
    /// C4.5 decision tree.
    C45(C45Params),
    /// Bernoulli naive Bayes.
    NaiveBayes,
    /// k-nearest neighbours.
    Knn(usize),
}

impl Default for ModelKind {
    fn default() -> Self {
        ModelKind::LinearSvm(LinearSvmParams::default())
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Discretizer for numeric attributes.
    pub discretizer: DiscretizerKind,
    /// Feature space construction.
    pub features: FeatureMode,
    /// Model to train.
    pub model: ModelKind,
}

impl FrameworkConfig {
    /// `Item_All`: all single features, linear SVM.
    pub fn item_all() -> Self {
        FrameworkConfig {
            discretizer: DiscretizerKind::default(),
            features: FeatureMode::ItemsOnly,
            model: ModelKind::default(),
        }
    }

    /// `Item_FS`: MMRFS-selected single features, linear SVM.
    pub fn item_fs() -> Self {
        FrameworkConfig {
            discretizer: DiscretizerKind::default(),
            features: FeatureMode::ItemsSelected(MmrfsConfig::default()),
            model: ModelKind::default(),
        }
    }

    /// `Item_RBF`: all single features, RBF-kernel SVM.
    pub fn item_rbf(c: f64, gamma: f64) -> Self {
        FrameworkConfig {
            discretizer: DiscretizerKind::default(),
            features: FeatureMode::ItemsOnly,
            model: ModelKind::KernelSvm(KernelSvmParams {
                c,
                kernel: Kernel::Rbf { gamma },
                ..KernelSvmParams::default()
            }),
        }
    }

    /// `Pat_All`: items plus **all** mined frequent patterns, linear SVM.
    pub fn pat_all() -> Self {
        FrameworkConfig {
            discretizer: DiscretizerKind::default(),
            features: FeatureMode::Patterns {
                min_sup: MinSupStrategy::Relative(0.1),
                mining: PatternMining::default(),
                selection: SelectionStrategy::None,
            },
            model: ModelKind::default(),
        }
    }

    /// `Pat_FS`: items plus MMRFS-selected frequent patterns, linear SVM —
    /// the paper's headline configuration.
    pub fn pat_fs() -> Self {
        FrameworkConfig {
            discretizer: DiscretizerKind::default(),
            features: FeatureMode::Patterns {
                min_sup: MinSupStrategy::Relative(0.1),
                mining: PatternMining::default(),
                selection: SelectionStrategy::Mmrfs(MmrfsConfig::default()),
            },
            model: ModelKind::default(),
        }
    }

    /// Replaces the model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Replaces the model with a default-parameter C4.5 tree.
    pub fn with_c45(self) -> Self {
        self.with_model(ModelKind::C45(C45Params::default()))
    }

    /// Replaces the `min_sup` strategy (no-op for items-only modes).
    pub fn with_min_sup(mut self, strategy: MinSupStrategy) -> Self {
        if let FeatureMode::Patterns { min_sup, .. } = &mut self.features {
            *min_sup = strategy;
        }
        self
    }

    /// Replaces the discretizer.
    pub fn with_discretizer(mut self, d: DiscretizerKind) -> Self {
        self.discretizer = d;
        self
    }

    /// Replaces the mining backend (no-op for items-only modes).
    pub fn with_miner(mut self, miner: MinerKind) -> Self {
        if let FeatureMode::Patterns { mining, .. } = &mut self.features {
            mining.miner = miner;
        }
        self
    }

    /// Enables or disables anytime (best-so-far) mining: with it on, a
    /// pattern-budget or deadline stop degrades the feature set instead of
    /// failing the fit (no-op for items-only modes).
    pub fn with_anytime_mining(mut self, on: bool) -> Self {
        if let FeatureMode::Patterns { mining, .. } = &mut self.features {
            mining.anytime = on;
        }
        self
    }

    /// Sets a wall-clock budget for the mining step (no-op for items-only
    /// modes). Combine with [`Self::with_anytime_mining`] to degrade instead
    /// of erroring when the budget expires.
    pub fn with_mining_time_budget(mut self, budget: std::time::Duration) -> Self {
        if let FeatureMode::Patterns { mining, .. } = &mut self.features {
            mining.time_budget = Some(budget);
        }
        self
    }

    /// Replaces the MMRFS coverage δ (no-op for non-MMRFS selection).
    pub fn with_coverage(mut self, delta: u32) -> Self {
        match &mut self.features {
            FeatureMode::ItemsSelected(cfg) => cfg.coverage = delta,
            FeatureMode::Patterns {
                selection: SelectionStrategy::Mmrfs(cfg),
                ..
            } => cfg.coverage = delta,
            _ => {}
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_shapes() {
        assert!(matches!(
            FrameworkConfig::item_all().features,
            FeatureMode::ItemsOnly
        ));
        assert!(matches!(
            FrameworkConfig::item_fs().features,
            FeatureMode::ItemsSelected(_)
        ));
        assert!(matches!(
            FrameworkConfig::item_rbf(1.0, 0.5).model,
            ModelKind::KernelSvm(KernelSvmParams {
                kernel: Kernel::Rbf { .. },
                ..
            })
        ));
        assert!(matches!(
            FrameworkConfig::pat_all().features,
            FeatureMode::Patterns {
                selection: SelectionStrategy::None,
                ..
            }
        ));
        assert!(matches!(
            FrameworkConfig::pat_fs().features,
            FeatureMode::Patterns {
                selection: SelectionStrategy::Mmrfs(_),
                ..
            }
        ));
    }

    #[test]
    fn builders_mutate() {
        let cfg = FrameworkConfig::pat_fs()
            .with_min_sup(MinSupStrategy::InfoGainThreshold(0.05))
            .with_coverage(7)
            .with_c45();
        match &cfg.features {
            FeatureMode::Patterns {
                min_sup, selection, ..
            } => {
                assert_eq!(*min_sup, MinSupStrategy::InfoGainThreshold(0.05));
                match selection {
                    SelectionStrategy::Mmrfs(m) => assert_eq!(m.coverage, 7),
                    _ => panic!("expected MMRFS"),
                }
            }
            _ => panic!("expected Patterns"),
        }
        assert!(matches!(cfg.model, ModelKind::C45(_)));
    }

    #[test]
    fn default_mining_budgeted() {
        let pm = PatternMining::default();
        assert!(pm.options.max_patterns.is_some());
        assert_eq!(pm.options.min_len, 2);
        let mc = pm.to_mining_config(0.25);
        assert_eq!(mc.min_sup_rel, 0.25);
        assert!(mc.per_class);
    }
}
