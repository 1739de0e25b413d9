//! The fit workloads: `fit-chess` (one Pat_FS fit at a Table 3 support) and
//! `modelsel-austral` (§4 model selection with inner 10-fold CV). Each job
//! goes from CSV text to a version published in the model registry.
//!
//! The untraced run times the library's own entry points. The traced run
//! also replays every job as the same calls made one layer at a time, with
//! a span around each, and checks that the replay reproduces the job; the
//! same replay without spans gives the tracing overhead.

use crate::inputs::{self, Rng};
use crate::json::Obj;
use crate::stats;
use crate::sys;
use crate::trace::{self, Ctx, Tracer};
use crate::{Opts, Outcome};
use dfp_classify::eval::accuracy;
use dfp_classify::svm::{LinearSvm, LinearSvmParams};
use dfp_classify::Classifier;
use dfp_core::{
    fit_with_model_selection, DiscretizerKind, FeatureMode, FitInfo, FrameworkConfig, ModelKind,
    PatternClassifier, SelectionStrategy, TrainedModel,
};
use dfp_data::dataset::Dataset;
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::schema::ClassId;
use dfp_data::split::{stratified_holdout, stratified_k_fold};
use dfp_measures::MinSupStrategy;
use dfp_mining::mine_features;
use dfp_obs::metrics::dfp as counters;
use dfp_registry::{ModelRegistry, RegistryConfig};
use dfp_select::{mmrfs, FeatureSpace};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Rows of the chess profile (kr-vs-kp), all of them training rows.
const CHESS_ROWS: usize = 3196;
/// Absolute support of the fit-chess jobs, a point of the paper's Table 3.
/// At 2200, the next lower point, a job took 5 to 8 s, so a run held only
/// three or four and its median moved with each of them.
const CHESS_MIN_SUP: usize = 2500;
/// Fresh held-out rows scored per fit-chess job.
const CHESS_HELD_OUT: usize = 1000;
/// Stream rows past the canonical replicate that held-out rows come from.
const CHESS_HELD_OUT_POOL: usize = 16_000;
/// Rows of the austral profile (the canonical replicate).
const AUSTRAL_ROWS: usize = 690;
/// Held-out share of the modelsel replicate.
const TEST_FRACTION: f64 = 0.3;
/// Seed of the modelsel replicate's fixed 70/30 partition.
const SPLIT_SEED: u64 = 0x5eed;
/// Inner cross-validation folds of model selection (§4).
const INNER_FOLDS: usize = 10;
/// The SVM `C` grid model selection searches.
const C_GRID: [f64; 3] = [0.1, 1.0, 10.0];
/// Set-ups per run: one before the first job, the rest spread over the run
/// because the host's speed drifts over seconds; the median is reported.
const SETUPS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Chess,
    ModelSel,
}

impl Kind {
    fn model_name(self) -> &'static str {
        match self {
            Kind::Chess => "chess",
            Kind::ModelSel => "austral",
        }
    }

    /// Job inputs set-up generates ahead of timing: more than a run
    /// completes at today's speed; later ones are generated between jobs.
    fn pregenerated(self) -> u64 {
        match self {
            Kind::Chess => 16,
            Kind::ModelSel => 32,
        }
    }

    fn configs(self) -> Vec<FrameworkConfig> {
        match self {
            Kind::Chess => {
                vec![FrameworkConfig::pat_fs().with_min_sup(MinSupStrategy::Absolute(CHESS_MIN_SUP))]
            }
            Kind::ModelSel => C_GRID
                .iter()
                .map(|&c| {
                    FrameworkConfig::pat_fs()
                        .with_model(ModelKind::LinearSvm(LinearSvmParams::with_c(c)))
                })
                .collect(),
        }
    }
}

/// The global counters the jobs move, read as deltas around each job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    nodes: u64,
    rounds: u64,
    scanned: u64,
    memo_hits: u64,
    memo_misses: u64,
    folds: u64,
}

impl Counters {
    fn now() -> Self {
        Counters {
            nodes: counters::mine_nodes_explored().get(),
            rounds: counters::select_argmax_rounds().get(),
            scanned: counters::select_candidates_scanned().get(),
            memo_hits: counters::cache_mining_hits().get(),
            memo_misses: counters::cache_mining_misses().get(),
            folds: counters::cv_folds().get(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            nodes: self.nodes - before.nodes,
            rounds: self.rounds - before.rounds,
            scanned: self.scanned - before.scanned,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            folds: self.folds - before.folds,
        }
    }

    /// The counts a layer-by-layer replay must reproduce (it does not run
    /// `cross_validate_framework`, which owns the fold counter).
    fn work(self) -> [u64; 5] {
        [
            self.nodes,
            self.rounds,
            self.scanned,
            self.memo_hits,
            self.memo_misses,
        ]
    }
}

/// What set-up builds: the row stream inputs are drawn from, which of its
/// rows train and which are held out, the first jobs' inputs and an empty
/// model registry.
struct Setup {
    stream: Dataset,
    train: Vec<usize>,
    /// Fit-chess: the pool fresh held-out rows are drawn from; modelsel:
    /// the held-out part of the fixed partition.
    held_out: Vec<usize>,
    inputs: Vec<JobInput>,
    registry: ModelRegistry,
}

fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<Setup, String> {
    let (stream, train, held_out) = match kind {
        Kind::Chess => {
            let stream = inputs::profile_stream("chess", CHESS_ROWS + CHESS_HELD_OUT_POOL);
            let n = stream.len();
            (stream, (0..CHESS_ROWS).collect(), (CHESS_ROWS..n).collect())
        }
        Kind::ModelSel => {
            let stream = inputs::profile_stream("austral", AUSTRAL_ROWS);
            let fold = stratified_holdout(&stream.labels, TEST_FRACTION, SPLIT_SEED);
            (stream, fold.train, fold.test)
        }
    };
    let registry = ModelRegistry::open_with_validator(
        RegistryConfig::new(dir),
        Some(dfp_serve::registry_validator()),
    )
    .map_err(|e| format!("opening the registry: {e}"))?;
    let mut s = Setup {
        stream,
        train,
        held_out,
        inputs: Vec::new(),
        registry,
    };
    s.inputs = (0..kind.pregenerated())
        .map(|j| job_input(kind, &s, seed, j))
        .collect();
    Ok(s)
}

/// [`setup`], timed in seconds.
fn timed_setup(kind: Kind, seed: u64, dir: &Path) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let s = setup(kind, seed, dir)?;
    Ok((s, start.elapsed().as_secs_f64()))
}

/// One job's input: CSV text whose first `train_rows` rows train and the
/// rest are held out, and the registry's probe row.
struct JobInput {
    text: String,
    train_rows: usize,
    probe: String,
    seed: u64,
}

/// Job `j` of a run: the profile's canonical replicate with its rows in a
/// fresh order, so every job's CSV text is new and the mining memo misses.
/// A fresh replicate per job would make the run's median swing with the
/// data: MMRFS's round count, which sets most of the cost, varies up to 5x
/// between replicates drawn from one generator. Fit-chess trains on all
/// 3196 rows and scores fresh held-out draws from the same generator;
/// modelsel keeps a fixed 70/30 partition and its inner folds follow the
/// job's seed.
fn job_input(kind: Kind, s: &Setup, seed: u64, j: u64) -> JobInput {
    let mut rng = Rng::derive(seed, j);
    let job_seed = rng.next_u64();
    let mut idx = s.train.clone();
    rng.shuffle(&mut idx);
    let held_out = match kind {
        Kind::Chess => rng
            .sample(0..s.held_out.len(), CHESS_HELD_OUT)
            .into_iter()
            .map(|i| s.held_out[i])
            .collect(),
        Kind::ModelSel => {
            let mut h = s.held_out.clone();
            rng.shuffle(&mut h);
            h
        }
    };
    let train_rows = idx.len();
    let probe = inputs::predict_line(&s.stream, held_out[0], None);
    idx.extend_from_slice(&held_out);
    JobInput {
        text: inputs::csv_text(&s.stream, &idx),
        train_rows,
        probe,
        seed: job_seed,
    }
}

fn read_csv(text: &str) -> Result<Dataset, String> {
    dfp_data::csv::read_dataset(text.as_bytes()).map_err(|e| format!("reading CSV: {e}"))
}

/// Train and held-out parts of a job's dataset.
fn split(ds: &Dataset, input: &JobInput) -> (Dataset, Dataset) {
    let train: Vec<usize> = (0..input.train_rows).collect();
    let test: Vec<usize> = (input.train_rows..ds.len()).collect();
    (ds.subset(&train), ds.subset(&test))
}

/// A finished job: the model, its DFPM bytes and the held-out rows.
struct Job {
    wall_s: f64,
    model: PatternClassifier,
    bytes: Vec<u8>,
    winner: usize,
    test: Dataset,
    counters: Counters,
}

/// The job through the library's own entry points; timed from CSV text in
/// to published version out.
fn run_job(
    kind: Kind,
    s: &Setup,
    input: &JobInput,
    configs: &[FrameworkConfig],
) -> Result<Job, String> {
    // Each job starts with an empty mining memo, as a fresh fit does; hits
    // within the job (modelsel's C grid re-mining identical folds) remain.
    dfp_mining::memo::clear();
    let before = Counters::now();
    let start = Instant::now();
    let ds = read_csv(&input.text)?;
    let (train, test) = split(&ds, input);
    let (model, winner) = match kind {
        Kind::Chess => (PatternClassifier::fit(&train, &configs[0]), 0),
        Kind::ModelSel => {
            match fit_with_model_selection(&train, configs, INNER_FOLDS, input.seed) {
                Ok((m, w)) => (Ok(m), w),
                Err(e) => (Err(e), 0),
            }
        }
    };
    let model = model.map_err(|e| format!("fit: {e}"))?;
    let bytes = dfp_model::to_bytes(&model);
    s.registry
        .publish_bytes(kind.model_name(), &bytes, Some(&input.probe))
        .map_err(|e| format!("publish: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Job {
        wall_s,
        model,
        bytes,
        winner,
        test,
        counters: Counters::now().since(before),
    })
}

/// Patterns mined and selected across every fit of a replayed job.
#[derive(Default)]
struct Tally {
    mined: AtomicUsize,
    selected: AtomicUsize,
}

/// `PatternClassifier::fit` for a Pat_FS linear-SVM configuration, one
/// layer call at a time, each under a span.
fn traced_fit(
    tr: &Tracer,
    ctx: Ctx,
    train: &Dataset,
    cfg: &FrameworkConfig,
    tally: &Tally,
) -> Result<PatternClassifier, String> {
    let (
        FeatureMode::Patterns {
            min_sup,
            mining,
            selection: SelectionStrategy::Mmrfs(select_cfg),
        },
        ModelKind::LinearSvm(svm_params),
        DiscretizerKind::Mdl,
    ) = (&cfg.features, &cfg.model, cfg.discretizer)
    else {
        return Err("the benchmark replays Pat_FS with MDL and a linear SVM only".into());
    };
    let (categorical, discretization) = tr.span(ctx, "data.discretize", false, |_| {
        if train.schema.has_numeric() {
            let (d, m) = train.discretize(&MdlDiscretizer::new());
            (d, Some(m))
        } else {
            (train.clone(), None)
        }
    });
    let (ts, item_map) = tr.span(ctx, "data.itemize", false, |_| {
        categorical.to_transactions()
    });
    let abs = min_sup.resolve(ts.len(), &ts.class_priors());
    let mining_cfg = mining.to_mining_config(abs as f64 / ts.len().max(1) as f64);
    let candidates = tr
        .span(ctx, "mining.mine", true, |_| {
            mine_features(&ts, &mining_cfg)
        })
        .map_err(|e| format!("mining: {e}"))?;
    let result = tr.span(ctx, "select.mmrfs", true, |_| {
        mmrfs(&ts, &candidates, select_cfg)
    });
    let selected = result.patterns(&candidates);
    tally.mined.fetch_add(candidates.len(), Ordering::Relaxed);
    tally.selected.fetch_add(selected.len(), Ordering::Relaxed);
    let (space, matrix) = tr.span(ctx, "select.transform", false, |_| {
        let space = FeatureSpace::new(ts.n_items(), ts.n_classes(), &selected);
        let matrix = space.transform(&ts);
        (space, matrix)
    });
    let svm = tr.span(ctx, "classify.train", true, |_| {
        LinearSvm::fit(&matrix, svm_params)
    });
    let info = FitInfo {
        n_items: ts.n_items(),
        n_patterns_mined: candidates.len(),
        n_selected: selected.len(),
        n_features: space.n_features(),
        min_sup_abs: Some(abs),
    };
    Ok(PatternClassifier::from_parts(
        TrainedModel::Linear(svm),
        space,
        discretization,
        Some(item_map),
        Some(train.schema.clone()),
        info,
    ))
}

/// `PatternClassifier::predict`, one layer call at a time.
fn traced_predict(
    tr: &Tracer,
    ctx: Ctx,
    model: &PatternClassifier,
    data: &Dataset,
) -> Vec<ClassId> {
    let categorical = tr.span(ctx, "data.discretize", false, |_| {
        match model.discretization() {
            Some(m) => m.apply(data),
            None => data.clone(),
        }
    });
    let (ts, _) = tr.span(ctx, "data.itemize", false, |_| {
        categorical.to_transactions()
    });
    let matrix = tr.span(ctx, "select.transform", false, |_| {
        model.feature_space().transform(&ts)
    });
    tr.span(ctx, "classify.predict", false, |_| {
        model.model().predict_all(&matrix)
    })
}

/// The replayed job's results.
struct Replay {
    wall_s: f64,
    model: PatternClassifier,
    winner: usize,
    counters: Counters,
    tally: Tally,
}

/// The job again, layer by layer under spans: the same calls
/// `fit_with_model_selection` makes, folds under `dfp_par::par_map` as
/// `cross_validate_framework` runs them.
fn replay_job(
    kind: Kind,
    s: &Setup,
    input: &JobInput,
    configs: &[FrameworkConfig],
    tr: &Tracer,
    job: u64,
) -> Result<Replay, String> {
    dfp_mining::memo::clear();
    let tally = Tally::default();
    let before = Counters::now();
    let start = Instant::now();
    let (model, winner) = tr.span(tr.root(job), "job", false, |ctx| {
        let ds = tr.span(ctx, "data.csv", false, |_| read_csv(&input.text))?;
        let (train, _) = tr.span(ctx, "core.split", false, |_| split(&ds, input));
        let winner = match kind {
            Kind::Chess => 0,
            Kind::ModelSel => tr.span(ctx, "core.cv", false, |ctx| {
                select_by_cv(tr, ctx, &train, configs, input.seed, &tally)
            })?,
        };
        let model = traced_fit(tr, ctx, &train, &configs[winner], &tally)?;
        let bytes = tr.span(ctx, "model.encode", false, |_| dfp_model::to_bytes(&model));
        tr.span(ctx, "registry.publish", false, |_| {
            s.registry
                .publish_bytes(kind.model_name(), &bytes, Some(&input.probe))
        })
        .map_err(|e| format!("publish: {e}"))?;
        Ok::<_, String>((model, winner))
    })?;
    Ok(Replay {
        wall_s: start.elapsed().as_secs_f64(),
        model,
        winner,
        counters: Counters::now().since(before),
        tally,
    })
}

/// Inner cross validation over `configs`; the first best mean wins, as in
/// `fit_with_model_selection`.
fn select_by_cv(
    tr: &Tracer,
    ctx: Ctx,
    train: &Dataset,
    configs: &[FrameworkConfig],
    seed: u64,
    tally: &Tally,
) -> Result<usize, String> {
    let mut best = 0;
    let mut best_acc = f64::NEG_INFINITY;
    for (i, cfg) in configs.iter().enumerate() {
        let folds = stratified_k_fold(&train.labels, INNER_FOLDS, seed);
        let per_fold: Vec<Result<f64, String>> = dfp_par::par_map(&folds, |fold| {
            tr.span(ctx, "core.fold", false, |ctx| {
                let fold_train = train.subset(&fold.train);
                let fold_test = train.subset(&fold.test);
                let model = traced_fit(tr, ctx, &fold_train, cfg, tally)?;
                let pred = traced_predict(tr, ctx, &model, &fold_test);
                Ok(accuracy(&pred, &fold_test.labels))
            })
        });
        let accs = per_fold.into_iter().collect::<Result<Vec<f64>, String>>()?;
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        if mean > best_acc {
            best_acc = mean;
            best = i;
        }
    }
    Ok(best)
}

fn predict(model: &PatternClassifier, test: &Dataset) -> Result<Vec<ClassId>, String> {
    model.predict(test).map_err(|e| format!("predict: {e}"))
}

/// Runs a fit workload for `opts.seconds`: jobs back to back, each checked.
pub fn run(kind: Kind, opts: &Opts, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let configs = kind.configs();

    // A failed set-up is one failed operation.
    let (mut s, t) = match timed_setup(kind, opts.seed, &work.join("registry-0")) {
        Ok(first) => first,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.errors.push(e);
            return out;
        }
    };
    let mut setup_times = vec![t];
    let mut setups = 1;
    let mut pregenerated = std::mem::take(&mut s.inputs).into_iter();

    let tracer = Tracer::new(opts.trace);
    let mut done: Vec<JobStats> = Vec::new();
    let run_start = Instant::now();
    let mut j = 0u64;
    while j == 0 || run_start.elapsed().as_secs_f64() < opts.seconds {
        // The later set-ups are timed and dropped.
        if setups < SETUPS
            && run_start.elapsed().as_secs_f64() >= opts.seconds * setups as f64 / SETUPS as f64
        {
            let dir = work.join(format!("registry-{setups}"));
            match timed_setup(kind, opts.seed, &dir) {
                Ok((_, t)) => setup_times.push(t),
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
            setups += 1;
        }
        let input = pregenerated
            .next()
            .unwrap_or_else(|| job_input(kind, &s, opts.seed, j));
        out.attempted += 1;
        let steal0 = sys::steal_ticks();
        let checked = run_job(kind, &s, &input, &configs)
            .and_then(|job| check_job(kind, &s, &input, &configs, &job, &tracer, j));
        match checked {
            Ok(stats) => {
                let peak = sys::peak_rss_mib();
                if done.is_empty() {
                    // Set-up plus one job. Later jobs add allocator-arena
                    // growth that varied 25% between runs of the same code;
                    // each job's record keeps the peak so far.
                    out.set("peak_rss_mb", peak);
                }
                let mut record = stats.record(j);
                record
                    .num("peak_rss_mb", peak)
                    .num("steal_share", sys::steal_share(steal0, sys::steal_ticks()));
                out.jobs.push(record);
                done.push(stats);
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("job {j}: {e}"));
            }
        }
        j += 1;
    }

    out.set("setup_s", stats::quantile(&setup_times, 0.5));
    out.phase("setups", setup_times.iter().sum());
    out.phase("jobs_and_setups", run_start.elapsed().as_secs_f64());
    let walls: Vec<f64> = done.iter().map(|d| d.wall_s).collect();
    let accs: Vec<f64> = done.iter().map(|d| d.accuracy).collect();
    out.set("latency_p50_ms", stats::quantile(&walls, 0.5) * 1e3);
    // Jobs run one at a time: the sustained rate is one per median job.
    out.set("max_rate", stats::ratio(1.0, stats::quantile(&walls, 0.5)));
    out.set("accuracy", stats::mean(&accs));
    out.samples = walls.len();

    if opts.trace {
        let summary = trace::summarise(&tracer.take());
        let n = summary.jobs.max(1) as f64;
        let per_job = |f: &dyn Fn(&JobStats) -> f64| done.iter().map(f).sum::<f64>() / n;
        for (metric, layer) in [
            ("data.csv.self_s", "data.csv"),
            ("data.discretize.self_s", "data.discretize"),
            ("data.itemize.self_s", "data.itemize"),
            ("mining.mine.self_s", "mining.mine"),
            ("select.mmrfs.self_s", "select.mmrfs"),
            ("select.transform.self_s", "select.transform"),
            ("classify.train.self_s", "classify.train"),
            ("classify.predict.self_s", "classify.predict"),
            ("model.encode.self_s", "model.encode"),
            ("registry.publish.self_s", "registry.publish"),
        ] {
            out.set(metric, summary.self_s(layer) / n);
        }
        let core = ["core.split", "core.cv", "core.fold"].map(|l| summary.self_s(l));
        out.set("core.cv.self_s", core.iter().sum::<f64>() / n);
        out.set("mining.mine.cpu_s", summary.cpu_s("mining.mine") / n);
        out.set("select.mmrfs.cpu_s", summary.cpu_s("select.mmrfs") / n);
        out.set("classify.train.cpu_s", summary.cpu_s("classify.train") / n);
        let c = |f: fn(&Counters) -> u64| per_job(&|d: &JobStats| f(&d.counters) as f64);
        out.set("mining.patterns", per_job(&|d| d.patterns as f64));
        out.set("mining.nodes", c(|c| c.nodes));
        out.set("select.mmrfs.rounds", c(|c| c.rounds));
        out.set("select.mmrfs.scanned", c(|c| c.scanned));
        out.set(
            "select.mmrfs.useful_ratio",
            stats::ratio(per_job(&|d| d.selected as f64), c(|c| c.rounds)),
        );
        let hits = c(|c| c.memo_hits);
        out.set(
            "mining.memo_hit_ratio",
            stats::ratio(hits, hits + c(|c| c.memo_misses)),
        );
        out.set("core.cv.folds", c(|c| c.folds));
        out.set("model.bytes", per_job(&|d| d.model_bytes as f64));
        out.set("trace.coverage", summary.coverage());
        let traced: f64 = done.iter().map(|d| d.replay_wall_s[1]).sum();
        let untraced: f64 = done.iter().map(|d| d.replay_wall_s[0]).sum();
        out.set("trace.overhead", stats::ratio(traced, untraced) - 1.0);
        out.shares = summary.shares();
    }
    out
}

/// What one checked job did, as counts that repeat exactly for a seed.
#[derive(Debug, Clone, Default)]
struct JobStats {
    wall_s: f64,
    accuracy: f64,
    winner: usize,
    counters: Counters,
    model_bytes: usize,
    /// Traced runs: wall seconds of the replay without and with spans.
    replay_wall_s: [f64; 2],
    patterns: usize,
    selected: usize,
}

impl JobStats {
    fn record(&self, j: u64) -> Obj {
        let c = self.counters;
        let mut o = Obj::new();
        o.int("job", j)
            .num("wall_s", self.wall_s)
            .num("accuracy", self.accuracy)
            .int("winner", self.winner as u64)
            .int("mining.patterns", self.patterns as u64)
            .int("mining.nodes", c.nodes)
            .int("select.mmrfs.rounds", c.rounds)
            .int("select.mmrfs.scanned", c.scanned)
            .int("core.cv.folds", c.folds)
            .int("memo_hits", c.memo_hits)
            .int("model.bytes", self.model_bytes as u64);
        o
    }
}

/// The correctness gates of one job. The DFPM bytes must decode to a model
/// with identical held-out predictions, and in a traced run the
/// layer-by-layer replay must reproduce the selected patterns, the winning
/// configuration, the predictions and the work counters. A traced run
/// replays each job twice, without and with spans, alternating which runs
/// first from job to job.
fn check_job(
    kind: Kind,
    s: &Setup,
    input: &JobInput,
    configs: &[FrameworkConfig],
    job: &Job,
    tracer: &Tracer,
    j: u64,
) -> Result<JobStats, String> {
    let pred = predict(&job.model, &job.test)?;
    let decoded =
        dfp_model::from_bytes(&job.bytes).map_err(|e| format!("DFPM bytes do not decode: {e}"))?;
    if predict(&decoded, &job.test)? != pred {
        return Err("decoded DFPM model predicts differently on held-out rows".into());
    }
    let mut stats = JobStats {
        wall_s: job.wall_s,
        accuracy: accuracy(&pred, &job.test.labels),
        winner: job.winner,
        counters: job.counters,
        model_bytes: job.bytes.len(),
        ..JobStats::default()
    };
    if !tracer.enabled() {
        return Ok(stats);
    }
    let untraced_first = j.is_multiple_of(2);
    if untraced_first {
        stats.replay_wall_s[0] =
            replay_job(kind, s, input, configs, &Tracer::new(false), j)?.wall_s;
    }
    let replay = replay_job(kind, s, input, configs, tracer, j)?;
    stats.replay_wall_s[1] = replay.wall_s;
    if !untraced_first {
        stats.replay_wall_s[0] =
            replay_job(kind, s, input, configs, &Tracer::new(false), j)?.wall_s;
    }
    stats.patterns = replay.tally.mined.load(Ordering::Relaxed);
    stats.selected = replay.tally.selected.load(Ordering::Relaxed);
    if replay.winner != job.winner {
        return Err(format!(
            "replay picked configuration {} but the job picked {}",
            replay.winner, job.winner
        ));
    }
    if replay.model.feature_space().patterns != job.model.feature_space().patterns {
        return Err("replay selected different patterns than the job".into());
    }
    if predict(&replay.model, &job.test)? != pred {
        return Err("replayed model predicts differently on held-out rows".into());
    }
    if replay.counters.work() != job.counters.work() {
        return Err(format!(
            "replay counters {:?} differ from the job's {:?}",
            replay.counters.work(),
            job.counters.work()
        ));
    }
    Ok(stats)
}
