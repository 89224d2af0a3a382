//! The three workloads and the timed (end-to-end) run.

use crate::data::{self, FreshSamples, Source, Splits};
use crate::openloop::{self, Cell};
use crate::report::Report;
use crate::serving::{self, Answers, Frontend, Instance, Method, Plan};
use crate::stats;
use quclassi::io::{model_from_string, model_to_string};
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi::trainer::{Trainer, TrainingConfig};
use quclassi_infer::{CompiledModel, Prediction};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Where a workload's requests come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inputs {
    /// Cycle through the test split (a small pool the cache keeps).
    CycleTest,
    /// A fresh, never-repeated sample per request (the cache misses).
    Fresh,
}

/// Which start-up a workload's `setup_s` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// Saved model text → compile → runtime (and server) start → first
    /// correct answer.
    Serving,
    /// Dataset generation, PCA fit, scaling and model initialisation.
    Training,
}

/// One workload: what is trained, how it is served, and at what rates.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    pub method: Method,
    pub frontend: Frontend,
    pub inputs: Inputs,
    pub setup: Setup,
    pub epochs: usize,
    /// Offered rates of the two fixed cells, requests per second.
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// The p99 limit the capacity search holds, µs.
    pub p99_limit_us: f64,
    /// Capacity search range, requests per second.
    pub capacity_floor: f64,
    pub capacity_ceiling: f64,
    /// Bisection steps after bracketing the knee.
    pub capacity_refine: usize,
    /// A request unanswered this long after it was due has failed.
    pub deadline: Duration,
    /// The fixed-rate cells run as this many light/heavy pairs in turn;
    /// each reported percentile is the median over a rate's windows, so a
    /// burst of machine noise in one window does not set the result.
    pub windows: usize,
    /// Windows per capacity probe; the probe passes when the median of
    /// their p99s meets the limit.
    pub probe_windows: usize,
    /// Share of the timed run's wall time spent in `Trainer::fit`, in fits
    /// between the serving cells.
    pub train_share: f64,
    /// Shares of the run's seconds for each fixed-rate window and for each
    /// capacity-probe window. A window never has fewer requests than its
    /// p99 needs.
    pub window_share: f64,
    pub probe_share: f64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Fewest `Trainer::fit` repetitions, the fastest of which is `train_s`.
    pub min_fits: usize,
}

/// Learning rate of every workload's training (the fig. 10 setting; the
/// other knobs keep `TrainingConfig`'s defaults).
pub const LEARNING_RATE: f64 = 0.1;

pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "wire_iris",
            source: Source::Iris,
            method: Method::Analytic,
            frontend: Frontend::Wire,
            inputs: Inputs::CycleTest,
            setup: Setup::Serving,
            epochs: 10,
            light_rps: 500.0,
            heavy_rps: 2500.0,
            p99_limit_us: 25_000.0,
            // At least a request every 2 ms, so a run against a stalled
            // server stays bounded.
            capacity_floor: 500.0,
            capacity_ceiling: 200_000.0,
            capacity_refine: 4,
            deadline: Duration::from_millis(500),
            windows: 3,
            probe_windows: 3,
            train_share: 0.1,
            window_share: 0.05,
            probe_share: 0.05,
            setup_reps: 21,
            min_fits: 5,
        },
        Spec {
            name: "swaptest_mnist",
            source: Source::Mnist {
                digits: &[3, 6],
                per_class: 60,
                test_per_class: 1000,
                dims: 8,
            },
            method: Method::SwapTest,
            frontend: Frontend::InProcess,
            inputs: Inputs::Fresh,
            setup: Setup::Serving,
            epochs: 10,
            light_rps: 3000.0,
            heavy_rps: 8000.0,
            p99_limit_us: 10_000.0,
            capacity_floor: 50.0,
            capacity_ceiling: 100_000.0,
            capacity_refine: 4,
            deadline: Duration::from_millis(500),
            windows: 31,
            probe_windows: 5,
            train_share: 0.25,
            window_share: 0.0017,
            probe_share: 0.005,
            setup_reps: 31,
            min_fits: 3,
        },
        Spec {
            name: "train_mnist10",
            source: Source::Mnist {
                digits: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                per_class: 60,
                test_per_class: 25,
                dims: 16,
            },
            method: Method::Analytic,
            frontend: Frontend::InProcess,
            inputs: Inputs::CycleTest,
            setup: Setup::Training,
            epochs: 10,
            light_rps: 20_000.0,
            heavy_rps: 60_000.0,
            p99_limit_us: 25_000.0,
            capacity_floor: 100.0,
            capacity_ceiling: 1_000_000.0,
            capacity_refine: 4,
            deadline: Duration::from_millis(500),
            windows: 61,
            probe_windows: 11,
            train_share: 0.5,
            window_share: 0.0017,
            probe_share: 0.005,
            setup_reps: 9,
            min_fits: 3,
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// The model each workload trains: QC-S with one class state per label.
pub fn model_config(splits: &Splits) -> QuClassiConfig {
    QuClassiConfig::qc_s(splits.dim(), splits.num_classes)
}

pub fn trainer(spec: &Spec) -> Trainer {
    Trainer::new(
        TrainingConfig {
            epochs: spec.epochs,
            learning_rate: LEARNING_RATE,
            ..Default::default()
        },
        FidelityEstimator::analytic(),
    )
}

/// A freshly initialised model (identical for a given seed).
pub fn initial_model(splits: &Splits, seed: u64) -> QuClassiModel {
    QuClassiModel::with_random_parameters(model_config(splits), &mut StdRng::seed_from_u64(seed))
        .expect("QC-S configurations are valid")
}

/// Trains once from the seeded initial model; returns the saved model
/// text and the wall time of `Trainer::fit`.
pub fn fit_once(spec: &Spec, splits: &Splits, seed: u64) -> (String, f64) {
    let mut model = initial_model(splits, seed);
    let trainer = trainer(spec);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a11);
    let t0 = Instant::now();
    trainer
        .fit(&mut model, &splits.train_x, &splits.train_y, &mut rng)
        .expect("training on generated data succeeds");
    let train_s = t0.elapsed().as_secs_f64();
    (model_to_string(&model), train_s)
}

/// Test accuracy of a saved model through `CompiledModel`.
pub fn test_accuracy(model_text: &str, splits: &Splits) -> f64 {
    let model = model_from_string(model_text).expect("the saved model reloads");
    CompiledModel::compile(&model, FidelityEstimator::analytic())
        .expect("the model compiles")
        .evaluate_accuracy(
            &splits.test_x,
            &splits.test_y,
            &serving::default_executor(),
            0,
        )
        .expect("evaluation succeeds")
}

/// The request inputs of a run and the answer `CompiledModel::predict_one`
/// gives for each, on a separate, uncached copy of the served artifact.
pub struct Pool {
    pub inputs: Vec<Vec<f64>>,
    pub expected: Vec<Prediction>,
    reference: CompiledModel,
    fresh: Option<FreshSamples>,
    next: usize,
}

impl Pool {
    pub fn new(spec: &Spec, splits: &Splits, model_text: &str, seed: u64) -> Pool {
        let model = model_from_string(model_text).expect("the saved model reloads");
        let reference = CompiledModel::compile(&model, spec.method.estimator())
            .expect("the model compiles")
            .with_cache_capacity(0);
        let mut pool = Pool {
            inputs: Vec::new(),
            expected: Vec::new(),
            reference,
            fresh: (spec.inputs == Inputs::Fresh).then(|| FreshSamples::new(spec.source, seed)),
            next: 0,
        };
        match pool.fresh.as_mut() {
            // Fresh samples for the start-up probes.
            Some(fresh) => {
                let xs = fresh.draw(spec.setup_reps.max(1), splits);
                pool.add(xs);
            }
            None => pool.add(splits.test_x.clone()),
        }
        pool
    }

    fn add(&mut self, xs: Vec<Vec<f64>>) {
        let expected = reference_answers(&self.reference, &xs);
        self.inputs.extend(xs);
        self.expected.extend(expected);
    }

    /// Plans a cell of `count` requests at `rate`: cycles the pool, or
    /// draws `count` fresh samples first.
    pub fn plan(&mut self, rate: f64, count: usize, splits: &Splits, rng: &mut StdRng) -> Plan {
        let first = match self.fresh.as_mut() {
            Some(fresh) => {
                let first = self.inputs.len();
                let xs = fresh.draw(count, splits);
                self.add(xs);
                first
            }
            None => {
                self.next += count;
                self.next - count
            }
        };
        Plan::new(rate, count, first, self.inputs.len(), rng)
    }

    /// Counts answers that differ from `predict_one`.
    pub fn mismatches(&self, answers: &Answers) -> usize {
        answers
            .answered
            .iter()
            .filter(|(i, p)| !serving::same_prediction(p, &self.expected[*i]))
            .count()
    }
}

/// `predict_one` over `xs`, split across the available cores.
fn reference_answers(reference: &CompiledModel, xs: &[Vec<f64>]) -> Vec<Prediction> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = xs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = xs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0);
                    part.iter()
                        .map(|x| {
                            reference
                                .predict_one(x, &mut rng)
                                .expect("inputs are valid")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference threads do not panic"))
            .collect()
    })
}

/// A serving run's instance plus its inputs and running tallies.
pub struct Served<'a> {
    pub spec: &'a Spec,
    pub splits: &'a Splits,
    pub pool: Pool,
    pub instance: Instance,
    pub rng: StdRng,
    pub attempted: u64,
    pub failed: u64,
    pub lost: u64,
    pub mismatches: usize,
    /// Set while the capacity search overloads the server on purpose: its
    /// refusals and late answers are the signal it searches for, so only
    /// requests never answered count as failed.
    pub probing: bool,
    /// Fits run after each cell, if the run times training.
    pub fits: Option<Fits<'a>>,
}

impl Served<'_> {
    /// Runs one open-loop cell of `count` requests at `rate` and checks
    /// every answer.
    pub fn cell(&mut self, rate: f64, count: usize) -> Result<Cell, String> {
        let plan = self.pool.plan(rate, count, self.splits, &mut self.rng);
        let (cell, answers) = match self.spec.frontend {
            Frontend::InProcess => serving::inprocess_cell(
                &self.instance.client(),
                &self.pool.inputs,
                &plan,
                self.spec.deadline,
            ),
            Frontend::Wire => serving::wire_cell(
                self.instance.addr(),
                &self.pool.inputs,
                &plan,
                self.spec.deadline,
            )?,
        };
        let wrong = self.pool.mismatches(&answers);
        self.mismatches += wrong;
        self.attempted += cell.attempted;
        self.failed += if self.probing { cell.lost } else { cell.failed };
        self.lost += cell.lost;
        let tail = stats::tail_quantile(&cell.latencies_ns, 0.99)
            .map_or("unresolved".to_string(), |ns| {
                format!("{:.1}us", ns as f64 / 1e3)
            });
        eprintln!(
            "  cell {:>9.1} rps: n={} p50={:.1}us p99={} late_p99={:.1}us failed={} lost={} wrong={}",
            rate,
            cell.attempted,
            cell.p50_us(),
            tail,
            cell.late_p99_us(),
            cell.failed,
            cell.lost,
            wrong
        );
        if let Some(fits) = self.fits.as_mut() {
            fits.catch_up()?;
        }
        Ok(cell)
    }

    /// One second at the light rate, before anything is timed: the
    /// process's allocator and the runtime's threads settle, as they have
    /// in a server that has been up for a while. Answers are still checked.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let count = (self.spec.light_rps as usize).max(20);
        self.cell(self.spec.light_rps, count).map(drop)
    }

    /// Searches the highest rate whose p99 (the median over the probe's
    /// windows) stays under the limit; refused and unanswered requests
    /// count at their deadline, above the limit. Returns the throughput
    /// answered in time at that rate, as measured.
    pub fn capacity(&mut self, probe_seconds: f64) -> Result<f64, String> {
        let mut error = None;
        let mut achieved = Vec::new();
        let limit = self.spec.p99_limit_us;
        self.probing = true;
        let cap = openloop::search_capacity(
            self.spec.heavy_rps,
            self.spec.capacity_floor,
            self.spec.capacity_ceiling,
            self.spec.capacity_refine,
            |rate| {
                if error.is_some() {
                    return false;
                }
                let count = openloop::cell_size(rate, probe_seconds);
                let windows: Result<Vec<Cell>, String> = (0..self.spec.probe_windows)
                    .map(|_| self.cell(rate, count))
                    .collect();
                match windows {
                    Ok(cells) => {
                        let pass = median_p99_us(&cells) <= limit;
                        let answered: u64 = cells.iter().map(|c| c.attempted - c.failed).sum();
                        let span: f64 = cells.iter().map(|c| c.span_s).sum();
                        achieved.push((rate, answered as f64 / span));
                        pass
                    }
                    Err(e) => {
                        error = Some(e);
                        false
                    }
                }
            },
        );
        self.probing = false;
        if let Some(e) = error {
            return Err(e);
        }
        Ok(achieved
            .iter()
            .find(|(rate, _)| *rate == cap.rps)
            .map_or(0.0, |(_, rps)| *rps))
    }
}

/// Median over windows of each window's p50, µs.
pub fn median_p50_us(cells: &[Cell]) -> f64 {
    stats::median(&cells.iter().map(Cell::p50_us).collect::<Vec<_>>())
}

/// Median over windows of each window's p99, µs.
pub fn median_p99_us(cells: &[Cell]) -> f64 {
    stats::median(&cells.iter().map(Cell::p99_us).collect::<Vec<_>>())
}

/// Starts `reps` instances from the saved model text, one after another,
/// keeping the last; returns it with every repetition's step times.
pub fn start_instances(
    spec: &Spec,
    model_text: &str,
    pool: &Pool,
    reps: usize,
) -> Result<(Instance, Vec<serving::SetupSteps>), String> {
    let mut steps = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps.max(1) {
        // Alternate the probe so a reused answer could not pass the check.
        let probe = i % pool.inputs.len();
        let instance = Instance::start(
            model_text,
            spec.method,
            spec.frontend,
            &pool.inputs[probe],
            &pool.expected[probe],
        )?;
        steps.push(instance.steps);
        if let Some(previous) = last.replace(instance) {
            Instance::stop(previous);
        }
    }
    Ok((last.expect("at least one instance started"), steps))
}

/// Fits from one seed, repeated between the serving cells of a run so that
/// they sample the machine's drifting speed across the whole run rather
/// than at its two ends. Every fit must give the same model as the first.
pub struct Fits<'a> {
    spec: &'a Spec,
    splits: &'a Splits,
    seed: u64,
    /// Share of the run's wall time spent fitting.
    share: f64,
    start: Instant,
    spent: f64,
    /// The first fit's saved model text.
    pub model: Option<String>,
    /// Every fit's wall time, s.
    pub times: Vec<f64>,
}

impl<'a> Fits<'a> {
    pub fn new(spec: &'a Spec, splits: &'a Splits, seed: u64) -> Fits<'a> {
        Fits {
            spec,
            splits,
            seed,
            share: spec.train_share,
            start: Instant::now(),
            spent: 0.0,
            model: None,
            times: Vec::new(),
        }
    }

    /// Fits once more.
    pub fn fit(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let (text, t) = fit_once(self.spec, self.splits, self.seed);
        match &self.model {
            Some(first) if *first != text => {
                return Err("two fits from the same seed gave different models".into())
            }
            Some(_) => {}
            None => self.model = Some(text),
        }
        self.times.push(t);
        self.spent += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Fits until fitting has taken its share of the time since the run
    /// started.
    pub fn catch_up(&mut self) -> Result<(), String> {
        while self.spent < self.share * self.start.elapsed().as_secs_f64() {
            self.fit()?;
        }
        Ok(())
    }

    /// The fastest fit: on a shared host whose speed switches between
    /// regimes for seconds at a time, the minimum over fits spread across
    /// the run is the stable estimate of what one fit costs; the median
    /// follows the regime mix of the run.
    pub fn fastest(&self) -> f64 {
        self.times.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The timed run: every end-to-end metric, tracing off.
pub fn run_timed(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();

    // Training-side set-up: data, projection, and model initialisation.
    let mut train_setup = Vec::new();
    let mut splits = None;
    let reps = match spec.setup {
        Setup::Training => spec.setup_reps,
        Setup::Serving => 1,
    };
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = data::prepare(spec.source, seed);
        let _ = initial_model(&s, seed);
        train_setup.push(t0.elapsed().as_secs_f64());
        splits = Some(s);
    }
    let splits = splits.expect("at least one preparation");

    // Enough fits to train the served model; the rest run between the
    // serving cells.
    let mut fits = Fits::new(spec, &splits, seed);
    for _ in 0..spec.min_fits.div_ceil(2) {
        fits.fit()?;
    }
    let model_text = fits.model.clone().expect("at least one fit");
    let accuracy = test_accuracy(&model_text, &splits);
    let again = test_accuracy(&model_text, &splits);
    if accuracy != again {
        report.wrong("test accuracy differs between two evaluations of one model");
    }

    let pool = Pool::new(spec, &splits, &model_text, seed);
    let (instance, steps) = start_instances(spec, &model_text, &pool, spec.setup_reps)?;
    report.ops(steps.len() as u64, 0);
    let serve_setup: Vec<f64> = steps.iter().map(|s| s.total_s()).collect();
    let setup_s = match spec.setup {
        Setup::Training => stats::median(&train_setup),
        Setup::Serving => stats::median(&serve_setup),
    };

    let mut served = Served {
        spec,
        splits: &splits,
        pool,
        instance,
        rng: StdRng::seed_from_u64(seed ^ 0x0c0ffee),
        attempted: 0,
        failed: 0,
        lost: 0,
        mismatches: 0,
        probing: false,
        fits: Some(fits),
    };
    let result = (|| -> Result<(Vec<Cell>, Vec<Cell>, f64), String> {
        served.warm_up()?;
        let window_seconds = seconds * spec.window_share;
        let (mut light, mut heavy) = (Vec::new(), Vec::new());
        for _ in 0..spec.windows {
            light.push(served.cell(
                spec.light_rps,
                openloop::cell_size(spec.light_rps, window_seconds),
            )?);
            heavy.push(served.cell(
                spec.heavy_rps,
                openloop::cell_size(spec.heavy_rps, window_seconds),
            )?);
        }
        let capacity = served.capacity(seconds * spec.probe_share)?;
        Ok((light, heavy, capacity))
    })();
    let Served {
        instance,
        attempted,
        failed,
        lost,
        mismatches,
        fits,
        ..
    } = served;
    Instance::stop(instance);
    let (light, heavy, capacity) = result?;
    report.ops(attempted, failed);
    let mut fits = fits.expect("the timed run fits");
    while fits.times.len() < spec.min_fits {
        fits.fit()?;
    }
    let shown: Vec<String> = fits.times.iter().map(|t| format!("{t:.3}")).collect();
    eprintln!("  fits (s): {}", shown.join(" "));
    report.ops(fits.times.len() as u64, 0);
    if mismatches > 0 {
        report.wrong(&format!(
            "{mismatches} served answers differ from predict_one"
        ));
    }
    if lost > 0 {
        eprintln!("  {lost} requests were never answered (the server stalled)");
    }

    report.metric("setup_s", setup_s, "s");
    // The p99s are printed here but reported only by the traced run: on
    // this shared host their run-to-run spread exceeds any bound the
    // benchmark may set (see README.md).
    eprintln!(
        "  median window p99: light {:.1}us heavy {:.1}us",
        median_p99_us(&light),
        median_p99_us(&heavy)
    );
    report.metric("predict_p50_us.light", median_p50_us(&light), "us");
    report.metric("predict_p50_us.heavy", median_p50_us(&heavy), "us");
    report.metric("capacity_rps", capacity, "1/s");
    report.metric("train_s", fits.fastest(), "s");
    report.metric("test_accuracy", accuracy, "ratio");
    Ok(report)
}
