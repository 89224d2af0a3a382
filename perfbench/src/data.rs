//! Workload inputs, generated from the run's seed: the dataset splits,
//! the fitted projection, and fresh request samples.

use quclassi_classical::pca::Pca;
use quclassi_datasets::preprocess::MinMaxScaler;
use quclassi_datasets::{iris, mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which dataset a workload trains and serves on.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Iris statistics, 50 per class, stratified 70/30 split.
    Iris,
    /// Synthetic MNIST digits reduced to `dims` PCA dimensions (two per
    /// qubit of each register).
    Mnist {
        digits: &'static [usize],
        per_class: usize,
        test_per_class: usize,
        dims: usize,
    },
}

/// Train and test splits, normalised to [0, 1], plus what it took.
pub struct Splits {
    pub train_x: Vec<Vec<f64>>,
    pub train_y: Vec<usize>,
    pub test_x: Vec<Vec<f64>>,
    pub test_y: Vec<usize>,
    pub num_classes: usize,
    /// Fitted projection for new raw MNIST images (None for Iris).
    pub projection: Option<(Pca, MinMaxScaler)>,
    /// Seconds spent generating the raw data.
    pub dataset_s: f64,
    /// Seconds spent fitting PCA and the scaler and transforming.
    pub pca_s: f64,
}

impl Splits {
    pub fn dim(&self) -> usize {
        self.train_x[0].len()
    }
}

/// Generates the workload's dataset from `seed` and prepares the splits.
pub fn prepare(source: Source, seed: u64) -> Splits {
    let t0 = std::time::Instant::now();
    match source {
        Source::Iris => {
            let raw = iris::load_with(50, seed);
            let (train, test) = raw.stratified_split(0.7, &mut StdRng::seed_from_u64(seed ^ 0x5a));
            let t1 = std::time::Instant::now();
            let scaler = MinMaxScaler::fit(&train.features);
            let train_x = scaler.transform(&train.features);
            let test_x = scaler.transform(&test.features);
            let t2 = std::time::Instant::now();
            Splits {
                train_x,
                train_y: train.labels,
                test_x,
                test_y: test.labels,
                num_classes: 3,
                projection: None,
                dataset_s: (t1 - t0).as_secs_f64(),
                pca_s: (t2 - t1).as_secs_f64(),
            }
        }
        Source::Mnist {
            digits,
            per_class,
            test_per_class,
            dims,
        } => {
            let full = mnist::generate(per_class + test_per_class, seed);
            let subset = full.filter_classes(digits);
            let mut seen = vec![0usize; digits.len()];
            let (mut train_raw, mut train_y, mut test_raw, mut test_y) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (x, &y) in subset.features.iter().zip(subset.labels.iter()) {
                if seen[y] < per_class {
                    train_raw.push(x.clone());
                    train_y.push(y);
                } else {
                    test_raw.push(x.clone());
                    test_y.push(y);
                }
                seen[y] += 1;
            }
            let t1 = std::time::Instant::now();
            let pca = Pca::fit(&train_raw, dims, &mut StdRng::seed_from_u64(seed ^ 0x9e37));
            let train_z = pca.transform(&train_raw);
            let scaler = MinMaxScaler::fit(&train_z);
            let train_x = scaler.transform(&train_z);
            let test_x = scaler.transform(&pca.transform(&test_raw));
            let t2 = std::time::Instant::now();
            Splits {
                train_x,
                train_y,
                test_x,
                test_y,
                num_classes: digits.len(),
                projection: Some((pca, scaler)),
                dataset_s: (t1 - t0).as_secs_f64(),
                pca_s: (t2 - t1).as_secs_f64(),
            }
        }
    }
}

/// Draws fresh MNIST images of the workload's digits (cycling through
/// them) and projects them with the fitted PCA and scaler.
pub struct FreshSamples {
    digits: &'static [usize],
    rng: StdRng,
    drawn: usize,
}

impl FreshSamples {
    pub fn new(source: Source, seed: u64) -> FreshSamples {
        let Source::Mnist { digits, .. } = source else {
            panic!("fresh samples are drawn from MNIST workloads only");
        };
        FreshSamples {
            digits,
            rng: StdRng::seed_from_u64(seed ^ 0xf7e5),
            drawn: 0,
        }
    }

    pub fn draw(&mut self, count: usize, splits: &Splits) -> Vec<Vec<f64>> {
        let (pca, scaler) = splits
            .projection
            .as_ref()
            .expect("MNIST splits carry their projection");
        (0..count)
            .map(|_| {
                let digit = self.digits[self.drawn % self.digits.len()];
                self.drawn += 1;
                let image = mnist::sample_digit(digit, &mut self.rng);
                scaler.transform_one(&pca.transform_one(&image))
            })
            .collect()
    }
}
