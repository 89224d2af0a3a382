//! The traced run: per-layer numbers, each timed from outside the program
//! around calls into its public entry points or read from the counters it
//! already exposes, reconciled against the end-to-end time they add up to.

use crate::data;
use crate::openloop::{self, Cell};
use crate::report::Report;
use crate::serving::{self, Frontend, Instance, WireConn};
use crate::stats;
use crate::workload::{self, Pool, Served, Spec};
use quclassi::gradient::shifted_parameter_sets;
use quclassi::io::model_from_string;
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::CompiledModel;
use quclassi_serve::json::Json;
use quclassi_serve::wire::FrameDecoder;
use quclassi_serve::{MetricsSnapshot, WireConfig, WireServer};
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::profile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each closed-loop round-trip probe runs (at most 2000 calls).
const RTT_PROBE: Duration = Duration::from_millis(1500);

/// Training updates timed for `trainer.update_us`.
const UPDATES_TIMED: usize = 300;

/// One cell on a fresh instance, with the runtime's counters read after it.
struct TracedCell {
    cell: Cell,
    metrics: MetricsSnapshot,
}

fn profile_delta(before: profile::SimProfile, after: profile::SimProfile) -> profile::SimProfile {
    profile::SimProfile {
        fused_groups: after.fused_groups - before.fused_groups,
        dense_sweeps: after.dense_sweeps - before.dense_sweeps,
        diagonal_sweeps: after.diagonal_sweeps - before.diagonal_sweeps,
        permutation_sweeps: after.permutation_sweeps - before.permutation_sweeps,
        amplitudes_touched: after.amplitudes_touched - before.amplitudes_touched,
    }
}

fn per(count: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        count as f64 / of as f64
    }
}

pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let splits = data::prepare(spec.source, seed);

    // --- Core: one fit, and the updates it is made of.
    profile::set_enabled(true);
    let (model_text, train_s) = workload::fit_once(spec, &splits, seed);
    report.ops(1, 0);
    let (update_us, circuits, amps_per_update) = time_updates(&splits, seed);
    // Without contrastive updates, each sample updates its own class once
    // per epoch.
    let updates_per_fit = (spec.epochs * splits.train_x.len()) as f64;
    let train_attributed = updates_per_fit * update_us * 1e-6;

    // --- Setup: the start-up steps, median of several repetitions.
    let pool = Pool::new(spec, &splits, &model_text, seed);
    let (instance, steps) = workload::start_instances(spec, &model_text, &pool, spec.setup_reps)?;
    Instance::stop(instance);
    let step = |f: fn(&serving::SetupSteps) -> f64| {
        stats::median(&steps.iter().map(f).collect::<Vec<_>>())
    };

    // --- Serving: one second at the light rate to settle the process, the
    // heavy cell untraced, then both cells traced, each on a fresh instance
    // so the runtime's counters cover one cell.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c0ffee);
    let heavy_n = openloop::cell_size(spec.heavy_rps, seconds * spec.window_share);
    let light_n = openloop::cell_size(spec.light_rps, seconds * spec.window_share);
    profile::set_enabled(false);
    let warm_n = (spec.light_rps as usize).max(20);
    let (_, _, pool) = one_cell(
        spec,
        &splits,
        &model_text,
        pool,
        &mut rng,
        spec.light_rps,
        warm_n,
        &mut report,
    )?;
    let (untraced, _, pool) = one_cell(
        spec,
        &splits,
        &model_text,
        pool,
        &mut rng,
        spec.heavy_rps,
        heavy_n,
        &mut report,
    )?;
    profile::set_enabled(true);
    let (light, _, pool) = one_cell(
        spec,
        &splits,
        &model_text,
        pool,
        &mut rng,
        spec.light_rps,
        light_n,
        &mut report,
    )?;
    let (heavy, cache_hit_ratio, mut pool) = one_cell(
        spec,
        &splits,
        &model_text,
        pool,
        &mut rng,
        spec.heavy_rps,
        heavy_n,
        &mut report,
    )?;

    // --- Round trips with one request in flight: runtime alone, then the
    // same runtime behind the wire server.
    let instance = Instance::start(
        &model_text,
        spec.method,
        Frontend::InProcess,
        &pool.inputs[0],
        &pool.expected[0],
    )?;
    let (runtime_rtt, wire_rtt, response_payload) =
        round_trips(&splits, &mut pool, &mut rng, &instance, &mut report)?;
    Instance::stop(instance);

    // --- Frontend codecs on this workload's own frames.
    let request_payload = serving::request_payload(&pool.inputs[0], 1);
    let (parse_ns, write_ns, decode_ns) = codec_costs(&request_payload, &response_payload)?;

    // --- Infer: the served artifact's single and batched paths.
    let occupancy = heavy.metrics.mean_batch_occupancy();
    let infer = infer_costs(spec, &splits, &model_text, &mut pool, &mut rng, occupancy)?;
    let per_predict = |count: u64| per(count, infer.predicts);
    let amps_per_predict = per_predict(infer.work.amplitudes_touched);

    // --- Reconcile the heavy cell's mean latency with its stages.
    let stages = &heavy.metrics.stages;
    let mean_us = |h: &quclassi_serve::HistogramSnapshot| h.mean_ns() / 1e3;
    let late_mean_us = stats::mean(&heavy.cell.late_ns) / 1e3;
    let codec_us = if spec.frontend == Frontend::Wire {
        (parse_ns + write_ns + decode_ns) / 1e3
    } else {
        0.0
    };
    let attributed = late_mean_us
        + codec_us
        + mean_us(&stages.encode)
        + mean_us(&stages.queue_wait)
        + mean_us(&stages.assemble)
        + mean_us(&stages.compute)
        + mean_us(&stages.write);
    let e2e_mean = heavy.cell.mean_us();
    let late_p50 = stats::quantile(&heavy.cell.late_ns, 0.5) as f64 / 1e3;
    let stage_p50_sum = late_p50
        + stages.encode.p50_us()
        + stages.queue_wait.p50_us()
        + stages.assemble.p50_us()
        + stages.compute.p50_us()
        + stages.write.p50_us();

    eprintln!(
        "\nledger of the heavy cell ({:.0} rps), mean µs per request:",
        spec.heavy_rps
    );
    for (name, us) in [
        ("generator lateness", late_mean_us),
        ("frame decode + JSON", codec_us),
        ("encode", mean_us(&stages.encode)),
        ("queue wait", mean_us(&stages.queue_wait)),
        ("assemble", mean_us(&stages.assemble)),
        ("compute", mean_us(&stages.compute)),
        ("wire write", mean_us(&stages.write)),
        ("unattributed", e2e_mean - attributed),
    ] {
        eprintln!("  {name:<22} {us:>12.2}  {:>6.1}%", 100.0 * us / e2e_mean);
    }
    eprintln!("  {:<22} {e2e_mean:>12.2}", "end to end");
    eprintln!(
        "ledger of one fit: {train_s:.3} s; {updates_per_fit} updates x {update_us:.2} µs = {train_attributed:.3} s ({:.1}% unattributed)",
        100.0 * (1.0 - train_attributed / train_s)
    );
    eprintln!(
        "unattributed shares against the 10% goal: serving {:.1}%, training {:.1}%",
        100.0 * (1.0 - attributed / e2e_mean),
        100.0 * (1.0 - train_attributed / train_s)
    );

    let m = &heavy.metrics;
    // Frontend.
    report.metric("wire.rtt_us.p50", wire_rtt, "us");
    report.metric("frontend_us.p50", wire_rtt - runtime_rtt, "us");
    report.metric("json.parse_ns", parse_ns, "ns");
    report.metric("json.write_ns", write_ns, "ns");
    report.metric("frame.decode_ns", decode_ns, "ns");
    // Runtime.
    report.metric("runtime.rtt_us.p50", runtime_rtt, "us");
    report.metric("predict_p99_us.light", light.cell.p99_us(), "us");
    report.metric("predict_p99_us.heavy", heavy.cell.p99_us(), "us");
    report.metric("stage.encode_us.p50", stages.encode.p50_us(), "us");
    report.metric("stage.queue_wait_us.p50", stages.queue_wait.p50_us(), "us");
    report.metric("stage.queue_wait_us.p99", stages.queue_wait.p99_us(), "us");
    report.metric("stage.assemble_us.p50", stages.assemble.p50_us(), "us");
    report.metric("stage.compute_us.p50", stages.compute.p50_us(), "us");
    report.metric("stage.write_us.p50", stages.write.p50_us(), "us");
    report.metric(
        "stage.unattributed_us.p50",
        heavy.cell.p50_us() - stage_p50_sum,
        "us",
    );
    report.metric("batch.occupancy", occupancy, "requests");
    report.metric("flush.size", per(m.flush_on_size, m.batches), "ratio");
    report.metric(
        "flush.deadline",
        per(m.flush_on_deadline, m.batches),
        "ratio",
    );
    report.metric(
        "flush.deadline.light",
        per(light.metrics.flush_on_deadline, light.metrics.batches),
        "ratio",
    );
    report.metric("admission.rejected", m.rejected as f64, "count");
    // Infer.
    report.metric("infer.predict_one_us", infer.predict_one_us, "us");
    report.metric("infer.per_sample_us.batched", infer.batched_us, "us");
    report.metric("cache.hit_ratio", cache_hit_ratio, "ratio");
    // Sim.
    report.metric("sim.amplitudes_per_predict", amps_per_predict, "count");
    report.metric(
        "sim.sweeps_per_predict.dense",
        per_predict(infer.work.dense_sweeps),
        "count",
    );
    report.metric(
        "sim.sweeps_per_predict.diagonal",
        per_predict(infer.work.diagonal_sweeps),
        "count",
    );
    report.metric(
        "sim.sweeps_per_predict.permutation",
        per_predict(infer.work.permutation_sweeps),
        "count",
    );
    report.metric(
        "sim.ns_per_amplitude",
        if amps_per_predict > 0.0 {
            infer.predict_one_us * 1e3 / amps_per_predict
        } else {
            0.0
        },
        "ns",
    );
    report.metric("sim.amplitudes_per_update", amps_per_update, "count");
    // Core.
    report.metric("trainer.update_us", update_us, "us");
    report.metric("trainer.circuits_per_update", circuits, "count");
    report.metric("trainer.fit_s", train_s, "s");
    // Setup.
    report.metric("setup.dataset_s", splits.dataset_s, "s");
    report.metric("setup.pca_s", splits.pca_s, "s");
    report.metric("setup.load_s", step(|s| s.load_s), "s");
    report.metric("setup.compile_s", step(|s| s.compile_s), "s");
    report.metric("setup.start_s", step(|s| s.start_s), "s");
    report.metric(
        "setup.first_answer_us",
        step(|s| s.first_answer_s) * 1e6,
        "us",
    );
    // Generator.
    report.metric("gen.late_us.p99", heavy.cell.late_p99_us(), "us");
    // Reconciliation and tracing overhead.
    report.metric(
        "ledger.serve_unattributed_share",
        1.0 - attributed / e2e_mean,
        "ratio",
    );
    report.metric(
        "ledger.train_unattributed_share",
        1.0 - train_attributed / train_s,
        "ratio",
    );
    report.metric(
        "trace.overhead_ratio",
        heavy.cell.p50_us() / untraced.cell.p50_us(),
        "ratio",
    );
    profile::set_enabled(false);
    Ok(report)
}

/// Starts a fresh instance, runs one cell, reads its counters, stops it.
#[allow(clippy::too_many_arguments)]
fn one_cell<'a>(
    spec: &'a Spec,
    splits: &'a data::Splits,
    model_text: &str,
    pool: Pool,
    rng: &mut StdRng,
    rate: f64,
    count: usize,
    report: &mut Report,
) -> Result<(TracedCell, f64, Pool), String> {
    let instance = Instance::start(
        model_text,
        spec.method,
        spec.frontend,
        &pool.inputs[0],
        &pool.expected[0],
    )?;
    let mut served = Served {
        spec,
        splits,
        pool,
        instance,
        rng: StdRng::seed_from_u64(rng.gen()),
        attempted: 0,
        failed: 0,
        lost: 0,
        mismatches: 0,
        probing: false,
        fits: None,
    };
    let cell = served.cell(rate, count);
    let metrics = served.instance.client().metrics();
    let hit_ratio = metrics.models.first().map_or(0.0, |m| m.cache.hit_rate());
    let Served {
        pool,
        instance,
        attempted,
        failed,
        mismatches,
        ..
    } = served;
    Instance::stop(instance);
    report.ops(attempted, failed);
    if mismatches > 0 {
        report.wrong(&format!(
            "{mismatches} served answers differ from predict_one"
        ));
    }
    Ok((
        TracedCell {
            cell: cell?,
            metrics,
        },
        hit_ratio,
        pool,
    ))
}

/// Closed-loop round trips with one request in flight, first through the
/// in-process client and then over one wire connection to the same
/// runtime. Returns both medians (µs) and one response payload.
fn round_trips(
    splits: &data::Splits,
    pool: &mut Pool,
    rng: &mut StdRng,
    instance: &Instance,
    report: &mut Report,
) -> Result<(f64, f64, Vec<u8>), String> {
    let client = instance.client();
    let plan = pool.plan(1.0, 2000, splits, rng);
    let mut runtime = Vec::new();
    let start = Instant::now();
    for &i in &plan.inputs {
        if start.elapsed() > RTT_PROBE {
            break;
        }
        let t0 = Instant::now();
        let reply = client
            .predict(serving::MODEL, &pool.inputs[i])
            .map_err(|e| e.to_string())?;
        runtime.push(t0.elapsed().as_nanos() as u64);
        if !serving::same_prediction(&reply.prediction, &pool.expected[i]) {
            report.wrong("an in-process answer differs from predict_one");
        }
    }
    report.ops(runtime.len() as u64, 0);

    let server = WireServer::start_with("127.0.0.1:0", instance.client(), WireConfig::default())
        .map_err(|e| e.to_string())?;
    let plan = pool.plan(1.0, 2000, splits, rng);
    let mut conn = WireConn::connect(server.local_addr())?;
    let mut wire = Vec::new();
    let start = Instant::now();
    for &i in &plan.inputs {
        if start.elapsed() > RTT_PROBE {
            break;
        }
        let (prediction, rtt) = conn.call(&pool.inputs[i], i as u64)?;
        wire.push(rtt.as_nanos() as u64);
        if !serving::same_prediction(&prediction, &pool.expected[i]) {
            report.wrong("a wire answer differs from predict_one");
        }
    }
    report.ops(wire.len() as u64, 0);
    let response = conn.raw_call(&pool.inputs[0], 7)?;
    drop(conn);
    server.shutdown();
    runtime.sort_unstable();
    wire.sort_unstable();
    Ok((
        stats::quantile(&runtime, 0.5) as f64 / 1e3,
        stats::quantile(&wire, 0.5) as f64 / 1e3,
        response,
    ))
}

/// Mean ns per call of JSON parse (request), JSON write (response) and
/// frame decode (request) on this workload's frames.
fn codec_costs(request: &str, response: &[u8]) -> Result<(f64, f64, f64), String> {
    const REPS: u32 = 20_000;
    let response_json = Json::parse(std::str::from_utf8(response).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..REPS {
            f();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(REPS)
    };
    let parse = time(&mut || {
        black_box(Json::parse(black_box(request)).expect("the request parses"));
    });
    let write = time(&mut || {
        black_box(black_box(&response_json).to_string());
    });
    let mut framed = (request.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(request.as_bytes());
    let decode = time(&mut || {
        let mut decoder = FrameDecoder::new();
        decoder
            .extend(black_box(&framed))
            .expect("the frame is in bounds");
        black_box(decoder.next_frame().expect("one whole frame"));
    });
    Ok((parse, write, decode))
}

/// What [`infer_costs`] measured.
struct InferCosts {
    predict_one_us: f64,
    batched_us: f64,
    /// Kernel work of `predicts` uncached `predict_one` calls.
    work: profile::SimProfile,
    predicts: u64,
}

/// The served artifact's `predict_one` (median µs per call on this
/// workload's request sequence), `predict_many` per sample at the heavy
/// cell's batch occupancy, and the kernel work per uncached predict.
fn infer_costs(
    spec: &Spec,
    splits: &data::Splits,
    model_text: &str,
    pool: &mut Pool,
    rng: &mut StdRng,
    occupancy: f64,
) -> Result<InferCosts, String> {
    let model = model_from_string(model_text).map_err(|e| e.to_string())?;
    let compile =
        || CompiledModel::compile(&model, spec.method.estimator()).map_err(|e| e.to_string());
    let n = match spec.inputs {
        workload::Inputs::CycleTest => 2000,
        workload::Inputs::Fresh => 200,
    };
    let plan = pool.plan(1.0, n, splits, rng);
    let xs: Vec<Vec<f64>> = plan
        .inputs
        .iter()
        .map(|&i| pool.inputs[i].clone())
        .collect();

    let single = compile()?;
    let mut sample_rng = StdRng::seed_from_u64(0);
    let mut times = Vec::with_capacity(xs.len());
    for x in &xs {
        let t0 = Instant::now();
        black_box(
            single
                .predict_one(x, &mut sample_rng)
                .map_err(|e| e.to_string())?,
        );
        times.push(t0.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    let predict_one_us = stats::quantile(&times, 0.5) as f64 / 1e3;

    // Kernel work of one uncached predict.
    let uncached = compile()?.with_cache_capacity(0);
    let before = profile::snapshot();
    for x in xs.iter().take(20) {
        black_box(
            uncached
                .predict_one(x, &mut sample_rng)
                .map_err(|e| e.to_string())?,
        );
    }
    let work = profile_delta(before, profile::snapshot());
    let k = xs.len().min(20) as u64;

    let size = (occupancy.round() as usize).max(1);
    let batched = compile()?;
    let executor = serving::default_executor();
    let mut per_sample = Vec::new();
    for chunk in xs.chunks(size).filter(|c| c.len() == size) {
        let t0 = Instant::now();
        black_box(
            batched
                .predict_many(chunk, &executor, 0)
                .map_err(|e| e.to_string())?,
        );
        per_sample.push(t0.elapsed().as_nanos() as u64 / size as u64);
    }
    per_sample.sort_unstable();
    let batched_us = stats::quantile(&per_sample, 0.5) as f64 / 1e3;
    Ok(InferCosts {
        predict_one_us,
        batched_us,
        work,
        predicts: k,
    })
}

/// Times `FidelityEstimator::estimate_many` over one sample's 2P+1
/// parameter-shift sets, as `Trainer` issues it, on the workload's
/// training samples; returns the mean µs per update, the circuits per
/// update, and the amplitudes each update sweeps.
fn time_updates(splits: &data::Splits, seed: u64) -> (f64, f64, f64) {
    let model = workload::initial_model(splits, seed);
    let estimator = FidelityEstimator::analytic();
    let batch = BatchExecutor::single_threaded(0);
    let shift = quclassi::gradient::ShiftSchedule::EpochScaled.shift(1);
    let mut total = Duration::ZERO;
    let mut circuits = 0;
    let before = profile::snapshot();
    for u in 0..UPDATES_TIMED {
        let x_index = u % splits.train_x.len();
        let (x, class) = (&splits.train_x[x_index], splits.train_y[x_index]);
        let params = model.class_params(class).expect("class exists").to_vec();
        let mut sets = Vec::with_capacity(1 + 2 * params.len());
        sets.push(params.clone());
        sets.extend(shifted_parameter_sets(&params, shift));
        circuits = sets.len();
        let t0 = Instant::now();
        black_box(
            estimator
                .estimate_many(model.stack(), &sets, model.encoder(), x, &batch, 0)
                .expect("estimates succeed"),
        );
        total += t0.elapsed();
    }
    let work = profile_delta(before, profile::snapshot());
    (
        total.as_secs_f64() * 1e6 / UPDATES_TIMED as f64,
        circuits as f64,
        per(work.amplitudes_touched, UPDATES_TIMED as u64),
    )
}
