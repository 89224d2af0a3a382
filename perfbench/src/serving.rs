//! Standing a saved model up for serving, and driving open-loop cells
//! against it through the in-process `Client` or the `WireServer`.

use crate::openloop::{self, Cell};
use quclassi::io::model_from_string;
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_serve::json::Json;
use quclassi_serve::wire::{FrameDecoder, WirePrediction};
use quclassi_serve::{Client, ServeConfig, ServeRuntime, WireConfig, WireServer};
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::executor::Executor;
use rand::rngs::StdRng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name the model is deployed under.
pub const MODEL: &str = "bench";

/// How a workload's requests reach the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// Length-prefixed JSON over loopback TCP to the event-loop server.
    Wire,
    /// The in-process `Client` handle.
    InProcess,
}

/// Which estimator the served artifact is compiled with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Exact inner products.
    Analytic,
    /// The exact (ideal, shot-free) SWAP-test circuit.
    SwapTest,
}

impl Method {
    /// The estimator for this method.
    pub fn estimator(self) -> FidelityEstimator {
        match self {
            Method::Analytic => FidelityEstimator::analytic(),
            Method::SwapTest => FidelityEstimator::swap_test(Executor::ideal()),
        }
    }
}

/// The batch executor the shipped runtime uses when no environment knob
/// is set: one worker per available core.
pub fn default_executor() -> BatchExecutor {
    BatchExecutor::from_thread_specs(None, None, 0).expect("the default thread spec is valid")
}

/// A running model: runtime, optionally a wire server, and the times each
/// start-up step took.
pub struct Instance {
    pub runtime: ServeRuntime,
    pub server: Option<WireServer>,
    pub steps: SetupSteps,
}

/// Start-up steps of one [`Instance`], in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSteps {
    pub load_s: f64,
    pub compile_s: f64,
    pub start_s: f64,
    pub first_answer_s: f64,
}

impl SetupSteps {
    pub fn total_s(&self) -> f64 {
        self.load_s + self.compile_s + self.start_s + self.first_answer_s
    }
}

impl Instance {
    /// Reads the saved model text, compiles it, starts the runtime (and
    /// the wire server), and waits for the first answer to `probe`, which
    /// must equal `expected` bit for bit.
    pub fn start(
        model_text: &str,
        method: Method,
        frontend: Frontend,
        probe: &[f64],
        expected: &Prediction,
    ) -> Result<Instance, String> {
        let t0 = Instant::now();
        let model = model_from_string(model_text).map_err(|e| format!("load: {e}"))?;
        let t1 = Instant::now();
        let compiled = CompiledModel::compile(&model, method.estimator())
            .map_err(|e| format!("compile: {e}"))?;
        let t2 = Instant::now();
        let runtime = ServeRuntime::start(ServeConfig::default(), default_executor())
            .map_err(|e| format!("runtime start: {e}"))?;
        runtime
            .deploy(MODEL, compiled)
            .map_err(|e| format!("deploy: {e}"))?;
        let server = match frontend {
            Frontend::Wire => Some(
                WireServer::start_with("127.0.0.1:0", runtime.client(), WireConfig::default())
                    .map_err(|e| format!("server start: {e}"))?,
            ),
            Frontend::InProcess => None,
        };
        let t3 = Instant::now();
        let answer = match &server {
            Some(server) => wire_predict_once(server.local_addr(), probe)?,
            None => {
                let reply = runtime
                    .client()
                    .predict(MODEL, probe)
                    .map_err(|e| format!("first answer: {e}"))?;
                reply.prediction
            }
        };
        let t4 = Instant::now();
        if !same_prediction(&answer, expected) {
            return Err(format!(
                "first answer {answer:?} differs from predict_one {expected:?}"
            ));
        }
        Ok(Instance {
            runtime,
            server,
            steps: SetupSteps {
                load_s: (t1 - t0).as_secs_f64(),
                compile_s: (t2 - t1).as_secs_f64(),
                start_s: (t3 - t2).as_secs_f64(),
                first_answer_s: (t4 - t3).as_secs_f64(),
            },
        })
    }

    pub fn client(&self) -> Client {
        self.runtime.client()
    }

    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("a wire instance has a server")
            .local_addr()
    }

    /// Stops the server, then the runtime.
    pub fn stop(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.runtime.shutdown();
    }
}

/// Bit-for-bit equality of two predictions.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.label == b.label
        && bits(&a.probabilities) == bits(&b.probabilities)
        && bits(&a.fidelities) == bits(&b.fidelities)
}

fn from_wire(p: WirePrediction) -> Prediction {
    Prediction {
        label: p.label,
        probabilities: p.probabilities,
        fidelities: p.fidelities,
    }
}

/// Predict request frame payload for `x` under `id`.
pub fn request_payload(x: &[f64], id: u64) -> String {
    Json::obj(vec![
        ("op", Json::str("predict")),
        ("model", Json::str(MODEL)),
        ("features", Json::nums(x)),
        ("id", Json::Num(id as f64)),
    ])
    .to_string()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses one response payload into its echoed id and prediction (or the
/// server's error).
pub fn parse_response(payload: &[u8]) -> Result<(Option<u64>, Prediction), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("response JSON: {e}"))?;
    let id = json.get("id").and_then(Json::as_u64);
    let prediction = WirePrediction::from_response(&json, MODEL).map_err(|e| e.to_string())?;
    Ok((id, from_wire(prediction)))
}

/// One request, one response, over a fresh connection.
fn wire_predict_once(addr: SocketAddr, x: &[f64]) -> Result<Prediction, String> {
    let mut conn = WireConn::connect(addr)?;
    conn.call(x, 0).map(|(p, _)| p)
}

/// A blocking wire connection for closed-loop calls.
pub struct WireConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl WireConn {
    pub fn connect(addr: SocketAddr) -> Result<WireConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        Ok(WireConn {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 * 1024],
        })
    }

    /// Sends one predict and waits for its response; returns it with the
    /// round-trip time.
    pub fn call(&mut self, x: &[f64], id: u64) -> Result<(Prediction, Duration), String> {
        let t0 = Instant::now();
        let payload = self.raw_call(x, id)?;
        let rtt = t0.elapsed();
        let (_, prediction) = parse_response(&payload)?;
        Ok((prediction, rtt))
    }

    /// Sends one predict and returns the response payload unparsed.
    pub fn raw_call(&mut self, x: &[f64], id: u64) -> Result<Vec<u8>, String> {
        let request = frame(request_payload(x, id).as_bytes());
        self.stream
            .write_all(&request)
            .map_err(|e| format!("send: {e}"))?;
        loop {
            if let Some(payload) = self.decoder.next_frame() {
                return Ok(payload);
            }
            let n = self
                .stream
                .read(&mut self.buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.decoder
                .extend(&self.buf[..n])
                .map_err(|e| e.to_string())?;
        }
    }
}

/// One open-loop cell's requests: when each is due and the pool index it
/// sends.
pub struct Plan {
    pub due_ns: Vec<u64>,
    pub inputs: Vec<usize>,
}

impl Plan {
    /// `count` Poisson arrivals at `rate`, sending pool entries
    /// `first, first+1, …` (modulo the pool size).
    pub fn new(rate: f64, count: usize, first: usize, pool: usize, rng: &mut StdRng) -> Plan {
        Plan {
            due_ns: openloop::poisson_schedule(rate, count, rng),
            inputs: (0..count).map(|i| (first + i) % pool).collect(),
        }
    }
}

/// Seconds from a cell's start to its last request's due time.
fn span_s(plan: &Plan) -> f64 {
    plan.due_ns.last().map_or(0.0, |&ns| ns as f64 / 1e9)
}

/// Per-request results of a cell, kept for the correctness check.
pub struct Answers {
    /// Pool index and answer of each answered request.
    pub answered: Vec<(usize, Prediction)>,
}

/// Runs one open-loop cell through the in-process client. Completion
/// times are stamped by the runtime's completion notifier, so no
/// collector thread sits between the answer and its timestamp.
pub fn inprocess_cell(
    client: &Client,
    pool: &[Vec<f64>],
    plan: &Plan,
    deadline: Duration,
) -> (Cell, Answers) {
    let n = plan.due_ns.len();
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let mut pending = Vec::with_capacity(n);
    let mut late = Vec::with_capacity(n);
    let start = Instant::now();
    let mut i = 0;
    while i < n {
        openloop::wait_until(start, plan.due_ns[i]);
        // Send everything already due (catching up after a late wake).
        let now_ns = start.elapsed().as_nanos() as u64;
        while i < n && plan.due_ns[i] <= now_ns {
            let done = Arc::clone(&done);
            let index = i;
            let notifier: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                done[index].store(start.elapsed().as_nanos() as u64, Ordering::Release);
            });
            late.push(start.elapsed().as_nanos() as u64 - plan.due_ns[i]);
            pending.push(
                client
                    .submit_with_notifier(MODEL, &pool[plan.inputs[i]], notifier)
                    .ok(),
            );
            i += 1;
        }
    }
    // Wait for stragglers up to the last request's deadline. A request is
    // done once its notifier has stamped it (which follows publication).
    let last_deadline = Duration::from_nanos(*plan.due_ns.last().unwrap_or(&0)) + deadline;
    let stamped = |i: usize| done[i].load(Ordering::Acquire) != 0;
    while start.elapsed() < last_deadline && (0..n).any(|i| pending[i].is_some() && !stamped(i)) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut outcomes = Vec::with_capacity(n);
    let mut answers = Answers {
        answered: Vec::with_capacity(n),
    };
    let mut lost = 0;
    for (i, p) in pending.into_iter().enumerate() {
        let result = p.map(|p| p.take_if_ready());
        match result {
            Some(Some(Ok(reply))) => {
                // Published but not yet stamped by the deadline: late.
                let t = done[i].load(Ordering::Acquire);
                outcomes.push((t != 0).then(|| t.saturating_sub(plan.due_ns[i])));
                answers.answered.push((plan.inputs[i], reply.prediction));
            }
            Some(None) => {
                lost += 1;
                outcomes.push(None);
            }
            // Refused at admission or failed in the runtime.
            _ => outcomes.push(None),
        }
    }
    (
        Cell::from_outcomes(&outcomes, late, lost, deadline, span_s(plan)),
        answers,
    )
}

/// Runs one open-loop cell over a single pipelined loopback connection:
/// this thread sends on schedule while one receiver thread reads and
/// timestamps responses. Requests unanswered by their deadline are lost;
/// the cell never retries or reconnects.
pub fn wire_cell(
    addr: SocketAddr,
    pool_payloads: &[Vec<f64>],
    plan: &Plan,
    deadline: Duration,
) -> Result<(Cell, Answers), String> {
    let n = plan.due_ns.len();
    let frames: Vec<Vec<u8>> = (0..n)
        .map(|i| frame(request_payload(&pool_payloads[plan.inputs[i]], i as u64).as_bytes()))
        .collect();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream;
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let mut late = Vec::with_capacity(n);

    let (received, send_error) = std::thread::scope(|scope| {
        let stop_rx = Arc::clone(&stop);
        let receiver = scope.spawn(move || {
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut got: Vec<(u64, Vec<u8>)> = Vec::with_capacity(n);
            while got.len() < n && !stop_rx.load(Ordering::Acquire) {
                match reader.read(&mut buf) {
                    Ok(0) => break,
                    Ok(k) => {
                        let t = start.elapsed().as_nanos() as u64;
                        if decoder.extend(&buf[..k]).is_err() {
                            break;
                        }
                        while let Some(payload) = decoder.next_frame() {
                            got.push((t, payload));
                        }
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            got
        });
        let mut send_error = None;
        let mut i = 0;
        while i < n && send_error.is_none() {
            openloop::wait_until(start, plan.due_ns[i]);
            let now_ns = start.elapsed().as_nanos() as u64;
            let mut burst = Vec::new();
            while i < n && plan.due_ns[i] <= now_ns {
                late.push(now_ns - plan.due_ns[i]);
                burst.extend_from_slice(&frames[i]);
                i += 1;
            }
            if let Err(e) = writer.write_all(&burst) {
                send_error = Some(format!("send: {e}"));
            }
        }
        // Give the last request its full deadline, then stop listening.
        let last_deadline = Duration::from_nanos(*plan.due_ns.last().unwrap_or(&0)) + deadline;
        while !receiver.is_finished() && start.elapsed() < last_deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Release);
        (
            receiver.join().expect("the receiver thread does not panic"),
            send_error,
        )
    });
    if let Some(e) = send_error {
        return Err(e);
    }
    let mut outcomes: Vec<Option<u64>> = vec![None; n];
    let mut answered = vec![false; n];
    let mut answers = Answers {
        answered: Vec::with_capacity(received.len()),
    };
    for (t, payload) in received {
        let text = String::from_utf8_lossy(&payload).into_owned();
        let json = Json::parse(&text).map_err(|e| format!("response JSON: {e}"))?;
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .filter(|&id| (id as usize) < n)
            .ok_or_else(|| format!("response without a known id: {text}"))?
            as usize;
        if answered[id] {
            return Err(format!("request {id} answered twice"));
        }
        answered[id] = true;
        // An error response (for example a `saturated` refusal) counts as
        // failed; a prediction is timed and kept for the check.
        if let Ok(p) = WirePrediction::from_response(&json, MODEL) {
            outcomes[id] = Some(t.saturating_sub(plan.due_ns[id]));
            answers.answered.push((plan.inputs[id], from_wire(p)));
        }
    }
    let lost = answered.iter().filter(|a| !**a).count() as u64;
    Ok((
        Cell::from_outcomes(&outcomes, late, lost, deadline, span_s(plan)),
        answers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_server_that_never_answers_costs_failures_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts, reads every request, and never replies.
        let silent = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
        });
        let pool = vec![vec![0.5; 4]];
        let plan = Plan {
            due_ns: (0..50).map(|i| i * 500_000).collect(),
            inputs: vec![0; 50],
        };
        let deadline = Duration::from_millis(100);
        let t0 = Instant::now();
        let (cell, answers) = wire_cell(addr, &pool, &plan, deadline).unwrap();
        let took = t0.elapsed();
        // Bounded: the last request's due time plus its deadline, plus
        // one receiver poll.
        assert!(took < Duration::from_secs(2), "{took:?}");
        assert!(took >= Duration::from_millis(125), "{took:?}");
        assert_eq!((cell.attempted, cell.failed, cell.lost), (50, 50, 50));
        assert!(answers.answered.is_empty());
        assert!(cell.latencies_ns.iter().all(|&ns| ns == 100_000_000));
        silent.join().unwrap();
    }

    #[test]
    fn predictions_compare_bit_for_bit() {
        let a = Prediction {
            label: 1,
            probabilities: vec![0.25, 0.75],
            fidelities: vec![0.1, 0.9],
        };
        let mut b = a.clone();
        assert!(same_prediction(&a, &b));
        b.fidelities[0] = f64::from_bits(0.1f64.to_bits() + 1);
        assert!(!same_prediction(&a, &b));
    }
}
