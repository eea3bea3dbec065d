//! The serve stage, run in its own child process once per round: cold
//! starts of the scoring daemon from the saved model, then traffic over one
//! loopback connection to the last daemon started — a scored pass over the
//! test set, one request at a time for latency, in traced rounds an open
//! loop at a fixed rate, and a pipelined saturation run.

use crate::loadgen::{Client, Pace, Phase};
use crate::stage::{Round, StageReport};
use crate::stats::percentile;
use crate::trace::{self, Recorder};
use frac_core::serve::{ServeConfig, ServeHandle, ServeSummary, Server};
use frac_core::FracModel;
use frac_dataset::{io, Dataset, Schema};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon cold starts per round; `cold_start_s` is the fastest of all.
const COLD_STARTS: usize = 8;
/// Latency phases get this share of the budget left after the cold starts
/// and the scored pass: all of it goes to requests sent one at a time in
/// windows of `WINDOW`, each window giving one p50 sample, except in
/// traced rounds, where the open loop takes half.
const LATENCY_SHARE: f64 = 0.75;
const WINDOW: usize = 100;
/// Traced rounds' open loop: arrival rate, and the fewest requests it
/// sends when the budget is small. It gives one p99 sample per round.
const OPEN_RATE: f64 = 500.0;
const MIN_OPEN: usize = 50;
/// Pipelined saturation: chunks of `SAT_CHUNK` records with at most
/// `SAT_WINDOW` outstanding, repeated while the longest chunk so far would
/// still end within the budget; every chunk gives one throughput sample.
const SAT_CHUNK: usize = 2000;
const SAT_WINDOW: usize = 256;
/// Scoring calls timed in-process in traced rounds.
const SCORE_REPS: usize = 100;

/// A running daemon and the client connected to it.
struct Daemon {
    client: Client,
    handle: ServeHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Daemon {
    /// Drain and stop the daemon. Returns once its threads have finished,
    /// so its model is freed before the next cold start loads another.
    fn stop(mut self) -> ServeSummary {
        self.client
            .command("stop")
            .expect("daemon acknowledges `cmd stop`");
        self.client
            .close()
            .expect("daemon closes the connection after `cmd stop`");
        drop(self.handle);
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly")
    }
}

/// The test rows as wire lines, and the bits each reply must carry.
struct Traffic<'a> {
    lines: &'a [Vec<u8>],
    expected: &'a [u64],
    traced: bool,
}

pub fn run(dir: &Path, round: Round, rec: &mut Recorder) -> StageReport {
    let mut out = StageReport::default();
    let model_path = dir.join("model.frac");
    let test_path = dir.join("test.tsv");
    let test = io::read_tsv(&test_path).expect("test TSV written by the parent");
    // The test TSV's data rows are the wire lines: TSV cells in schema
    // order, exactly what the daemon parses.
    let lines: Vec<Vec<u8>> = std::fs::read_to_string(&test_path)
        .expect("read the test TSV")
        .lines()
        .skip(1)
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let reference = FracModel::load(&model_path).expect("load the saved model");
    let expected: Vec<u64> = reference.score(&test).iter().map(|v| v.to_bits()).collect();
    let traffic = Traffic {
        lines: &lines,
        expected: &expected,
        traced: round.traced,
    };

    let mut daemon = None;
    for _ in 0..COLD_STARTS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let ((d, load), cold) = rec.time("serve.cold_start", |r| {
            cold_start(r, &model_path, test.schema())
        });
        out.add("cold_start_s", cold);
        out.add("persist.load_s", load);
        out.add("serve.ready_s", cold - load);
        daemon = Some(d);
    }
    let mut d = daemon.expect("at least one cold start");

    // Scored pass over the test set: the served NS the parent checks
    // against the train stage and ranks for AUC.
    let pass = phase(
        rec,
        &mut d.client,
        &traffic,
        "serve.test_pass",
        lines.len(),
        Pace::Window(8),
    );
    account(&mut out, "test pass", &pass);
    out.ns = pass.requests.iter().map(|r| r.ns).collect();

    // One request at a time: no request waits behind another, and the
    // load generator idles on one thread while the daemon scores.
    let latency_s = LATENCY_SHARE * round.left().max(0.0);
    let one_by_one_s = if round.traced {
        latency_s / 2.0
    } else {
        latency_s
    };
    let (start, mut longest) = (Instant::now(), 0.0f64);
    loop {
        let window_start = Instant::now();
        let w = phase(
            rec,
            &mut d.client,
            &traffic,
            "serve.one_by_one",
            WINDOW,
            Pace::Window(1),
        );
        account(&mut out, "one-by-one", &w);
        let lat = w.latencies_ns();
        if !lat.is_empty() {
            out.add("serve_p50_us", percentile(&lat, 50) as f64 / 1e3);
        }
        longest = longest.max(window_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest > one_by_one_s {
            break;
        }
    }
    if round.traced {
        let requests = ((OPEN_RATE * latency_s / 2.0) as usize).max(MIN_OPEN);
        let open = phase(
            rec,
            &mut d.client,
            &traffic,
            "serve.open_loop",
            requests,
            Pace::Rate(OPEN_RATE),
        );
        account(&mut out, "open loop", &open);
        let lat = open.latencies_ns();
        if !lat.is_empty() {
            out.add("serve.p99_us", percentile(&lat, 99) as f64 / 1e3);
        }
        out.add("gen.late_max_ms", open.late_max_ms());
    }
    let stats = d
        .client
        .command("stats")
        .expect("daemon answers `cmd stats`");
    for (key, metric) in [
        ("p50_us=", "serve.daemon_p50_us"),
        ("p99_us=", "serve.daemon_p99_us"),
    ] {
        match stats
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|v| v.parse::<f64>().ok())
        {
            Some(v) => out.add(metric, v),
            None => out.problem(format!("`cmd stats` reply lacks {key}: {stats}")),
        }
    }
    if round.traced {
        score_layers(rec, &reference, &test, &lines, &mut out);
    }

    // In traced rounds a first chunk runs under the program's telemetry,
    // and only that one: a session records one span per scored feature
    // per batch. Chunks are dropped once counted, so the stage's peak RSS
    // does not grow with how many fit in the budget.
    if round.traced {
        let chunk = rec.traced(|r| {
            phase(
                r,
                &mut d.client,
                &traffic,
                "serve.saturation",
                SAT_CHUNK,
                Pace::Window(SAT_WINDOW),
            )
        });
        account(&mut out, "traced saturation", &chunk);
        serve_layers(rec, &chunk, &mut out);
    }
    let untraced = Traffic {
        traced: false,
        ..traffic
    };
    let (mut chunks, mut longest) = (0, 0.0f64);
    while chunks == 0 || longest <= round.left() {
        let start = Instant::now();
        let chunk = phase(
            rec,
            &mut d.client,
            &untraced,
            "serve.saturation",
            SAT_CHUNK,
            Pace::Window(SAT_WINDOW),
        );
        longest = longest.max(start.elapsed().as_secs_f64());
        chunks += 1;
        account(&mut out, "saturation", &chunk);
        out.add("serve_sat_rps", chunk.scored_per_s());
    }
    let counts = d.handle.counts();
    out.add("serve.shed", counts.shed as f64);
    out.add("serve.quarantined", counts.quarantined as f64);
    out.add("serve.timeouts", counts.timed_out as f64);
    out.add("serve_peak_rss_mb", crate::stage::peak_rss_mb());

    let summary = d.stop();
    out.info(format!("daemon exit: {}", summary.render()));
    out
}

/// Load the model and bring a daemon up until it answers its first ping.
/// Returns the daemon and the load time; the caller's span times the rest.
/// The client connects before the accept loop starts, so the connection
/// is waiting in the backlog and the first accept takes it at once.
fn cold_start(rec: &mut Recorder, model_path: &Path, schema: &Schema) -> (Daemon, f64) {
    let (model, load) = rec.time("persist.load", |_| {
        FracModel::load(model_path).expect("load the saved model")
    });
    let (server, _) = rec.time("serve.new", |_| {
        Server::new(
            model,
            model_path.to_path_buf(),
            schema.clone(),
            ServeConfig::default(),
        )
        .expect("the model serves its own schema")
    });
    let ((listener, stream), _) = rec.time("serve.bind", |_| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        (
            listener,
            TcpStream::connect(addr).expect("connect to the daemon"),
        )
    });
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve_listener(listener));
    let mut client = Client::new(stream, rec.base()).expect("configure the client socket");
    let (reply, _) = rec.time("serve.first_ping", |_| client.command("ping"));
    let reply = reply.expect("daemon answers its first ping");
    assert_eq!(reply, "ok 1 pong", "unexpected first reply");
    (
        Daemon {
            client,
            handle,
            thread,
        },
        load,
    )
}

/// Run one traffic phase under a span named `name`; in traced runs every
/// request becomes a span under it, carrying the request's `seq`.
fn phase(
    rec: &mut Recorder,
    client: &mut Client,
    t: &Traffic,
    name: &str,
    n: usize,
    pace: Pace,
) -> Phase {
    rec.time(name, |r| {
        let p = client.run(t.lines, t.expected, n, pace);
        if t.traced {
            let parent = r.current();
            for q in &p.requests {
                r.record(
                    "serve.request",
                    parent,
                    q.seq,
                    q.due_ns,
                    q.reply_ns.saturating_sub(q.due_ns),
                );
            }
        }
        p
    })
    .0
}

/// Count a measured phase's requests toward the run totals; a reply whose
/// bits differ from in-process scoring is a correctness failure.
fn account(out: &mut StageReport, what: &str, p: &Phase) {
    out.ops(p.requests.len() as u64, p.failed());
    if p.mismatched() > 0 {
        out.problem(format!(
            "{what}: {} served scores differ from FracModel::score",
            p.mismatched()
        ));
    }
}

/// Daemon-side split of the traced saturation chunk.
fn serve_layers(rec: &Recorder, chunk: &Phase, out: &mut StageReport) {
    let nodes = rec.nodes();
    let selfs = trace::self_times(&nodes);
    let batches = nodes.iter().filter(|n| n.name == "serve_batch").count();
    out.add("serve.batches", batches as f64);
    let scored = chunk.requests.len() as u64 - chunk.failed() - chunk.mismatched();
    out.add("serve.mean_batch", scored as f64 / batches.max(1) as f64);
    out.add(
        "serve.batch_self_s",
        trace::self_total_s(&nodes, &selfs, "serve_batch"),
    );
    out.add(
        "model.score_self_s",
        trace::self_total_s(&nodes, &selfs, "score"),
    );
}

/// In-process costs of the serving path's parts: record parsing and
/// scoring one record or a 64-record batch on the loaded model.
fn score_layers(
    rec: &mut Recorder,
    model: &FracModel,
    test: &Dataset,
    lines: &[Vec<u8>],
    out: &mut StageReport,
) {
    let schema = test.schema();
    let text: Vec<String> = lines
        .iter()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect();
    let one = test.select_rows(&[0]);
    let batch = test.select_rows(&(0..64.min(test.n_rows())).collect::<Vec<_>>());
    for _ in 0..SCORE_REPS / 10 {
        let (ok, s) = rec.time("io.parse_record", |_| {
            text.iter()
                .enumerate()
                .all(|(i, l)| io::parse_record(schema, l, i + 2).is_ok())
        });
        assert!(ok, "test rows parse as wire records");
        out.add("io.parse_record_us", s * 1e6 / text.len() as f64);
        let (_, s) = rec.time("model.score_64", |_| model.score(&batch));
        out.add("model.score64_per_rec_us", s * 1e6 / batch.n_rows() as f64);
    }
    for _ in 0..SCORE_REPS {
        out.add(
            "model.score1_us",
            rec.time("model.score_1", |_| model.score(&one)).1 * 1e6,
        );
    }
}
