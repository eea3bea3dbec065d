//! End-to-end tests of the scoring daemon (`frac_core::serve`):
//!
//! * **Bit-identity.** Scores answered over the wire — single records,
//!   bursts that batch, TCP or pipe — reparse to exactly the bits
//!   [`FracModel::score`] produces on the same rows. Serving is a
//!   deployment change, never a numeric one.
//! * **Fault tolerance.** Malformed lines are quarantined per line with the
//!   offending line number while the connection and daemon survive; a full
//!   admission queue sheds with `busy`; requests that out-wait their
//!   deadline in the queue get a timeout error, not a late answer.
//! * **Hot reload.** `cmd reload` swaps a validated model atomically; a
//!   corrupt or schema-incompatible candidate is rolled back and the old
//!   model keeps answering, bit-identically.
//! * **Accounting.** The exit summary's counters add up: every admitted
//!   request is scored or timed out, everything else is shed/quarantined.

use frac_core::serve::{ServeConfig, ServeSummary, Server};
use frac_core::{FracConfig, FracModel, TrainingPlan};
use frac_dataset::{Dataset, Schema, Value};
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Everything the tests share: a trained model saved to disk, its schema,
/// reference scores, and deliberately bad reload candidates. Trained once.
struct Fixture {
    model_path: PathBuf,
    other_path: PathBuf,
    corrupt_path: PathBuf,
    incompatible_path: PathBuf,
    schema: Schema,
    test: Dataset,
    /// `score()` of the model at `model_path`, loaded back from disk.
    expected: Vec<f64>,
    /// `score()` of the model at `other_path` (valid reload target).
    expected_other: Vec<f64>,
}

fn surrogate(structure_seed: u64) -> (Dataset, Dataset) {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features: 12,
        n_modules: 3,
        relevant_fraction: 0.9,
        anomaly_modules: 1,
        anomaly_shift: 3.0,
        noise_sd: 0.5,
        structure_seed,
        ..ExpressionConfig::default()
    })
    .generate(24, 4, 7);
    let train = data.select_rows(&(0..20).collect::<Vec<_>>());
    let test = data.select_rows(&(20..28).collect::<Vec<_>>());
    (train, test)
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("frac-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = FracConfig::expression();

        let (train, test) = surrogate(77);
        let plan = TrainingPlan::full(train.n_features());
        let (model, _) = FracModel::fit(&train, &plan, &config);
        let model_path = dir.join("model.frac");
        model.save(&model_path).unwrap();

        // A second valid model on the same schema (different structure of
        // the same generator family would change the schema names, so just
        // refit with a different seed via row selection).
        let train2 = train.select_rows(&(0..18).collect::<Vec<_>>());
        let (other, _) = FracModel::fit(&train2, &plan, &config);
        let other_path = dir.join("other.frac");
        other.save(&other_path).unwrap();

        // Corrupt candidate: the model file cut mid-body (fails the CRC
        // trailer check on load).
        let bytes = std::fs::read(&model_path).unwrap();
        let corrupt_path = dir.join("corrupt.frac");
        std::fs::write(&corrupt_path, &bytes[..bytes.len() / 2]).unwrap();

        // Incompatible candidate: a valid model for a *wider* schema, whose
        // targets and design inputs run past the serving schema — it must
        // fail serve validation, not crash the encode pool. (A model for a
        // *narrower* schema is genuinely servable — it scores the features
        // it knows — so width-8 would not be a negative case.)
        let (wide, _) = ExpressionGenerator::new(ExpressionConfig {
            n_features: 16,
            n_modules: 3,
            relevant_fraction: 0.9,
            anomaly_modules: 1,
            anomaly_shift: 3.0,
            noise_sd: 0.5,
            structure_seed: 5,
            ..ExpressionConfig::default()
        })
        .generate(20, 2, 7);
        let wide_train = wide.select_rows(&(0..16).collect::<Vec<_>>());
        let wide_plan = TrainingPlan::full(wide_train.n_features());
        let (wide_model, _) = FracModel::fit(&wide_train, &wide_plan, &config);
        let incompatible_path = dir.join("incompatible.frac");
        wide_model.save(&incompatible_path).unwrap();

        let reloaded = FracModel::load(&model_path).unwrap();
        let expected = reloaded.score(&test);
        let expected_other = FracModel::load(&other_path).unwrap().score(&test);
        Fixture {
            model_path,
            other_path,
            corrupt_path,
            incompatible_path,
            schema: train.schema().clone(),
            test,
            expected,
            expected_other,
        }
    })
}

/// Render row `r` of `ds` as a serve TSV request line. Reals use `{}`
/// (shortest round-trip), so the daemon parses back the exact bits.
fn tsv_line(ds: &Dataset, r: usize) -> String {
    ds.row(r)
        .into_iter()
        .map(|v| match v {
            Value::Real(x) => format!("{x}"),
            Value::Categorical(c) => format!("{c}"),
            Value::Missing => "?".into(),
        })
        .collect::<Vec<_>>()
        .join("\t")
}

fn start_server(cfg: ServeConfig) -> (SocketAddr, thread::JoinHandle<ServeSummary>) {
    let fix = fixture();
    let model = FracModel::load(&fix.model_path).unwrap();
    let server =
        Server::new(model, fix.model_path.clone(), fix.schema.clone(), cfg).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let join = thread::spawn(move || server.serve_listener(listener).unwrap());
    (addr, join)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let writer = stream.try_clone().unwrap();
        Client { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply within the read timeout");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Read `n` replies and index them by their `seq` field. Replies to a
    /// burst interleave (errors are immediate, scores batched), so tests
    /// match by seq instead of arrival order.
    fn recv_by_seq(&mut self, n: usize) -> HashMap<u64, String> {
        let mut replies = HashMap::new();
        for _ in 0..n {
            let line = self.recv();
            let seq: u64 = line
                .split_whitespace()
                .nth(1)
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("reply without a seq: {line}"));
            assert!(replies.insert(seq, line).is_none(), "duplicate reply for seq {seq}");
        }
        replies
    }
}

/// Parse `ns <seq> <score>` and return the score's exact bits.
fn ns_bits(reply: &str) -> u64 {
    let mut parts = reply.split_whitespace();
    assert_eq!(parts.next(), Some("ns"), "expected an ns reply, got: {reply}");
    let _seq = parts.next().unwrap();
    parts.next().unwrap().parse::<f64>().unwrap().to_bits()
}

#[test]
fn tcp_scores_are_bit_identical_to_direct_scoring() {
    let fix = fixture();
    let (addr, join) = start_server(ServeConfig::default());

    // One record at a time, interleaved with pings.
    let mut c = Client::connect(addr);
    let mut seq = 0u64;
    for (r, want) in fix.expected.iter().enumerate() {
        c.send(&tsv_line(&fix.test, r));
        seq += 1;
        let reply = c.recv();
        assert!(reply.starts_with(&format!("ns {seq} ")), "row {r}: {reply}");
        assert_eq!(ns_bits(&reply), want.to_bits(), "row {r} diverged from frac score");
        c.send("cmd ping");
        seq += 1;
        assert_eq!(c.recv(), format!("ok {seq} pong"));
    }

    // The same rows as one burst on a fresh connection (exercises the
    // batched path: one encode pool, many replies).
    let mut burst = Client::connect(addr);
    for r in 0..fix.test.n_rows() {
        burst.send(&tsv_line(&fix.test, r));
    }
    let replies = burst.recv_by_seq(fix.test.n_rows());
    for (r, want) in fix.expected.iter().enumerate() {
        let reply = &replies[&(r as u64 + 1)];
        assert_eq!(ns_bits(reply), want.to_bits(), "burst row {r} diverged");
    }

    burst.send("cmd stop");
    let stop = burst.recv();
    assert!(stop.contains("draining"), "{stop}");
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.scored, 2 * fix.expected.len() as u64);
    assert_eq!(summary.counts.scored, summary.counts.received);
    assert_eq!(summary.counts.quarantined, 0);
    assert!(summary.p99_us >= summary.p50_us);
}

#[test]
fn malformed_lines_are_quarantined_and_everything_survives() {
    let fix = fixture();
    let cfg = ServeConfig { max_line_bytes: 256, ..ServeConfig::default() };
    let (addr, join) = start_server(cfg);
    let mut c = Client::connect(addr);

    // seq 1: binary soup (also invalid UTF-8).
    c.writer.write_all(&[0xff, 0xfe, 0x00, 0x01, b'\n']).unwrap();
    // seq 2: wrong column count.
    c.send("1.0\t2.0");
    // seq 3: unparsable real.
    let mut bad_cell = tsv_line(&fix.test, 0);
    bad_cell.replace_range(..bad_cell.find('\t').unwrap(), "not-a-number");
    c.send(&bad_cell);
    // seq 4: JSON with an unknown key.
    c.send("{\"no_such_gene\": 1.0}");
    // seq 5: oversized line.
    c.send(&"9\t".repeat(400));
    // seq 6: a well-formed record — must still score exactly.
    c.send(&tsv_line(&fix.test, 0));

    let replies = c.recv_by_seq(6);
    assert!(replies[&1].starts_with("err 1 "), "{}", replies[&1]);
    assert!(replies[&1].contains("UTF-8"), "{}", replies[&1]);
    assert!(replies[&2].starts_with("err 2 "), "{}", replies[&2]);
    assert!(replies[&3].starts_with("err 3 "), "{}", replies[&3]);
    assert!(
        replies[&3].contains("line 3"),
        "quarantine reply must name the line: {}",
        replies[&3]
    );
    assert!(replies[&4].starts_with("err 4 "), "{}", replies[&4]);
    assert!(replies[&4].contains("no_such_gene"), "{}", replies[&4]);
    assert!(replies[&5].starts_with("err 5 "), "{}", replies[&5]);
    assert!(replies[&5].contains("256"), "{}", replies[&5]);
    assert_eq!(ns_bits(&replies[&6]), fix.expected[0].to_bits());

    // Header and comment lines pass silently, so `cat train.tsv` works.
    let header = fix
        .schema
        .iter()
        .map(|f| format!("{}:{}", f.name, f.kind))
        .collect::<Vec<_>>()
        .join("\t");
    c.send(&header);
    c.send("# a comment");
    c.send("cmd ping");
    assert_eq!(c.recv(), "ok 9 pong");

    c.send("cmd stop");
    c.recv();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.quarantined, 5);
    assert_eq!(summary.counts.scored, 1);
}

#[test]
fn full_queue_sheds_with_busy_instead_of_buffering() {
    let fix = fixture();
    let cfg = ServeConfig {
        batch_max: 1,
        queue_cap: 1,
        score_delay: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let (addr, join) = start_server(cfg);
    let mut c = Client::connect(addr);
    let n = 8;
    for _ in 0..n {
        c.send(&tsv_line(&fix.test, 0));
    }
    let replies = c.recv_by_seq(n);
    let busy = replies.values().filter(|r| r.starts_with("busy ")).count();
    let scored = replies.values().filter(|r| r.starts_with("ns ")).count();
    assert!(busy >= 1, "a 1-deep queue under an {n}-record burst must shed: {replies:?}");
    assert!(scored >= 1, "admitted requests must still be answered: {replies:?}");
    for reply in replies.values().filter(|r| r.starts_with("ns ")) {
        assert_eq!(ns_bits(reply), fix.expected[0].to_bits(), "shedding altered scores");
    }
    // The daemon is still healthy after shedding.
    c.send("cmd ping");
    assert_eq!(c.recv(), format!("ok {} pong", n + 1));
    c.send("cmd stop");
    c.recv();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.shed, busy as u64);
    assert_eq!(summary.counts.received, n as u64 - busy as u64);
}

#[test]
fn requests_that_outwait_their_deadline_get_a_timeout_error() {
    let fix = fixture();
    let cfg = ServeConfig {
        batch_max: 1,
        score_delay: Some(Duration::from_millis(250)),
        request_timeout: Duration::from_millis(60),
        ..ServeConfig::default()
    };
    let (addr, join) = start_server(cfg);
    let mut c = Client::connect(addr);
    let n = 3;
    for _ in 0..n {
        c.send(&tsv_line(&fix.test, 0));
    }
    let replies = c.recv_by_seq(n);
    let timed_out = replies
        .values()
        .filter(|r| r.starts_with("err ") && r.contains("timed out"))
        .count();
    assert!(
        timed_out >= 1,
        "with batch_max=1 and a 250ms scoring stall, a 60ms deadline must \
         expire in the queue: {replies:?}"
    );
    c.send("cmd ping");
    assert_eq!(c.recv(), format!("ok {} pong", n + 1));
    c.send("cmd stop");
    c.recv();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.timed_out, timed_out as u64);
    assert_eq!(summary.counts.scored + summary.counts.timed_out, summary.counts.received);
}

#[test]
fn reload_validates_swaps_and_rolls_back() {
    let fix = fixture();
    let (addr, join) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    // Baseline: serving the original model.
    c.send(&tsv_line(&fix.test, 0));
    assert_eq!(ns_bits(&c.recv()), fix.expected[0].to_bits());

    // Reload from the remembered path: still the same model.
    c.send("cmd reload");
    let reply = c.recv();
    assert!(reply.starts_with("ok 2 reloaded"), "{reply}");
    c.send(&tsv_line(&fix.test, 1));
    assert_eq!(ns_bits(&c.recv()), fix.expected[1].to_bits());

    // A truncated candidate fails the CRC gate and rolls back.
    c.send(&format!("cmd reload {}", fix.corrupt_path.display()));
    let reply = c.recv();
    assert!(reply.starts_with("err 4 reload failed"), "{reply}");
    assert!(reply.contains("keeping the serving model"), "{reply}");
    c.send(&tsv_line(&fix.test, 2));
    assert_eq!(
        ns_bits(&c.recv()),
        fix.expected[2].to_bits(),
        "rollback must keep serving the old model bit-identically"
    );

    // A valid model for the wrong schema fails compatibility validation.
    c.send(&format!("cmd reload {}", fix.incompatible_path.display()));
    let reply = c.recv();
    assert!(reply.starts_with("err 6 reload failed"), "{reply}");
    c.send(&tsv_line(&fix.test, 3));
    assert_eq!(ns_bits(&c.recv()), fix.expected[3].to_bits());

    // A valid compatible candidate swaps in atomically.
    c.send(&format!("cmd reload {}", fix.other_path.display()));
    let reply = c.recv();
    assert!(reply.starts_with("ok 8 reloaded"), "{reply}");
    c.send(&tsv_line(&fix.test, 0));
    assert_eq!(
        ns_bits(&c.recv()),
        fix.expected_other[0].to_bits(),
        "after a successful reload, scores must come from the new model"
    );

    c.send("cmd stop");
    c.recv();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.reloads, 2);
    assert_eq!(summary.counts.reload_failures, 2);
}

#[test]
fn handle_reload_runs_off_path_and_is_counted() {
    let fix = fixture();
    let model = FracModel::load(&fix.model_path).unwrap();
    let server = Server::new(
        model,
        fix.model_path.clone(),
        fix.schema.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let join = thread::spawn(move || server.serve_listener(listener).unwrap());

    // The SIGHUP path: flag → accept loop → validated background reload.
    handle.request_reload();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.counts().reloads == 0 {
        assert!(std::time::Instant::now() < deadline, "reload never completed");
        thread::sleep(Duration::from_millis(10));
    }

    // Scoring still exact after the background swap (same file).
    let mut c = Client::connect(addr);
    c.send(&tsv_line(&fix.test, 0));
    assert_eq!(ns_bits(&c.recv()), fix.expected[0].to_bits());

    // The SIGTERM path: drain and exit without `cmd stop`.
    handle.request_shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.reloads, 1);
    assert_eq!(summary.counts.scored, 1);
}

/// A `Write` the test can inspect after `serve_pipe` returns.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn pipe_mode_scores_batches_and_drains_on_eof() {
    let fix = fixture();
    let model = FracModel::load(&fix.model_path).unwrap();
    let server = Server::new(
        model,
        fix.model_path.clone(),
        fix.schema.clone(),
        ServeConfig::default(),
    )
    .unwrap();

    // A whole session piped in at once: header, comment, all test rows.
    let mut input = String::new();
    input.push_str(
        &fix.schema
            .iter()
            .map(|f| format!("{}:{}", f.name, f.kind))
            .collect::<Vec<_>>()
            .join("\t"),
    );
    input.push('\n');
    input.push_str("# piped from a file\n");
    for r in 0..fix.test.n_rows() {
        input.push_str(&tsv_line(&fix.test, r));
        input.push('\n');
    }
    let out = SharedBuf::default();
    let summary =
        server.serve_pipe(std::io::Cursor::new(input.into_bytes()), out.clone()).unwrap();

    assert_eq!(summary.counts.scored, fix.test.n_rows() as u64);
    let bytes = out.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let mut got: Vec<(u64, u64)> = text
        .lines()
        .map(|l| {
            let mut parts = l.split_whitespace();
            assert_eq!(parts.next(), Some("ns"), "unexpected pipe reply: {l}");
            let seq: u64 = parts.next().unwrap().parse().unwrap();
            (seq, parts.next().unwrap().parse::<f64>().unwrap().to_bits())
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got.len(), fix.expected.len());
    for (i, (seq, bits)) in got.iter().enumerate() {
        // Header and comment occupy seq 1–2; records start at 3.
        assert_eq!(*seq, i as u64 + 3);
        assert_eq!(*bits, fix.expected[i].to_bits(), "pipe row {i} diverged");
    }
}

/// Read `n` replies in arrival order, checking each is one whole `ns`
/// line: `ns <seq> <score>` and nothing else. Returns `(seq, bits)`.
fn recv_ns_in_order(c: &mut Client, n: usize) -> Vec<(u64, u64)> {
    (0..n)
        .map(|_| {
            let line = c.recv();
            let parts: Vec<&str> = line.split(' ').collect();
            assert!(
                parts.len() == 3 && parts[0] == "ns",
                "expected one whole `ns <seq> <score>` line, got: {line:?}"
            );
            let seq = parts[1].parse().unwrap_or_else(|_| panic!("bad seq: {line:?}"));
            (seq, ns_bits(&line))
        })
        .collect()
}

#[test]
fn a_pipelined_burst_is_answered_in_seq_order() {
    let fix = fixture();
    let (addr, join) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);
    // Three passes over the test rows in one burst: the scorer batches
    // them however they arrive, and the replies must still come back in
    // the order the records were sent.
    let rows: Vec<usize> = (0..3).flat_map(|_| 0..fix.test.n_rows()).collect();
    let mut burst = String::new();
    for &r in &rows {
        burst.push_str(&tsv_line(&fix.test, r));
        burst.push('\n');
    }
    c.writer.write_all(burst.as_bytes()).unwrap();
    let got = recv_ns_in_order(&mut c, rows.len());
    for (k, (&r, &(seq, bits))) in rows.iter().zip(&got).enumerate() {
        assert_eq!(seq, k as u64 + 1, "reply {k} out of order: {got:?}");
        assert_eq!(bits, fix.expected[r].to_bits(), "reply {k} (row {r}) diverged");
    }
    c.send("cmd stop");
    c.recv();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.scored, rows.len() as u64);
}

#[test]
fn connections_sharing_a_batch_each_get_their_own_whole_lines() {
    let fix = fixture();
    let cfg = ServeConfig { score_delay: Some(Duration::from_millis(300)), ..ServeConfig::default() };
    let (addr, join) = start_server(cfg);
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    // A first record holds the scorer in its delay; both bursts queue
    // behind it and are taken as one batch, so the scorer formats replies
    // for two connections at once. `b` sends the rows in reverse, so a
    // reply delivered to the wrong connection carries the wrong bits. The
    // pause lets the scorer take the first record before the bursts
    // arrive; the checks below hold however the records are batched.
    a.send(&tsv_line(&fix.test, 0));
    thread::sleep(Duration::from_millis(100));
    let n = fix.test.n_rows();
    let rows_a: Vec<usize> = (0..n).collect();
    let rows_b: Vec<usize> = (0..n).rev().collect();
    let burst = |rows: &[usize]| {
        rows.iter().map(|&r| tsv_line(&fix.test, r) + "\n").collect::<String>()
    };
    a.writer.write_all(burst(&rows_a).as_bytes()).unwrap();
    b.writer.write_all(burst(&rows_b).as_bytes()).unwrap();

    let got_a = recv_ns_in_order(&mut a, n + 1);
    let got_b = recv_ns_in_order(&mut b, n);
    let want_a: Vec<(u64, u64)> = std::iter::once(0)
        .chain(rows_a)
        .enumerate()
        .map(|(k, r)| (k as u64 + 1, fix.expected[r].to_bits()))
        .collect();
    let want_b: Vec<(u64, u64)> = rows_b
        .iter()
        .enumerate()
        .map(|(k, &r)| (k as u64 + 1, fix.expected[r].to_bits()))
        .collect();
    assert_eq!(got_a, want_a, "connection a's replies");
    assert_eq!(got_b, want_b, "connection b's replies");

    // Nothing else is pending on either connection: the next reply to
    // each is its own ping.
    a.send("cmd ping");
    assert_eq!(a.recv(), format!("ok {} pong", n + 2));
    b.send("cmd ping");
    assert_eq!(b.recv(), format!("ok {} pong", n + 1));
    a.send("cmd stop");
    a.recv();
    let summary = join.join().unwrap();
    assert_eq!(summary.counts.scored, 2 * n as u64 + 1);
    assert_eq!(summary.counts.connections, 2);
}
