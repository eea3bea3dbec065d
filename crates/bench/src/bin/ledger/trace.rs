//! Benchmark-side trace.
//!
//! Every call the benchmark times from outside (pack, open, fit, save, load,
//! each serve request) is kept in memory as a [`Span`]: name, start, end,
//! parent, and for serve requests the wire `seq` the daemon's reply echoes.
//! Around the calls it traces, the benchmark also runs the program's own
//! [`TelemetrySession`]; [`Recorder::nodes`] merges those spans into the same
//! tree, hanging each telemetry root span under the innermost benchmark span
//! that contains it in time. Self time is then computed from parent links by
//! [`self_times`].
//!
//! The trace file is the program's telemetry v1 TSV (so `frac
//! inspect-telemetry` reads it), with the benchmark spans added as comment
//! records the parser skips:
//!
//! ```text
//! # bench <id> <parent> <seq> <name> <start_ns> <dur_ns>
//! ```

use frac_learn::solver::stats::SolverStats;
use frac_learn::telemetry::{Counter, SpanRecord, TelemetryReport, TelemetrySession};
use std::collections::HashMap;
use std::time::Instant;

/// Benchmark span ids carry this bit, so they never collide with telemetry
/// span ids (`thread << 40 | sequence`).
const BENCH_ID: u64 = 1 << 63;

/// Process tags are stored in id bits 56..62 (and added to the telemetry
/// thread index), so spans from the two child processes of one workload
/// stay distinct in the merged trace.
const TAG_SHIFT: u32 = 56;
const THREAD_TAG: u32 = 1 << 20;

/// One outside-timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the trace.
    pub id: u64,
    /// Enclosing span; 0 for a root.
    pub parent: u64,
    /// Wire `seq` of a serve request; 0 for every other span.
    pub seq: u64,
    /// `layer.call`, e.g. `fcb.pack_tsv`.
    pub name: String,
    /// Nanoseconds from the recorder's base.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Records benchmark spans and the telemetry sessions run under them.
pub struct Recorder {
    base: Instant,
    next: u64,
    stack: Vec<u64>,
    /// Closed benchmark spans.
    pub spans: Vec<Span>,
    /// `(offset of the session's time base from ours, its report)`.
    pub sessions: Vec<(u64, TelemetryReport)>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            base: Instant::now(),
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            sessions: Vec::new(),
        }
    }

    /// The recorder's time base; load-generator threads measure against it.
    pub fn base(&self) -> Instant {
        self.base
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The innermost open span (0 when none).
    pub fn current(&self) -> u64 {
        self.stack.last().copied().unwrap_or(0)
    }

    fn alloc(&mut self) -> u64 {
        self.next += 1;
        BENCH_ID | self.next
    }

    /// Run `f` as a span named `name` under the innermost open span. Returns
    /// `f`'s result and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.alloc();
        let parent = self.current();
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.stack.pop();
        let start_ns = start.duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            seq: 0,
            name: name.to_string(),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
        (out, dur.as_secs_f64())
    }

    /// Keep a span measured elsewhere (a serve request, timed by the load
    /// generator against [`Recorder::base`]).
    pub fn record(&mut self, name: &str, parent: u64, seq: u64, start_ns: u64, dur_ns: u64) {
        let id = self.alloc();
        self.spans.push(Span {
            id,
            parent,
            seq,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
    }

    /// Run `f` under the program's telemetry session and keep its report.
    pub fn traced<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let offset = self.now_ns();
        let session =
            TelemetrySession::start().expect("the benchmark runs one telemetry session at a time");
        let out = f(self);
        self.sessions.push((offset, session.finish()));
        out
    }

    /// Benchmark and telemetry spans as one tree on this recorder's clock.
    pub fn nodes(&self) -> Vec<Node<'_>> {
        let mut nodes: Vec<Node> = self.spans.iter().map(Node::from_bench).collect();
        // Containers for telemetry roots: calls, not individual requests.
        let mut calls: Vec<&Span> = self.spans.iter().filter(|s| s.seq == 0).collect();
        calls.sort_by_key(|s| s.start_ns);
        for (offset, report) in &self.sessions {
            for s in &report.spans {
                let start = offset + s.start_ns;
                let end = start + s.dur_ns;
                let parent = if s.parent != 0 {
                    s.parent
                } else {
                    // Innermost = the latest-starting call that contains it.
                    calls
                        .iter()
                        .rev()
                        .skip_while(|c| c.start_ns > start)
                        .find(|c| c.start_ns + c.dur_ns >= end)
                        .map_or(0, |c| c.id)
                };
                nodes.push(Node {
                    id: s.id,
                    parent,
                    name: s.stage.as_str(),
                    start,
                    end,
                });
            }
        }
        nodes
    }

    /// This process's part of the workload trace: every session's spans
    /// shifted onto the recorder's clock, counters merged, plus the
    /// benchmark spans. `tag` (1, 2, …) keeps ids distinct from the other
    /// processes' parts.
    pub fn render_part(&self, tag: u64, notes: Vec<(String, String)>) -> String {
        let mut report = TelemetryReport {
            wall_ns: self.now_ns(),
            notes,
            ..TelemetryReport::default()
        };
        let retag = |id: u64| if id == 0 { 0 } else { id | (tag << TAG_SHIFT) };
        for (offset, r) in &self.sessions {
            merge_totals(&mut report, r);
            report.spans.extend(r.spans.iter().map(|s| SpanRecord {
                id: retag(s.id),
                parent: retag(s.parent),
                thread: s.thread + tag as u32 * THREAD_TAG,
                start_ns: offset + s.start_ns,
                ..*s
            }));
        }
        let bench: Vec<Span> = self
            .spans
            .iter()
            .map(|s| Span {
                id: retag(s.id),
                parent: retag(s.parent),
                ..s.clone()
            })
            .collect();
        render(&report, &bench)
    }
}

/// Add `r`'s counters and solver statistics into `into`.
fn merge_totals(into: &mut TelemetryReport, r: &TelemetryReport) {
    for (i, c) in Counter::ALL.iter().enumerate() {
        into.counters[i] = c.merge(into.counters[i], r.counters[i]);
    }
    let (a, b) = (&mut into.solver, &r.solver);
    *a = SolverStats {
        solves: a.solves + b.solves,
        epochs: a.epochs + b.epochs,
        visits: a.visits + b.visits,
        dense_slots: a.dense_slots + b.dense_slots,
        gram_solves: a.gram_solves + b.gram_solves,
        gram_builds: a.gram_builds + b.gram_builds,
        pack_reuses: a.pack_reuses + b.pack_reuses,
    };
}

fn render(report: &TelemetryReport, bench: &[Span]) -> String {
    let mut out = report.write_tsv();
    out.push_str("# bench\tid\tparent\tseq\tname\tstart_ns\tdur_ns\n");
    for s in bench {
        out.push_str(&format!(
            "# bench\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, s.parent, s.seq, s.name, s.start_ns, s.dur_ns
        ));
    }
    out
}

fn parse_bench_line(line: &str) -> Option<Span> {
    let f: Vec<&str> = line.strip_prefix("# bench\t")?.split('\t').collect();
    if f.len() != 6 {
        return None;
    }
    Some(Span {
        id: f[0].parse().ok()?,
        parent: f[1].parse().ok()?,
        seq: f[2].parse().ok()?,
        name: f[3].to_string(),
        start_ns: f[4].parse().ok()?,
        dur_ns: f[5].parse().ok()?,
    })
}

/// One workload trace from the parent's spans and its children's parts.
/// Each part is `(its offset on the parent's clock, the span that ran it,
/// its text)`; its spans are shifted by the offset and its root benchmark
/// spans hung under that span.
pub fn merge_parts(
    parent: &Recorder,
    parts: &[(u64, u64, String)],
    notes: Vec<(String, String)>,
) -> Result<String, String> {
    let mut report = TelemetryReport {
        wall_ns: parent.now_ns(),
        notes,
        ..TelemetryReport::default()
    };
    let mut bench = parent.spans.clone();
    for (offset, under, text) in parts {
        let r = TelemetryReport::parse_tsv(text)?;
        merge_totals(&mut report, &r);
        report.notes.extend(r.notes.iter().cloned());
        report.spans.extend(r.spans.iter().map(|s| SpanRecord {
            start_ns: offset + s.start_ns,
            ..*s
        }));
        for s in text.lines().filter_map(parse_bench_line) {
            let parent = if s.parent == 0 { *under } else { s.parent };
            bench.push(Span {
                parent,
                start_ns: offset + s.start_ns,
                ..s
            });
        }
    }
    Ok(render(&report, &bench))
}

/// A span of the merged tree, by interval.
#[derive(Debug)]
pub struct Node<'a> {
    pub id: u64,
    pub parent: u64,
    pub name: &'a str,
    pub start: u64,
    pub end: u64,
}

impl Node<'_> {
    fn from_bench(s: &Span) -> Node<'_> {
        Node {
            id: s.id,
            parent: s.parent,
            name: &s.name,
            start: s.start_ns,
            end: s.start_ns + s.dur_ns,
        }
    }
}

/// Self time of every node, in input order: its duration minus the part of
/// its interval that its children (by parent link) cover. Children running
/// in parallel on other threads cover an instant once, not once each.
pub fn self_times(nodes: &[Node]) -> Vec<u64> {
    let index: HashMap<u64, usize> = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes.len()];
    for n in nodes {
        if let Some(&p) = index.get(&n.parent) {
            children[p].push((n.start, n.end));
        }
    }
    nodes
        .iter()
        .zip(children.iter_mut())
        .map(|(n, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, n.start);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(n.end));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (n.end - n.start).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time (seconds) of the nodes named `name`.
pub fn self_total_s(nodes: &[Node], selfs: &[u64], name: &str) -> f64 {
    nodes
        .iter()
        .zip(selfs)
        .filter(|(n, _)| n.name == name)
        .map(|(_, &s)| s)
        .sum::<u64>() as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64, parent: u64, start: u64, end: u64) -> Node<'static> {
        const NAMES: [&str; 7] = ["", "n1", "n2", "n3", "n4", "n5", "n6"];
        Node {
            id,
            parent,
            name: NAMES[id as usize],
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // 1: [0, 100) has children 2: [10, 40) and 3: [30, 60) (overlapping,
        // as on two threads) and 4: [90, 120) (clipped to the parent's end).
        // 2 has one child 5: [15, 25). 6 is an unrelated root.
        let nodes = vec![
            node(1, 0, 0, 100),
            node(2, 1, 10, 40),
            node(3, 1, 30, 60),
            node(4, 1, 90, 120),
            node(5, 2, 15, 25),
            node(6, 0, 200, 210),
        ];
        let selfs = self_times(&nodes);
        // 1 loses [10, 60) and [90, 100): 100 − 60 = 40.
        assert_eq!(selfs, vec![40, 20, 30, 30, 10, 10]);
        assert_eq!(self_total_s(&nodes, &selfs, "n2"), 20e-9);
    }

    #[test]
    fn telemetry_roots_hang_under_the_innermost_call() {
        let mut rec = Recorder::new();
        let outer = rec.alloc();
        let inner = rec.alloc();
        rec.spans.push(Span {
            id: outer,
            parent: 0,
            seq: 0,
            name: "outer".into(),
            start_ns: 0,
            dur_ns: 1000,
        });
        rec.spans.push(Span {
            id: inner,
            parent: outer,
            seq: 0,
            name: "inner".into(),
            start_ns: 100,
            dur_ns: 500,
        });
        // A request span must not adopt telemetry spans.
        rec.record("request", inner, 7, 150, 100);
        let span = |id, parent, start_ns, dur_ns| SpanRecord {
            id,
            parent,
            thread: 1,
            target: -1,
            stage: frac_learn::telemetry::Stage::Score,
            start_ns,
            dur_ns,
        };
        let report = TelemetryReport {
            spans: vec![
                span(11, 0, 60, 20),
                span(12, 11, 65, 5),
                span(13, 0, 800, 50),
            ],
            ..TelemetryReport::default()
        };
        rec.sessions.push((100, report));
        let nodes = rec.nodes();
        let parent_of = |id| nodes.iter().find(|n| n.id == id).map(|n| n.parent);
        assert_eq!(parent_of(11), Some(inner), "[160, 180) lies inside `inner`");
        assert_eq!(
            parent_of(12),
            Some(11),
            "nested telemetry spans keep their parent"
        );
        assert_eq!(
            parent_of(13),
            Some(outer),
            "[900, 950) is only inside `outer`"
        );
    }

    #[test]
    fn merged_trace_reads_back_as_telemetry_v1() {
        let mut child = Recorder::new();
        child.time("fcb.pack_tsv", |_| ());
        let mut report = TelemetryReport::default();
        report.counters[0] = 5;
        child.sessions.push((10, report));
        let part = child.render_part(1, vec![("stage".into(), "train".into())]);
        let mut parent = Recorder::new();
        let ((), _) = parent.time("stage.train", |_| ());
        let under = parent.spans[0].id;
        let merged = merge_parts(
            &parent,
            &[(1000, under, part.clone()), (2000, under, part)],
            Vec::new(),
        )
        .expect("parts parse");
        let back = TelemetryReport::parse_tsv(&merged).expect("merged trace is telemetry v1");
        assert_eq!(
            back.counter(Counter::SolverEpochs),
            10,
            "counters add across parts"
        );
        let bench: Vec<Span> = merged.lines().filter_map(parse_bench_line).collect();
        assert_eq!(bench.len(), 3);
        assert!(bench[1..]
            .iter()
            .all(|s| s.parent == under && s.name == "fcb.pack_tsv"));
        assert_eq!(bench[2].start_ns - bench[1].start_ns, 1000);
    }
}
