//! What a child stage reports to the parent: one record per line on stdout.
//!
//! ```text
//! sample <name> <value>      one measurement of a metric
//! ns <score>                 NS score of the next test row
//! ops <attempted> <failed>   operations counted toward the run's totals
//! problem <text>             a failed correctness check
//! info <text>                context worth printing, e.g. the daemon's exit summary
//! ```
//!
//! The parent pools each metric's samples from every round and summarizes
//! them (see `metrics::Summary`).

use std::collections::BTreeMap;
use std::time::Instant;

/// One stage's round: where it runs in the run and how long it may take.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// 0-based round index; traced rounds rotate their fit order by it.
    pub index: usize,
    pub traced: bool,
    /// When the stage started.
    pub start: Instant,
    /// Seconds the stage may take from `start`. Repeated phases stop
    /// starting new work once it would not end in time; a stage always
    /// does each phase at least once, so a tiny budget can be overrun.
    pub budget: f64,
}

impl Round {
    /// Rounds per run: traced runs do fewer, longer rounds because each
    /// traced round fits three times.
    pub fn count(traced: bool) -> usize {
        if traced {
            2
        } else {
            4
        }
    }

    /// Seconds of the budget left (negative once it is spent).
    pub fn left(&self) -> f64 {
        self.budget - self.start.elapsed().as_secs_f64()
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct StageReport {
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Scores of the test rows, in row order.
    pub ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub info: Vec<String>,
}

impl StageReport {
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn info(&mut self, what: String) {
        self.info.push(what);
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, values) in &self.samples {
            for v in values {
                out.push_str(&format!("sample {name} {v}\n"));
            }
        }
        for v in &self.ns {
            out.push_str(&format!("ns {v}\n"));
        }
        out.push_str(&format!("ops {} {}\n", self.attempted, self.failed));
        for p in &self.problems {
            out.push_str(&format!("problem {}\n", one_line(p)));
        }
        for i in &self.info {
            out.push_str(&format!("info {}\n", one_line(i)));
        }
        out
    }

    pub fn parse(text: &str) -> Result<StageReport, String> {
        let mut r = StageReport::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("unreadable stage output line `{line}`");
            match tag {
                "sample" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    r.add(name, value.parse().map_err(|_| bad())?);
                }
                "ns" => r.ns.push(rest.parse().map_err(|_| bad())?),
                "ops" => {
                    let (a, f) = rest.split_once(' ').ok_or_else(bad)?;
                    r.ops(a.parse().map_err(|_| bad())?, f.parse().map_err(|_| bad())?);
                }
                "problem" => r.problem(rest.to_string()),
                "info" => r.info(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }

    /// Fold in another stage's or round's report.
    pub fn absorb(&mut self, other: StageReport) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        self.ops(other.attempted, other.failed);
        self.problems.extend(other.problems);
        self.info.extend(other.info);
    }
}

fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| {
                    v.split_whitespace()
                        .next()
                        .and_then(|n| n.parse::<f64>().ok())
                })
        })
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_text() {
        let mut r = StageReport::default();
        r.add("train_s", 0.123_456_789);
        r.add("train_s", 0.5);
        r.add("solver.visits", 3.0e6);
        r.ns = vec![1.5, -0.25, 1e-300];
        r.ops(400, 2);
        r.problem("bits\ndiffer".into());
        r.info("daemon exit: scored=80".into());
        let back = StageReport::parse(&r.render()).expect("parses");
        assert_eq!(back.samples, r.samples);
        assert_eq!(
            back.ns.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.ns.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!((back.attempted, back.failed), (400, 2));
        assert_eq!(back.problems, vec!["bits differ".to_string()]);
        assert_eq!(back.info, r.info);
        assert!(StageReport::parse("sample x notanumber").is_err());
    }

    #[test]
    fn absorbed_samples_pool() {
        let mut a = StageReport::default();
        a.add("setup_s", 1.0);
        a.add("setup_s", 9.0);
        let mut b = StageReport::default();
        b.add("setup_s", 2.0);
        b.ops(3, 1);
        a.absorb(b);
        assert_eq!(a.samples["setup_s"], vec![1.0, 9.0, 2.0]);
        assert_eq!((a.attempted, a.failed), (3, 1));
    }
}
