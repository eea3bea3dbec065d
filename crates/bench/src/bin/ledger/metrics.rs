//! Every metric the benchmark reports, with its unit and how its samples
//! are summarized. BENCHMARK.json declares the same names and units; a
//! test keeps the two in step.

use crate::stats::{lower_quartile, median};

/// How a metric's samples from all rounds of a run become its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    Median,
    /// The smallest sample, for an operation whose durations fall in two
    /// modes within one process, in proportions that change from run to
    /// run: the fast mode is the one that repeats.
    Least,
    /// For many short samples of a latency. Interference on a shared host
    /// only ever slows a request down, and a slow spell covers a stretch
    /// of consecutive samples; the least sample would hang on one rare
    /// fast one instead.
    LowerQuartile,
}

impl Summary {
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Summary::Median => median(samples),
            Summary::Least => samples.iter().copied().fold(f64::INFINITY, f64::min),
            Summary::LowerQuartile => lower_quartile(samples),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        summary: Summary::Median,
    }
}

const fn least(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        summary: Summary::Least,
    }
}

const fn quartile(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        summary: Summary::LowerQuartile,
    }
}

/// Reported with tracing off: what a user of `frac pack`, `frac train`
/// and `frac serve` sees.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s"),
    m("train_s", "s"),
    m("train_peak_rss_mb", "MB"),
    least("cold_start_s", "s"),
    quartile("serve_p50_us", "us"),
    m("serve_sat_rps", "rec/s"),
    m("serve_peak_rss_mb", "MB"),
];

/// Reported by traced runs, one group per module (layer), plus the open
/// loop's p99 under arrival load, too noisy to bound (see README.md).
pub const PER_LAYER: [Metric; 46] = [
    m("fcb.pack_s", "s"),
    m("fcb.open_s", "s"),
    m("fcb.file_bytes", "bytes"),
    m("io.read_tsv_s", "s"),
    m("io.parse_record_us", "us"),
    m("design.encode_s", "s"),
    m("design.encoded_cells", "count"),
    m("entropy.feature_entropies_s", "s"),
    m("entropy.self_s", "s"),
    m("learn.fit_self_s", "s"),
    m("solver.solves", "count"),
    m("solver.epochs", "count"),
    m("solver.visits", "count"),
    m("solver.gram_solves", "count"),
    m("solver.gram_builds", "count"),
    m("solver.pack_reuses", "count"),
    m("cv.fold_self_s", "s"),
    m("tree.grows", "count"),
    m("tree.nodes", "count"),
    m("model.final_train_self_s", "s"),
    m("model.error_model_s", "s"),
    m("model.flops", "count"),
    m("model.peak_bytes", "bytes"),
    m("model.score1_us", "us"),
    m("model.score64_per_rec_us", "us"),
    m("model.score_self_s", "s"),
    m("model.auc", "1"),
    m("journal.append_s", "s"),
    m("journal.bytes", "bytes"),
    m("journal.overhead_frac", "1"),
    m("persist.save_s", "s"),
    m("persist.load_s", "s"),
    m("persist.model_bytes", "bytes"),
    m("serve.ready_s", "s"),
    m("serve.p99_us", "us"),
    m("serve.daemon_p50_us", "us"),
    m("serve.daemon_p99_us", "us"),
    m("serve.batches", "count"),
    m("serve.mean_batch", "rec"),
    m("serve.batch_self_s", "s"),
    m("serve.shed", "count"),
    m("serve.quarantined", "count"),
    m("serve.timeouts", "count"),
    m("gen.late_max_ms", "ms"),
    m("trace.overhead_frac", "1"),
    m("trace.unattributed_frac", "1"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(Summary::Median.of(&xs), 2.5);
        assert_eq!(Summary::Least.of(&xs), 1.0);
        assert_eq!(Summary::LowerQuartile.of(&xs), 1.0);
    }
}
