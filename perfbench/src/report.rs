//! Operation tally, metric lists and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats::{median, peak_rss_mb, quantile, ratio, timed};

/// Operations attempted and failed. An operation is one measured execution
/// (a frame, an utterance or a served chunk) or one output check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            !self.0.iter().any(|m| m.0 == name),
            "duplicate metric {name}"
        );
        // A metric is never NaN or infinite, so the JSON line parses, and
        // an empty sum's -0 prints as 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name, value, unit));
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// Filled only by a traced run.
    pub per_layer: Metrics,
}

impl Outcome {
    pub fn new(tally: Tally, end_to_end: Metrics, per_layer: Metrics) -> Self {
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            end_to_end,
            per_layer,
        }
    }

    /// Every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn print_human(&self) {
        for (name, value, unit) in self.end_to_end.0.iter().chain(self.per_layer.0.iter()) {
            eprintln!("  {name:<28} {value:>14.6} {unit}");
        }
        eprintln!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Time between two set-ups of the workload during a measured run.
pub const SETUP_INTERVAL: Duration = Duration::from_secs(1);

/// Turns a workload's set-up, which returns what it built and its model
/// compilation time, into the set-up [`Rounds::measure`] takes: one that
/// drops what it built and returns its wall and compilation times.
pub fn timed_setup<T>(setup: impl Fn() -> (T, Duration)) -> impl FnMut() -> (Duration, Duration) {
    move || {
        let ((_, compile), wall) = timed(&setup);
        (wall, compile)
    }
}

/// One measured round: its units through the reuse pass and through the
/// dense pass, and the reuse pass's per-call latencies.
#[derive(Debug, Clone)]
struct Round {
    units: u64,
    reuse_ms: f64,
    dense_ms: f64,
    latencies_ms: Vec<f64>,
}

/// Measured rounds of one run.
///
/// A round runs one block of the workload through the session, then the
/// same block dense, and every round of a run does the same work: the same
/// frames in the same order, the same utterances, or the same churn
/// schedule on a freshly set-up server. The host shares its cores, and its
/// neighbours slow single rounds down at random; medians over the whole
/// run hold still where the fastest round, an extreme of a noisy sample,
/// does not (in six AutoPilot runs the fastest round's 90th-percentile
/// latency spread 16% across seeds, the whole run's 3%). Every call of
/// every round counts, so costs that recur within a round or across rounds
/// (a periodic refresh, a pool regrowth, a slow call in five) stay in the
/// figures.
#[derive(Debug, Default)]
pub struct Rounds {
    rounds: Vec<Round>,
    /// Per set-up, its wall time (s) and its model compilation time (ms).
    setup_s: Vec<f64>,
    compile_ms: Vec<f64>,
    /// Units run through the reuse pass.
    pub units: u64,
}

impl Rounds {
    /// Runs whole rounds until `budget` is spent. `round` runs one round's
    /// two passes and records it with [`Rounds::record`]. `setup`, when
    /// given, builds the workload afresh after the first round and then
    /// after the first round to end [`SETUP_INTERVAL`] after the last
    /// set-up, and returns its wall and compilation times.
    pub fn measure(
        budget: Duration,
        mut round: impl FnMut(&mut Rounds),
        mut setup: Option<&mut dyn FnMut() -> (Duration, Duration)>,
    ) -> Rounds {
        let mut r = Rounds::default();
        let start = Instant::now();
        let mut last_setup: Option<Instant> = None;
        while start.elapsed() < budget {
            round(&mut r);
            let due = last_setup.is_none_or(|t| t.elapsed() >= SETUP_INTERVAL);
            if let (Some(setup), true) = (setup.as_mut(), due) {
                let (wall, compile) = setup();
                r.record_setup(wall, compile);
                last_setup = Some(Instant::now());
            }
        }
        r
    }

    /// Records one set-up's wall and model compilation times.
    pub fn record_setup(&mut self, wall: Duration, compile: Duration) {
        self.setup_s.push(wall.as_secs_f64());
        self.compile_ms.push(compile.as_secs_f64() * 1e3);
    }

    /// Records one round: `units` through the reuse pass in `reuse_ms` and
    /// through the dense pass in `dense_ms`, with the reuse pass's per-call
    /// (or per-frame) latencies.
    pub fn record(&mut self, units: usize, reuse_ms: f64, dense_ms: f64, latencies_ms: Vec<f64>) {
        self.rounds.push(Round {
            units: units as u64,
            reuse_ms,
            dense_ms,
            latencies_ms,
        });
        self.units += units as u64;
    }

    /// Reuse and dense time per unit (ms), each the median over the rounds.
    pub fn unit_ms(&self) -> (f64, f64) {
        let per_unit = |pass: fn(&Round) -> f64| {
            let mut ms: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| ratio(pass(r), r.units as f64))
                .collect();
            median(&mut ms)
        };
        (per_unit(|r| r.reuse_ms), per_unit(|r| r.dense_ms))
    }

    /// Median compilation time of the set-ups (ms).
    pub fn compile_ms(&self) -> f64 {
        median(&mut self.compile_ms.clone())
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Both
    /// throughputs are the median round's; both latency percentiles are
    /// taken over every call of every round.
    pub fn end_to_end(&self) -> Metrics {
        let (reuse_ms, dense_ms) = self.unit_ms();
        let mut latencies: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let mut m = Metrics::default();
        m.put("setup_s", median(&mut self.setup_s.clone()), "s");
        m.put("frames_per_s", ratio(1e3, reuse_ms), "1/s");
        m.put("dense_frames_per_s", ratio(1e3, dense_ms), "1/s");
        m.put("latency_ms_p50", quantile(&mut latencies, 0.5), "ms");
        m.put("latency_ms_p90", quantile(&mut latencies, 0.9), "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }
}
