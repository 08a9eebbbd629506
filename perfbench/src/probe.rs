//! The traced pass's per-layer probes and the per-layer metric list.
//!
//! Every per-layer metric is reported by every workload, 0 where the layer
//! is bypassed (no conv layer in Kaldi, no server outside `kaldi-churn`),
//! so one list describes all of them. Times are per unit (a frame, or a
//! timestep for EESEN) unless the name says otherwise.

use reuse_dnn::nn::{Layer, LayerKind, Network};
use reuse_dnn::quant::{LinearQuantizer, QuantCode};
use reuse_dnn::reuse::{LayerMetrics, ReuseSession};
use reuse_dnn::tensor::Tensor;

use crate::checks::quantized_reference;
use crate::report::{Metrics, Outcome, Tally};
use crate::spans::{Tracer, ROOT};
use crate::stats::{median, ratio};

/// Span name of a layer's dense pass, grouped by kind.
pub fn nn_span_name(layer: &Layer) -> &'static str {
    match layer.kind() {
        LayerKind::Fc => "nn.fc",
        LayerKind::Conv => "nn.conv",
        LayerKind::Recurrent => "nn.lstm",
        _ => "nn.other",
    }
}

/// Dense passes of the `nn` probe over its units. Each layer's time is the
/// median of these passes, as the dense unit time it is compared with is
/// the median of its rounds.
pub const NN_REPEATS: usize = 5;

/// Keeps, per layer, the median of the repeats' summed times (ms).
pub fn median_per_layer(repeats: &[Vec<u64>]) -> Vec<f64> {
    let layers = repeats.first().map_or(0, Vec::len);
    (0..layers)
        .map(|i| {
            let mut ns: Vec<f64> = repeats.iter().map(|r| r[i] as f64).collect();
            median(&mut ns) / 1e6
        })
        .collect()
}

/// Dense fp32 passes over `frames`, one `Network::apply_layer` span per
/// layer under one `nn.frame` span per frame, [`NN_REPEATS`] times.
/// Returns each layer's median summed time over the frames, in ms.
fn nn_feedforward(tracer: &mut Tracer, net: &Network, frames: &[&[f32]]) -> Vec<f64> {
    let repeats: Vec<Vec<u64>> = (0..NN_REPEATS)
        .map(|_| {
            let mut per_layer_ns = vec![0u64; net.layers().len()];
            for (unit, frame) in frames.iter().enumerate() {
                let unit = unit as u32;
                let root = tracer.begin("nn.frame", ROOT, unit);
                let mut t = Tensor::from_vec(net.input_shape().clone(), frame.to_vec())
                    .expect("frame matches the input shape");
                for (i, (_, layer)) in net.layers().iter().enumerate() {
                    let id = tracer.begin(nn_span_name(layer), root, unit);
                    t = net.apply_layer(i, t).expect("feed-forward layer");
                    per_layer_ns[i] += tracer.end(id);
                }
                std::hint::black_box(&t);
                tracer.end(root);
            }
            per_layer_ns
        })
        .collect();
    median_per_layer(&repeats)
}

/// The `nn` and `quant` probes over consecutive feed-forward frames: the
/// dense per-layer pass, then `diff_codes_into` replayed on each
/// reuse-enabled layer's inputs as the quantized reference chain sees them,
/// with `session`'s quantizers. Returns the per-layer dense times (ms).
pub fn feedforward_probes(
    tracer: &mut Tracer,
    session: &ReuseSession,
    frames: &[&[f32]],
) -> (Vec<f64>, QuantFigures) {
    let net = session.network();
    let nn_layer_ms = nn_feedforward(tracer, net, frames);
    let captured: Vec<Captured> = frames
        .iter()
        .map(|f| {
            let mut c = Vec::new();
            quantized_reference(session, f, |layer, xs| c.push((layer, xs.to_vec())));
            c
        })
        .collect();
    let quantizer_of = |layer: usize| {
        *session
            .quantizer_for(&net.layers()[layer].0)
            .expect("captured layers have quantizers")
    };
    let quant = quant_replay(tracer, quantizer_of, &[captured]);
    (nn_layer_ms, quant)
}

/// Captured raw inputs of one unit: `(layer index, values)` per
/// reuse-enabled layer.
pub type Captured = Vec<(usize, Vec<f32>)>;

/// Replays `LinearQuantizer::diff_codes_into` over captured layer inputs,
/// one `quant.diff` span per layer under one `quant.unit` span per unit.
/// The first unit of each run in `runs` seeds the previous codes and is
/// not timed (a sequence reset, or the stream's first frame).
pub fn quant_replay(
    tracer: &mut Tracer,
    quantizer_of: impl Fn(usize) -> LinearQuantizer,
    runs: &[Vec<Captured>],
) -> QuantFigures {
    let mut fig = QuantFigures::default();
    let mut scratch: Vec<QuantCode> = Vec::new();
    let mut changed: Vec<(u32, f32)> = Vec::new();
    for run in runs {
        let Some((first, rest)) = run.split_first() else {
            continue;
        };
        let mut prev: Vec<(LinearQuantizer, Vec<QuantCode>)> = first
            .iter()
            .map(|(layer, xs)| {
                let q = quantizer_of(*layer);
                let codes = q.quantize_slice(xs);
                (q, codes)
            })
            .collect();
        for unit in rest {
            let root = tracer.begin("quant.unit", ROOT, fig.units as u32);
            for ((_, xs), (q, codes)) in unit.iter().zip(prev.iter_mut()) {
                let id = tracer.begin("quant.diff", root, fig.units as u32);
                q.diff_codes_into(xs, codes, &mut scratch, &mut changed);
                tracer.end(id);
                fig.inputs += xs.len() as u64;
                fig.changed += changed.len() as u64;
            }
            tracer.end(root);
            fig.units += 1;
        }
    }
    fig
}

/// Replay results of [`quant_replay`].
#[derive(Debug, Default)]
pub struct QuantFigures {
    pub units: u64,
    pub inputs: u64,
    pub changed: u64,
}

/// Reuse counters summed per layer name over one or more sessions.
#[derive(Debug, Default)]
pub struct ReuseCounters {
    layers: Vec<LayerMetrics>,
}

impl ReuseCounters {
    /// Adds a session's accumulated per-layer metrics.
    pub fn add(&mut self, session: &ReuseSession) {
        for l in &session.metrics().layers {
            match self.layers.iter_mut().find(|m| m.name == l.name) {
                Some(m) => {
                    m.reuse_executions += l.reuse_executions;
                    m.inputs_total += l.inputs_total;
                    m.inputs_unchanged += l.inputs_unchanged;
                    m.macs_total += l.macs_total;
                    m.macs_performed += l.macs_performed;
                }
                None => self.layers.push(l.clone()),
            }
        }
    }

    /// `(macs_total, macs_performed)` per executed unit, summed over layers.
    fn macs_per_unit(&self) -> (f64, f64) {
        self.layers
            .iter()
            .filter(|l| l.reuse_executions > 0)
            .fold((0.0, 0.0), |(t, p), l| {
                let n = l.reuse_executions as f64;
                (t + l.macs_total as f64 / n, p + l.macs_performed as f64 / n)
            })
    }

    /// Share of a layer's MACs that ran, or 1 for layers that never reuse.
    fn performed_share(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|l| l.name == name && l.macs_total > 0)
            .map_or(1.0, |l| l.macs_performed as f64 / l.macs_total as f64)
    }
}

/// Everything the `reuse.*` metrics are computed from.
#[derive(Debug, Default)]
pub struct ReuseFigures {
    /// Traced reuse time per unit (ms).
    pub frame_ms: f64,
    pub compile_ms: f64,
    pub counters: ReuseCounters,
    /// Per-unit sum of the session's per-layer telemetry spans (ms).
    pub span_ms: f64,
    pub pool_misses_per_unit: f64,
    pub rebaselines: u64,
    pub auto_disabled: u64,
    pub storage_mb: f64,
    pub packed_weight_mb: f64,
}

impl ReuseFigures {
    /// Adds a traced session's watchdog rebaselines and auto-disabled
    /// layers.
    pub fn add_health(&mut self, session: &ReuseSession) {
        let snap = session
            .telemetry_snapshot()
            .expect("the traced pass compiles its model with telemetry on");
        self.rebaselines += snap.watchdog.rebaselines;
        self.auto_disabled += snap.layers.iter().filter(|l| l.auto_disabled).count() as u64;
    }
}

/// Per-unit sum of a traced session's per-layer telemetry spans over its
/// telemetry window (ms).
pub fn telemetry_span_ms(session: &ReuseSession) -> f64 {
    session
        .telemetry_snapshot()
        .expect("the traced pass compiles its model with telemetry on")
        .layers
        .iter()
        .map(|l| l.span_ns_window)
        .sum::<f64>()
        / 1e6
}

/// The `(reuse time per unit, telemetry span sum per unit)` of the traced
/// round with the median reuse time: both from one round, so their
/// difference is the time no per-layer span covers.
pub fn median_round(rounds: &[(f64, f64)]) -> (f64, f64) {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    sorted.get(sorted.len() / 2).copied().unwrap_or((0.0, 0.0))
}

/// Signature-cache figures (`kaldi-churn` only).
#[derive(Debug, Default)]
pub struct SignatureFigures {
    pub lookups: u64,
    pub adoptions: u64,
    pub bailouts: u64,
    pub cold_start_ms: f64,
}

/// Serving-tier figures (`kaldi-churn` only).
#[derive(Debug, Default)]
pub struct ServeFigures {
    pub submit_us: f64,
    pub tick_ms: f64,
    pub frames_per_tick: f64,
    pub queue_wait_ms: f64,
    pub drain_us: f64,
    pub evictions: u64,
    pub cold_starts: u64,
    pub frames: u64,
}

/// Inputs to the per-layer metric list.
pub struct LayerReport<'a> {
    pub net: &'a Network,
    pub tracer: &'a Tracer,
    /// Units the `nn` probe ran.
    pub nn_units: f64,
    /// Dense time per layer over the `nn` probe (ms, summed over units).
    pub nn_layer_ms: &'a [f64],
    /// Untraced dense and reuse time per unit (ms).
    pub dense_unit_ms: f64,
    pub reuse_unit_ms: f64,
    /// Traced reuse time per unit (ms), for the tracing overhead.
    pub traced_reuse_unit_ms: f64,
    pub quant: QuantFigures,
    pub reuse: ReuseFigures,
    pub signature: SignatureFigures,
    pub serve: ServeFigures,
}

/// Tolerance of the check that the per-layer dense times add up to the
/// untraced dense unit time: the ratio should lie in this range. A timing
/// check is not counted as an operation, since the host's noise could fail
/// it; outside the range the run warns.
pub const NN_SUM_RANGE: (f64, f64) = (0.8, 1.25);

impl LayerReport<'_> {
    /// The traced run's outcome: its per-layer metrics, with the spans
    /// written out under `workload`'s name.
    pub fn finish(self, workload: &str, seed: u64, tally: Tally, end_to_end: Metrics) -> Outcome {
        let per_layer = self.metrics();
        match self.tracer.write(workload, seed) {
            Ok(path) => eprintln!("spans: {} written to {}", self.tracer.len(), path.display()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
        Outcome::new(tally, end_to_end, per_layer)
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let layers = self.net.layers().iter().zip(self.nn_layer_ms);
        let per_unit = |kind: &str| {
            let ms: f64 = layers
                .clone()
                .filter(|((_, layer), _)| nn_span_name(layer) == kind)
                .map(|(_, ms)| ms)
                .sum();
            ratio(ms, self.nn_units)
        };
        let nn_sum: f64 = self.nn_layer_ms.iter().sum::<f64>() / self.nn_units;
        m.put("nn.fc_ms", per_unit("nn.fc"), "ms");
        m.put("nn.conv_ms", per_unit("nn.conv"), "ms");
        m.put("nn.lstm_ms", per_unit("nn.lstm"), "ms");
        m.put("nn.other_ms", per_unit("nn.other"), "ms");
        let sum_ratio = ratio(nn_sum, self.dense_unit_ms);
        m.put("nn.layer_sum_gap_pct", (sum_ratio - 1.0).abs() * 100.0, "%");
        let in_range = (NN_SUM_RANGE.0..=NN_SUM_RANGE.1).contains(&sum_ratio);
        eprintln!(
            "{}per-layer dense times sum to {sum_ratio:.3}x the untraced dense unit time \
             (stated range {NN_SUM_RANGE:?})",
            if in_range { "check: " } else { "warning: " }
        );

        // Computed from FLOP counts and tensor sizes, not measured traffic.
        let flops = self.net.flops() as f64;
        m.put(
            "tensor.dense_gflops",
            ratio(flops, self.dense_unit_ms * 1e6),
            "GFLOP/s",
        );
        m.put(
            "tensor.dense_weight_mb",
            self.net.model_bytes() as f64 / 1e6,
            "MB",
        );

        let q = &self.quant;
        m.put(
            "quant.diff_ms",
            ratio(self.tracer.total_ms("quant.diff"), q.units as f64),
            "ms",
        );
        m.put("quant.inputs", q.inputs as f64, "count");
        m.put("quant.changed_inputs", q.changed as f64, "count");
        m.put(
            "quant.input_similarity",
            1.0 - ratio(q.changed as f64, q.inputs as f64),
            "ratio",
        );

        let r = &self.reuse;
        let (macs_total, macs_performed) = r.counters.macs_per_unit();
        // Predicted: every layer at its dense time, scaled by the share of
        // its MACs the session actually ran (reuse-off layers at 1).
        let mut predicted_ms = 0.0;
        let mut weight_bytes = 0.0;
        for ((name, layer), ms) in self.net.layers().iter().zip(self.nn_layer_ms) {
            let share = r.counters.performed_share(name);
            predicted_ms += ms / self.nn_units * share;
            weight_bytes += layer.param_count() as f64 * 4.0 * share;
        }
        let predicted = ratio(nn_sum, predicted_ms);
        let achieved = ratio(self.dense_unit_ms, self.reuse_unit_ms);
        m.put("reuse.frame_ms", r.frame_ms, "ms");
        m.put("reuse.compile_ms", r.compile_ms, "ms");
        m.put("reuse.macs_total", macs_total, "count");
        m.put("reuse.macs_performed", macs_performed, "count");
        m.put(
            "reuse.computation_reuse",
            1.0 - ratio(macs_performed, macs_total),
            "ratio",
        );
        m.put("reuse.weight_mb_read", weight_bytes / 1e6, "MB");
        m.put("reuse.predicted_speedup", predicted, "x");
        m.put("reuse.achieved_speedup", achieved, "x");
        m.put("reuse.speedup_gap", ratio(predicted, achieved), "x");
        m.put("reuse.span_ms", r.span_ms, "ms");
        m.put("reuse.unattributed_ms", r.frame_ms - r.span_ms, "ms");
        m.put("reuse.pool_misses", r.pool_misses_per_unit, "count");
        m.put("reuse.rebaselines", r.rebaselines as f64, "count");
        m.put("reuse.auto_disabled", r.auto_disabled as f64, "count");
        m.put("reuse.storage_mb", r.storage_mb, "MB");
        m.put("reuse.packed_weight_mb", r.packed_weight_mb, "MB");

        let s = &self.signature;
        m.put("signature.lookups", s.lookups as f64, "count");
        m.put("signature.adoptions", s.adoptions as f64, "count");
        m.put("signature.bailouts", s.bailouts as f64, "count");
        m.put(
            "signature.adoption_rate",
            ratio(s.adoptions as f64, s.lookups as f64),
            "ratio",
        );
        m.put("signature.cold_start_ms", s.cold_start_ms, "ms");

        let v = &self.serve;
        m.put("serve.submit_us", v.submit_us, "us");
        m.put("serve.tick_ms", v.tick_ms, "ms");
        m.put("serve.frames_per_tick", v.frames_per_tick, "count");
        m.put("serve.queue_wait_ms", v.queue_wait_ms, "ms");
        m.put("serve.drain_us", v.drain_us, "us");
        m.put("serve.evictions", v.evictions as f64, "count");
        m.put("serve.cold_starts", v.cold_starts as f64, "count");
        m.put("serve.frames", v.frames as f64, "count");

        m.put(
            "trace.overhead_pct",
            (ratio(self.traced_reuse_unit_ms, self.reuse_unit_ms) - 1.0) * 100.0,
            "%",
        );
        m
    }
}
