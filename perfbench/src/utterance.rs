//! `eesen-utterance`: whole utterances through the BiLSTM network with
//! `ReuseSession::execute_sequence` (reuse across timesteps, state reset
//! per utterance), alternating with the same utterances through
//! `Network::forward_sequence`.

use std::hint::black_box;

use reuse_dnn::nn::Network;
use reuse_dnn::reuse::ReuseSession;
use reuse_dnn::tensor::Tensor;
use reuse_dnn::workloads::{Workload, WorkloadKind};

use crate::checks::relative_error;
use crate::probe::{
    median_per_layer, median_round, nn_span_name, quant_replay, telemetry_span_ms, Captured,
    LayerReport, ReuseFigures, ServeFigures, SignatureFigures, NN_REPEATS,
};
use crate::report::{timed_setup, Metrics, Outcome, Rounds, Tally};
use crate::spans::{Tracer, ROOT};
use crate::stats::timed;
use crate::{compile, Ctx};

/// Timesteps per utterance (about one second of 10 ms frames).
const LEN: usize = 100;
/// Utterances per round (through the session, then the same ones dense).
/// They are generated after a first utterance that calibrates the session;
/// the same ones are checked against the fp32 network and run by the
/// traced `nn` and `quant` probes.
const BLOCK: usize = 16;
/// Error envelope of a reuse utterance against fp32 `forward_sequence`:
/// largest output difference relative to the utterance's largest output
/// magnitude. Quantizing the inputs and hidden states of five stacked
/// BiLSTM layers of random weights costs accuracy by design (EXPERIMENTS.md
/// reports EESEN as the least robust workload); a seed's worst utterance
/// measured up to 0.50 at small scale over seeds 1-40.
pub const ENVELOPE: f64 = 0.75;

fn flat(outs: &[Tensor]) -> Vec<f32> {
    outs.iter()
        .flat_map(|t| t.as_slice().iter().copied())
        .collect()
}

/// One measured round: the [`BLOCK`] utterances of `utts` through the
/// session, each call timed (and spanned when traced), then the same
/// utterances dense, timed as one pass. A call resets the state, so every
/// round does the same work. Rates are in timesteps; latency is per
/// utterance. Returns the round's reuse time per timestep (ms).
fn round(
    session: &mut ReuseSession,
    net: &Network,
    utts: &[Vec<Vec<f32>>],
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    r: &mut Rounds,
) -> f64 {
    let mut latencies = Vec::with_capacity(utts.len());
    for (u, utt) in utts.iter().enumerate() {
        let unit = (r.units as usize + u * LEN) as u32;
        let span = tracer.as_mut().map(|t| t.begin("reuse.call", ROOT, unit));
        let (res, dt) = timed(|| session.execute_sequence(utt));
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        tally.op(res.is_ok());
        black_box(res.ok());
        latencies.push(dt.as_secs_f64() * 1e3);
    }
    let (_, dense) = timed(|| {
        for utt in utts {
            let res = net.forward_sequence(utt);
            tally.op(res.is_ok());
            black_box(res.ok());
        }
    });
    let steps: usize = utts.iter().map(Vec::len).sum();
    let reuse_ms: f64 = latencies.iter().sum();
    r.record(steps, reuse_ms, dense.as_secs_f64() * 1e3, latencies);
    reuse_ms / steps as f64
}

/// Dense passes over whole utterances, layer by layer, [`NN_REPEATS`]
/// times: a recurrent layer's `Layer::forward_sequence` is one span, a
/// frame-wise layer's `Network::apply_layer` over every timestep is one
/// span. Returns each layer's median summed time over the utterances (ms)
/// and, per utterance and timestep, the inputs of the layers `session`
/// quantizes.
fn nn_sequence(
    tracer: &mut Tracer,
    net: &Network,
    session: &ReuseSession,
    utts: &[Vec<Vec<f32>>],
) -> (Vec<f64>, Vec<Vec<Captured>>) {
    let mut repeats = Vec::with_capacity(NN_REPEATS);
    let mut runs = Vec::new();
    for _ in 0..NN_REPEATS {
        let (per_layer_ns, captured) = nn_sequence_pass(tracer, net, session, utts);
        repeats.push(per_layer_ns);
        runs = captured;
    }
    (median_per_layer(&repeats), runs)
}

/// One pass of [`nn_sequence`]: each layer's summed time (ns) and the
/// captured inputs.
fn nn_sequence_pass(
    tracer: &mut Tracer,
    net: &Network,
    session: &ReuseSession,
    utts: &[Vec<Vec<f32>>],
) -> (Vec<u64>, Vec<Vec<Captured>>) {
    let mut per_layer_ns = vec![0u64; net.layers().len()];
    let mut runs = Vec::with_capacity(utts.len());
    for (u, utt) in utts.iter().enumerate() {
        let unit = u as u32;
        let root = tracer.begin("nn.utterance", ROOT, unit);
        let mut captured: Vec<Captured> = vec![Vec::new(); utt.len()];
        let mut xs = utt.clone();
        for (i, (name, layer)) in net.layers().iter().enumerate() {
            if session.quantizer_for(name).is_some() {
                for (c, x) in captured.iter_mut().zip(&xs) {
                    c.push((i, x.clone()));
                }
            }
            let id = tracer.begin(nn_span_name(layer), root, unit);
            xs = if layer.is_recurrent() {
                layer.forward_sequence(&xs).expect("recurrent layer")
            } else {
                xs.into_iter()
                    .map(|x| {
                        let t = Tensor::from_slice_1d(&x).expect("non-empty timestep");
                        net.apply_layer(i, t).expect("frame-wise layer").into_vec()
                    })
                    .collect()
            };
            per_layer_ns[i] += tracer.end(id);
        }
        black_box(&xs);
        tracer.end(root);
        runs.push(captured);
    }
    (per_layer_ns, runs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let kind = WorkloadKind::Eesen;
    let all = Workload::build(kind, ctx.scale).generate_sequences(1 + BLOCK, LEN, ctx.seed);
    let (calibration, utts) = all.split_first().expect("generated utterances");
    let setup = || {
        let w = Workload::build(kind, ctx.scale);
        let (model, compile) = timed(|| compile(&w, w.reuse_config()));
        ((w, model), compile)
    };
    let ((w, model), _) = setup();
    let net = w.network();
    let mut tally = Tally::default();
    let mut session = model.new_session();

    // The first utterance calibrates; the round's utterances are checked
    // against the fp32 network.
    tally.op(session.execute_sequence(calibration).is_ok());
    let mut worst = 0f64;
    for utt in utts {
        let Ok(outs) = session.execute_sequence(utt) else {
            tally.op(false);
            continue;
        };
        let reference = flat(&net.forward_sequence(utt).expect("fp32 reference"));
        let mut out = flat(&outs);
        ctx.perturb.apply(&mut out, &reference);
        let err = relative_error(&out, &reference);
        worst = worst.max(err);
        tally.op(err <= ENVELOPE);
    }
    // Per layer, the MACs performed are the changed inputs times the
    // fan-out: performed / changed == total / inputs.
    let mut identities = 0;
    for l in session
        .metrics()
        .layers
        .iter()
        .filter(|l| l.reuse_executions > 0)
    {
        let changed = u128::from(l.inputs_total - l.inputs_unchanged);
        let ok = u128::from(l.macs_performed) * u128::from(l.inputs_total)
            == changed * u128::from(l.macs_total);
        identities += 1;
        tally.op(ok);
    }
    eprintln!(
        "check: {BLOCK} utterances vs fp32 forward_sequence, worst relative error \
         {worst:.3e} (envelope {ENVELOPE}); MAC identity on {identities} layers"
    );

    let rounds = Rounds::measure(
        ctx.untraced_budget(),
        |r| {
            round(&mut session, net, utts, &mut tally, None, r);
        },
        Some(&mut timed_setup(setup)),
    );
    let end_to_end = rounds.end_to_end();
    if !ctx.trace {
        return Outcome::new(tally, end_to_end, Metrics::default());
    }

    let mut tracer = Tracer::new();
    let config = w
        .reuse_config()
        .clone()
        .telemetry(true)
        .telemetry_window(BLOCK * LEN);
    let mut traced = compile(&w, &config).new_session();
    tally.op(traced.execute_sequence(calibration).is_ok());
    let misses_before = traced.pool_stats().misses;
    // Per traced round: its reuse time per unit and its telemetry spans.
    let mut traced_rounds = Vec::new();
    let traced_measure = Rounds::measure(
        ctx.traced_budget(),
        |r| {
            let ms = round(&mut traced, net, utts, &mut tally, Some(&mut tracer), r);
            traced_rounds.push((ms, telemetry_span_ms(&traced)));
        },
        None,
    );
    let (frame_ms, span_ms) = median_round(&traced_rounds);
    let pool_misses =
        (traced.pool_stats().misses - misses_before) as f64 / traced_measure.units as f64;
    let (nn_layer_ms, captured) = nn_sequence(&mut tracer, net, &traced, utts);
    let quantizer_of = |layer: usize| {
        *traced
            .quantizer_for(&net.layers()[layer].0)
            .expect("captured layers have quantizers")
    };
    let quant = quant_replay(&mut tracer, quantizer_of, &captured);

    let mut reuse = ReuseFigures {
        frame_ms,
        compile_ms: rounds.compile_ms(),
        span_ms,
        pool_misses_per_unit: pool_misses,
        storage_mb: session.reuse_storage_bytes() as f64 / 1e6,
        packed_weight_mb: model.packed_weight_bytes() as f64 / 1e6,
        ..ReuseFigures::default()
    };
    reuse.counters.add(&traced);
    reuse.add_health(&traced);
    let (reuse_unit_ms, dense_unit_ms) = rounds.unit_ms();
    let report = LayerReport {
        net,
        tracer: &tracer,
        nn_units: (BLOCK * LEN) as f64,
        nn_layer_ms: &nn_layer_ms,
        dense_unit_ms,
        reuse_unit_ms,
        traced_reuse_unit_ms: traced_measure.unit_ms().0,
        quant,
        reuse,
        signature: SignatureFigures::default(),
        serve: ServeFigures::default(),
    };
    report.finish("eesen-utterance", ctx.seed, tally, end_to_end)
}
