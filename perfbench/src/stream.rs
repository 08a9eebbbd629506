//! `kaldi-stream` and `autopilot-stream`: one stream, frame by frame,
//! through a warm `ReuseSession` (closed loop, one caller), alternating
//! with blocks of the same frames through `Network::forward_flat`.

use std::hint::black_box;

use reuse_dnn::nn::Network;
use reuse_dnn::reuse::ReuseSession;
use reuse_dnn::workloads::{Workload, WorkloadKind};

use crate::checks::{FfChecks, Perturb};
use crate::probe::{
    feedforward_probes, median_round, telemetry_span_ms, LayerReport, ReuseFigures, ServeFigures,
    SignatureFigures,
};
use crate::report::{timed_setup, Metrics, Outcome, Rounds, Tally};
use crate::spans::{Tracer, ROOT};
use crate::stats::{ping_pong, timed};
use crate::{compile, Ctx};

/// Per-workload sizes.
struct Params {
    /// Generated frames of the warm-up and its checks.
    frames: usize,
    /// Every `check_every`-th warm-up frame is checked.
    check_every: usize,
    /// Largest share of checked frames that may flip (see
    /// [`crate::checks::FF_TIGHT`]).
    max_flip_share: f64,
    /// Frames per round (through the session, then the same frames
    /// dense): one period of a walk forward and back over the first
    /// `block / 2 + 1` generated frames, so every round runs the same
    /// frames in the same order. The traced `nn` and `quant` probes run
    /// one round's frames.
    block: usize,
}

impl Params {
    fn of(kind: WorkloadKind) -> Self {
        match kind {
            // ~0.16 ms/frame with reuse, ~0.27 ms dense at small scale.
            // Flips measured over seeds 1-40: 0-3% of checked frames.
            WorkloadKind::Kaldi => Params {
                frames: 3000,
                check_every: 30,
                max_flip_share: 0.10,
                block: 400,
            },
            // ~6 ms/frame with reuse, ~12 ms dense at small scale. Its one
            // steering output makes flips visible more often: 0-16% of
            // checked frames over seeds 1-40.
            _ => Params {
                frames: 40,
                check_every: 1,
                max_flip_share: 0.35,
                block: 32,
            },
        }
    }
}

/// One measured round: `block` frames of the walk over `walk` through the
/// session, each call timed (and given a `reuse.call` span when traced),
/// then the same frames through `forward_flat`, timed as one pass. Returns
/// the round's reuse time per frame (ms).
fn round(
    session: &mut ReuseSession,
    net: &Network,
    walk: &[Vec<f32>],
    block: usize,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    r: &mut Rounds,
) -> f64 {
    let mut out = Vec::new();
    let mut latencies = Vec::with_capacity(block);
    for k in 0..block {
        let frame = &walk[ping_pong(k, walk.len())];
        let unit = (r.units + k as u64) as u32;
        let span = tracer.as_mut().map(|t| t.begin("reuse.call", ROOT, unit));
        let (res, dt) = timed(|| session.execute_into(frame, &mut out));
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        tally.op(res.is_ok());
        latencies.push(dt.as_secs_f64() * 1e3);
    }
    let (_, dense) = timed(|| {
        for k in 0..block {
            let res = net.forward_flat(&walk[ping_pong(k, walk.len())]);
            tally.op(res.is_ok());
            black_box(res.ok());
        }
    });
    let reuse_ms: f64 = latencies.iter().sum();
    r.record(block, reuse_ms, dense.as_secs_f64() * 1e3, latencies);
    reuse_ms / block as f64
}

/// Runs the generated frames through a fresh session in order. With
/// `checks`, every `check_every`-th output (from the third frame, once the
/// quantizers exist) is compared with the quantized reference.
fn warm(
    session: &mut ReuseSession,
    frames: &[Vec<f32>],
    check_every: usize,
    mut checks: Option<(&mut FfChecks, Perturb)>,
    tally: &mut Tally,
) {
    let mut out = Vec::new();
    for (t, frame) in frames.iter().enumerate() {
        let ok = session.execute_into(frame, &mut out).is_ok();
        tally.op(ok);
        if let Some((c, perturb)) = checks.as_mut() {
            if ok && t >= 2 && t % check_every == 0 {
                c.check(session, frame, &out, *perturb, tally);
            }
        }
    }
}

pub fn run(kind: WorkloadKind, ctx: &Ctx) -> Outcome {
    let p = Params::of(kind);
    // Inputs first: nothing below is timed before they exist.
    let frames = Workload::build(kind, ctx.scale).generate_frames(p.frames, ctx.seed);
    let walk = &frames[..p.block / 2 + 1];
    let setup = || {
        let w = Workload::build(kind, ctx.scale);
        let (model, compile) = timed(|| compile(&w, w.reuse_config()));
        ((w, model), compile)
    };
    let ((w, model), _) = setup();
    let net = w.network();
    let mut tally = Tally::default();
    let mut session = model.new_session();
    let mut checks = FfChecks {
        max_flip_share: p.max_flip_share,
        ..FfChecks::default()
    };
    warm(
        &mut session,
        &frames,
        p.check_every,
        Some((&mut checks, ctx.perturb)),
        &mut tally,
    );
    checks.finish(&mut tally);

    let misses_before = session.pool_stats().misses;
    let rounds = Rounds::measure(
        ctx.untraced_budget(),
        |r| {
            round(&mut session, net, walk, p.block, &mut tally, None, r);
        },
        Some(&mut timed_setup(setup)),
    );
    let end_to_end = rounds.end_to_end();
    if !ctx.trace {
        return Outcome::new(tally, end_to_end, Metrics::default());
    }

    // Traced pass: a telemetry-enabled model, spans around every call.
    let pool_misses = (session.pool_stats().misses - misses_before) as f64 / rounds.units as f64;
    let mut tracer = Tracer::new();
    let config = w
        .reuse_config()
        .clone()
        .telemetry(true)
        .telemetry_window(p.block);
    let mut traced = compile(&w, &config).new_session();
    warm(&mut traced, &frames, p.check_every, None, &mut tally);
    // Per traced round: its reuse time per unit and its telemetry spans.
    let mut traced_rounds = Vec::new();
    let traced_measure = Rounds::measure(
        ctx.traced_budget(),
        |r| {
            let ms = round(
                &mut traced,
                net,
                walk,
                p.block,
                &mut tally,
                Some(&mut tracer),
                r,
            );
            traced_rounds.push((ms, telemetry_span_ms(&traced)));
        },
        None,
    );
    let (frame_ms, span_ms) = median_round(&traced_rounds);
    let probe: Vec<&[f32]> = (0..p.block)
        .map(|k| walk[ping_pong(k, walk.len())].as_slice())
        .collect();
    let (nn_layer_ms, quant) = feedforward_probes(&mut tracer, &traced, &probe);

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
        nn_units: p.block as f64,
        nn_layer_ms: &nn_layer_ms,
        dense_unit_ms,
        reuse_unit_ms,
        traced_reuse_unit_ms: traced_measure.unit_ms().0,
        quant,
        reuse,
        signature: SignatureFigures::default(),
        serve: ServeFigures::default(),
    };
    let name = match kind {
        WorkloadKind::Kaldi => "kaldi-stream",
        _ => "autopilot-stream",
    };
    report.finish(name, ctx.seed, tally, end_to_end)
}
