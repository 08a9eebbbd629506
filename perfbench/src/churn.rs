//! `kaldi-churn`: a fixed population of concurrent Kaldi streams through a
//! `ShardedServer`, driven from one thread with `submit` / `tick_all` /
//! `drain_outputs`.
//!
//! Closed loop: in each serving round a seeded choice of [`ACTIVE`] of the
//! [`POPULATION`] streams each submits its next chunk, and the serving
//! round ends when every chunk is drained, so no stream sends before it has
//! drained its last chunk. A stream ends after one utterance and a new
//! stream (a new id, with an utterance of its own) takes its place. The
//! session pool is smaller than the population, so streams are evicted and
//! start cold again; the signature cache is on. A measured round sets the
//! workload up afresh and serves the same schedule of [`BLOCK_ROUNDS`]
//! serving rounds, then serves it again on a server whose model runs every
//! layer with reuse off.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_dnn::reuse::{CompiledModel, ReuseConfig, ReuseSession, SignatureStats};
use reuse_dnn::serve::{ServerConfig, ShardedServer, ShardedSnapshot, SubmitResult};
use reuse_dnn::workloads::{Workload, WorkloadKind};

use crate::checks::bit_identical;
use crate::probe::{
    feedforward_probes, telemetry_span_ms, LayerReport, ReuseFigures, ServeFigures,
    SignatureFigures,
};
use crate::report::{Metrics, Outcome, Rounds, Tally};
use crate::spans::{Tracer, ROOT};
use crate::stats::{ratio, timed};
use crate::{compile, Ctx};

/// Concurrent streams.
const POPULATION: usize = 12;
/// Streams that submit a chunk in one serving round. At most the per-shard
/// pool, so a submit never evicts a stream whose chunk is still queued.
const ACTIVE: usize = 4;
/// Shards, and sessions per shard: a pool of 8 for 12 streams.
const SHARDS: usize = 2;
const SESSIONS_PER_SHARD: usize = 4;
/// Frames per chunk; one tick completes a whole chunk.
const CHUNK: usize = 8;
/// Chunks per utterance, after which a stream ends.
const CHUNKS: usize = 6;
/// Serving rounds per measured round (reuse server, then the same serving
/// rounds dense).
const BLOCK_ROUNDS: usize = 50;
/// Serving rounds of the output check. Its cache inserts (at most one per
/// reuse layer and cold start: 4 × 4 × 24 = 384) stay under the cache's
/// 1024 entries, so no entry a twin needs is evicted before the twin reads
/// it.
const CHECK_ROUNDS: usize = 24;
/// Streams a schedule starts within [`BLOCK_ROUNDS`] serving rounds (the
/// check's fewer rounds start fewer): the first population, plus one for
/// every utterance that ends. Each gets an utterance of its own.
const STREAMS: usize = POPULATION + (ACTIVE * BLOCK_ROUNDS).div_ceil(CHUNKS);
const _: () = assert!(CHECK_ROUNDS <= BLOCK_ROUNDS);

/// One stream's chunk in a round.
#[derive(Debug, Clone, Copy)]
struct Turn {
    id: u64,
    chunk: usize,
}

/// The seeded round generator: which streams submit, and their chunks.
struct Schedule {
    rng: u64,
    slots: [Turn; POPULATION],
    next_id: u64,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        let mut slots = [Turn { id: 0, chunk: 0 }; POPULATION];
        for (i, s) in slots.iter_mut().enumerate() {
            s.id = i as u64;
        }
        Schedule {
            rng: seed ^ 0x6368_7572_6e00_0000, // "churn"
            slots,
            next_id: POPULATION as u64,
        }
    }

    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn round(&mut self) -> [Turn; ACTIVE] {
        let mut order: [usize; POPULATION] = std::array::from_fn(|i| i);
        let mut turns = [Turn { id: 0, chunk: 0 }; ACTIVE];
        for (k, turn) in turns.iter_mut().enumerate() {
            let j = k + (self.next() % (POPULATION - k) as u64) as usize;
            order.swap(k, j);
            let slot = &mut self.slots[order[k]];
            *turn = *slot;
            slot.chunk += 1;
            if slot.chunk == CHUNKS {
                *slot = Turn {
                    id: self.next_id,
                    chunk: 0,
                };
                self.next_id += 1;
            }
        }
        turns
    }
}

/// One generated utterance per stream id.
struct Inputs {
    utterances: Vec<Vec<Vec<f32>>>,
}

impl Inputs {
    /// Frame `k` of `turn`'s chunk.
    fn frame(&self, turn: Turn, k: usize) -> &[f32] {
        &self.utterances[turn.id as usize][turn.chunk * CHUNK + k]
    }
}

fn signature_sum(snap: &ShardedSnapshot) -> SignatureStats {
    snap.shards
        .iter()
        .fold(SignatureStats::default(), |mut acc, s| {
            acc.lookups += s.signature.lookups;
            acc.adoptions += s.signature.adoptions;
            acc.bailouts += s.signature.bailouts;
            acc
        })
}

fn new_server(model: &Arc<CompiledModel>) -> ShardedServer {
    ShardedServer::new(
        Arc::clone(model),
        ServerConfig::default()
            .max_sessions(SESSIONS_PER_SHARD)
            .queue_capacity(CHUNK)
            .batch_max(CHUNK),
        SHARDS,
    )
    .expect("feed-forward serving configuration")
}

/// Serving-tier accumulators of a traced pass.
#[derive(Default)]
struct ServeAcc {
    /// Serving rounds, the unit of the serving spans.
    rounds: u32,
    submits: u64,
    ticks: u64,
    drains: u64,
    frames: u64,
    queue_wait_ms: f64,
    evictions: u64,
    cold_starts: u64,
}

/// Serves one round: submits every turn's chunk, ticks until every chunk
/// is drained, and records each frame's submit-to-drain latency. One
/// operation per turn. With a tracer, spans cover each submit, tick and
/// drain under one `serve.round` span.
fn serve_round(
    server: &ShardedServer,
    inputs: &Inputs,
    turns: &[Turn],
    latencies_ms: &mut Vec<f64>,
    tally: &mut Tally,
    mut tracer: Option<(&mut Tracer, &mut ServeAcc)>,
) {
    let round = tracer.as_mut().map_or(0, |(_, acc)| {
        acc.rounds += 1;
        acc.rounds
    });
    let root = tracer
        .as_mut()
        .map_or(ROOT, |(t, _)| t.begin("serve.round", ROOT, round));
    let mut submitted = [[Instant::now(); CHUNK]; ACTIVE];
    let mut accepted = [true; ACTIVE];
    for ((&turn, at), ok) in turns.iter().zip(&mut submitted).zip(&mut accepted) {
        for (k, at) in at.iter_mut().enumerate() {
            let frame = inputs.frame(turn, k);
            let span = tracer
                .as_mut()
                .map(|(t, _)| t.begin("serve.submit", root, round));
            *at = Instant::now();
            let r = server.submit(turn.id, frame);
            if let Some((t, acc)) = tracer.as_mut() {
                t.end(span.expect("opened above"));
                acc.submits += 1;
            }
            *ok &= matches!(r, Ok(SubmitResult::Accepted));
        }
    }
    let mut drained = [0usize; ACTIVE];
    let mut sink = 0f32;
    // One tick completes every chunk; the bound only stops a server that
    // never completes one.
    for _ in 0..4 * CHUNK {
        if drained.iter().all(|&d| d == CHUNK) {
            break;
        }
        let tick_start = Instant::now();
        let span = tracer
            .as_mut()
            .map(|(t, _)| t.begin("serve.tick", root, round));
        let ok = server.tick_all().is_ok();
        if let Some((t, acc)) = tracer.as_mut() {
            t.end(span.expect("opened above"));
            acc.ticks += 1;
        }
        if !ok {
            accepted = [false; ACTIVE];
        }
        for (i, turn) in turns.iter().enumerate() {
            let span = tracer
                .as_mut()
                .map(|(t, _)| t.begin("serve.drain", root, round));
            let n = server.drain_outputs(turn.id, |out| sink += out[0]);
            let now = Instant::now();
            let done = &submitted[i][drained[i]..(drained[i] + n).min(CHUNK)];
            latencies_ms.extend(done.iter().map(|at| (now - *at).as_secs_f64() * 1e3));
            if let Some((t, acc)) = tracer.as_mut() {
                t.end(span.expect("opened above"));
                acc.drains += 1;
                acc.frames += n as u64;
                acc.queue_wait_ms += done
                    .iter()
                    .map(|at| tick_start.saturating_duration_since(*at).as_secs_f64() * 1e3)
                    .sum::<f64>();
            }
            drained[i] += n;
        }
    }
    black_box(sink);
    for (ok, d) in accepted.iter().zip(drained) {
        tally.op(*ok && d == CHUNK);
    }
    if let Some((t, _)) = tracer.as_mut() {
        t.end(root);
    }
}

/// What every measured round of the churn shares.
struct Churn<'a> {
    inputs: &'a Inputs,
    dense_model: &'a Arc<CompiledModel>,
    seed: u64,
}

impl Churn<'_> {
    /// One measured round: sets the workload up with `setup` (recorded as
    /// a set-up), serves [`BLOCK_ROUNDS`] serving rounds of the seed's
    /// schedule on its server, then the same serving rounds on a fresh
    /// dense server, and checks both servers' accounting. Every round
    /// starts from empty servers and an empty signature cache and serves
    /// the same schedule, so every round does the same work.
    fn round(
        &self,
        setup: &dyn Fn() -> (ShardedServer, Duration),
        tally: &mut Tally,
        mut tracer: Option<(&mut Tracer, &mut ServeAcc)>,
        r: &mut Rounds,
    ) {
        let ((server, compile), wall) = timed(setup);
        r.record_setup(wall, compile);
        let dense = new_server(self.dense_model);
        let mut schedule = Schedule::new(self.seed);
        let rounds: Vec<[Turn; ACTIVE]> = (0..BLOCK_ROUNDS).map(|_| schedule.round()).collect();
        let frames = BLOCK_ROUNDS * ACTIVE * CHUNK;
        let mut latencies = Vec::with_capacity(frames);
        let (_, reuse) = timed(|| {
            for turns in &rounds {
                let tr = tracer.as_mut().map(|(t, a)| (&mut **t, &mut **a));
                serve_round(&server, self.inputs, turns, &mut latencies, tally, tr);
            }
        });
        let mut dense_latencies = Vec::with_capacity(frames);
        let (_, dense_time) = timed(|| {
            for turns in &rounds {
                serve_round(
                    &dense,
                    self.inputs,
                    turns,
                    &mut dense_latencies,
                    tally,
                    None,
                );
            }
        });
        r.record(
            frames,
            reuse.as_secs_f64() * 1e3,
            dense_time.as_secs_f64() * 1e3,
            latencies,
        );
        let snap = server.snapshot();
        check_accounting(&snap, frames as u64, tally);
        check_accounting(&dense.snapshot(), frames as u64, tally);
        if let Some((_, acc)) = tracer {
            let evictions: u64 = snap.shards.iter().map(|s| s.evictions).sum();
            acc.evictions += evictions;
            acc.cold_starts += evictions + snap.active_streams() as u64;
        }
    }
}

/// The snapshot's accounting identities, one operation each: every offered
/// frame was accepted or rejected, and every accepted frame completed.
fn check_accounting(snap: &ShardedSnapshot, offered: u64, tally: &mut Tally) {
    let rejected = snap.rejected_queue_full() + snap.shed() + snap.deadline_shed();
    let accepted = snap.frames_submitted();
    let completed = snap.frames_completed();
    tally.op(offered == accepted + rejected);
    tally.op(accepted == completed);
    if offered != accepted + rejected || accepted != completed {
        eprintln!(
            "check: accounting broken: offered {offered}, accepted {accepted}, rejected \
             {rejected}, completed {completed}"
        );
    }
}

/// What the output check leaves behind for the traced pass.
#[derive(Default)]
struct CheckFigures {
    reuse: ReuseFigures,
    /// Telemetry span sums weighted by each twin's frames.
    span_weighted: f64,
    twin_ms: f64,
    twin_frames: u64,
    pool_misses: u64,
    signature: SignatureStats,
    cold_tick_ms: Vec<f64>,
    warm_tick_ms: Vec<f64>,
    storage_bytes: u64,
}

impl CheckFigures {
    fn retire(&mut self, twin: &ReuseSession, frames: u64, traced: bool) {
        self.reuse.counters.add(twin);
        self.pool_misses += twin.pool_stats().misses;
        self.storage_bytes = self.storage_bytes.max(twin.reuse_storage_bytes());
        if traced {
            self.span_weighted += telemetry_span_ms(twin) * frames as f64;
            self.reuse.add_health(twin);
        }
    }
}

/// Serves [`CHECK_ROUNDS`] rounds one stream at a time on a fresh model and
/// server, and feeds each stream's frames to a standalone twin session of
/// the same model, created when the served stream starts cold. Each chunk
/// is one operation: its outputs must be bit-identical to the twin's.
/// Serving one stream per tick keeps every other stream off the shared
/// signature cache between a chunk and its twin, so the twin adopts the
/// baseline the served session adopted or published.
fn check_against_twins(
    model: &Arc<CompiledModel>,
    inputs: &Inputs,
    seed: u64,
    ctx: &Ctx,
    tally: &mut Tally,
) -> CheckFigures {
    let server = new_server(model);
    let mut schedule = Schedule::new(seed);
    let mut twins: HashMap<u64, (ReuseSession, u64)> = HashMap::new();
    let mut fig = CheckFigures::default();
    let mut expect = Vec::new();
    let mut outs: Vec<Vec<f32>> = Vec::with_capacity(CHUNK);
    let mut mismatches = 0u64;
    for _ in 0..CHECK_ROUNDS {
        for turn in schedule.round() {
            let mut accepted = true;
            for k in 0..CHUNK {
                let frame = inputs.frame(turn, k);
                accepted &= matches!(server.submit(turn.id, frame), Ok(SubmitResult::Accepted));
            }
            let before = server.snapshot();
            let cold = before
                .shards
                .iter()
                .flat_map(|s| s.streams.iter())
                .any(|s| s.id == turn.id && s.frames_in == CHUNK as u64);
            outs.clear();
            let (_, tick) = timed(|| {
                for _ in 0..4 * CHUNK {
                    if outs.len() >= CHUNK || server.tick_all().is_err() {
                        break;
                    }
                    server.drain_outputs(turn.id, |o| outs.push(o.to_vec()));
                }
            });
            let after = server.snapshot();
            let (b, a) = (signature_sum(&before), signature_sum(&after));
            fig.signature.lookups += a.lookups - b.lookups;
            fig.signature.adoptions += a.adoptions - b.adoptions;
            fig.signature.bailouts += a.bailouts - b.bailouts;
            let tick_ms = tick.as_secs_f64() * 1e3;
            if cold {
                fig.cold_tick_ms.push(tick_ms);
                if let Some((old, n)) = twins.remove(&turn.id) {
                    fig.retire(&old, n, ctx.trace);
                }
            } else {
                fig.warm_tick_ms.push(tick_ms);
            }
            let (twin, twin_frames) = twins
                .entry(turn.id)
                .or_insert_with(|| (model.new_session(), 0));
            let mut same = accepted && outs.len() == CHUNK;
            for (k, out) in outs.iter_mut().enumerate() {
                let (r, dt) = timed(|| twin.execute_into(inputs.frame(turn, k), &mut expect));
                fig.twin_ms += dt.as_secs_f64() * 1e3;
                fig.twin_frames += 1;
                *twin_frames += 1;
                ctx.perturb.apply(out, &expect);
                same &= r.is_ok() && bit_identical(out, &expect);
            }
            mismatches += u64::from(!same);
            tally.op(same);
            if turn.chunk + 1 == CHUNKS {
                if let Some((old, n)) = twins.remove(&turn.id) {
                    fig.retire(&old, n, ctx.trace);
                }
            }
        }
    }
    for (twin, n) in twins.values() {
        fig.retire(twin, *n, ctx.trace);
    }
    eprintln!(
        "check: {} chunks vs standalone twin sessions, {mismatches} not bit-identical; \
         {} cold starts, {} signature lookups, {} adoptions",
        CHECK_ROUNDS * ACTIVE,
        fig.cold_tick_ms.len(),
        fig.signature.lookups,
        fig.signature.adoptions
    );
    fig
}

/// The dense baseline's configuration: reuse off on every weighted layer.
fn dense_config(w: &Workload) -> ReuseConfig {
    w.network()
        .layers()
        .iter()
        .filter(|(_, l)| l.has_weights())
        .fold(ReuseConfig::uniform(16), |c, (name, _)| {
            c.disable_layer(name)
        })
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let kind = WorkloadKind::Kaldi;
    let source = Workload::build(kind, ctx.scale);
    let frames = source.generate_frames(STREAMS * CHUNKS * CHUNK, ctx.seed);
    let inputs = Inputs {
        utterances: frames.chunks(CHUNKS * CHUNK).map(<[_]>::to_vec).collect(),
    };
    let dense_model = compile(&source, &dense_config(&source));
    let config = source.reuse_config().clone().signature_cache(true);
    // A twin lives one utterance; the traced pass's telemetry covers it.
    let traced_config = config
        .clone()
        .telemetry(true)
        .telemetry_window(CHUNKS * CHUNK);
    let setup_with = |config: &ReuseConfig| {
        let w = Workload::build(kind, ctx.scale);
        let (model, compile) = timed(|| compile(&w, config));
        (new_server(&model), compile)
    };
    let mut tally = Tally::default();

    let check_model = compile(&source, if ctx.trace { &traced_config } else { &config });
    let check = check_against_twins(&check_model, &inputs, ctx.seed, ctx, &mut tally);

    let churn = Churn {
        inputs: &inputs,
        dense_model: &dense_model,
        seed: ctx.seed,
    };
    let rounds = Rounds::measure(
        ctx.untraced_budget(),
        |r| churn.round(&|| setup_with(&config), &mut tally, None, r),
        None,
    );
    let end_to_end = rounds.end_to_end();
    if !ctx.trace {
        return Outcome::new(tally, end_to_end, Metrics::default());
    }

    let mut tracer = Tracer::new();
    let mut acc = ServeAcc::default();
    let traced_measure = Rounds::measure(
        ctx.traced_budget(),
        |r| {
            churn.round(
                &|| setup_with(&traced_config),
                &mut tally,
                Some((&mut tracer, &mut acc)),
                r,
            )
        },
        None,
    );

    // The nn and quant probes run one utterance through a standalone
    // session of the same model.
    let mut probe_session = check_model.new_session();
    let utterance: Vec<&[f32]> = inputs.utterances[0].iter().map(Vec::as_slice).collect();
    let mut out = Vec::new();
    for f in &utterance {
        tally.op(probe_session.execute_into(f, &mut out).is_ok());
    }
    let (nn_layer_ms, quant) = feedforward_probes(&mut tracer, &probe_session, &utterance);

    let (reuse_unit_ms, dense_unit_ms) = rounds.unit_ms();
    let CheckFigures {
        mut reuse,
        span_weighted,
        twin_ms,
        twin_frames,
        pool_misses,
        signature,
        cold_tick_ms,
        warm_tick_ms,
        storage_bytes,
    } = check;
    reuse.frame_ms = ratio(twin_ms, twin_frames as f64);
    reuse.span_ms = ratio(span_weighted, twin_frames as f64);
    reuse.compile_ms = rounds.compile_ms();
    reuse.pool_misses_per_unit = ratio(pool_misses as f64, twin_frames as f64);
    // Every pooled session holds its own buffered state.
    reuse.storage_mb = (storage_bytes * (SHARDS * SESSIONS_PER_SHARD) as u64) as f64 / 1e6;
    reuse.packed_weight_mb = check_model.packed_weight_bytes() as f64 / 1e6;
    let report = LayerReport {
        net: source.network(),
        tracer: &tracer,
        nn_units: utterance.len() as f64,
        nn_layer_ms: &nn_layer_ms,
        dense_unit_ms,
        reuse_unit_ms,
        traced_reuse_unit_ms: traced_measure.unit_ms().0,
        quant,
        reuse,
        signature: SignatureFigures {
            lookups: signature.lookups,
            adoptions: signature.adoptions,
            bailouts: signature.bailouts,
            // The extra time of a stream's first chunk (calibration, the
            // from-scratch or adopted first frame) over a warm chunk.
            cold_start_ms: mean(&cold_tick_ms) - mean(&warm_tick_ms),
        },
        serve: ServeFigures {
            submit_us: ratio(tracer.total_ms("serve.submit") * 1e3, acc.submits as f64),
            tick_ms: ratio(tracer.total_ms("serve.tick"), acc.ticks as f64),
            frames_per_tick: ratio(acc.frames as f64, acc.ticks as f64),
            queue_wait_ms: ratio(acc.queue_wait_ms, acc.frames as f64),
            drain_us: ratio(tracer.total_ms("serve.drain") * 1e3, acc.drains as f64),
            evictions: acc.evictions,
            cold_starts: acc.cold_starts,
            frames: acc.frames,
        },
    };
    report.finish("kaldi-churn", ctx.seed, tally, end_to_end)
}
