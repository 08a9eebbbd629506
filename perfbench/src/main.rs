//! The repository's benchmark: one named streaming workload per run,
//! inputs generated from a seed before any timing starts, outputs checked
//! against references the benchmark builds itself.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` it carries the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it carries the per-layer metrics of a
//! separate traced pass. Human-readable notes go to standard error.
//! See `README.md` next to this crate for what each metric means.

mod checks;
mod churn;
mod probe;
mod report;
mod spans;
mod stats;
mod stream;
mod utterance;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use reuse_dnn::reuse::{CompiledModel, ReuseConfig};
use reuse_dnn::workloads::{Scale, Workload, WorkloadKind};

use crate::checks::Perturb;
use crate::report::Outcome;

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 4] = [
    "kaldi-stream",
    "autopilot-stream",
    "eesen-utterance",
    "kaldi-churn",
];

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Model scale; `Small` for every measured run, `Tiny` in the self-test.
    pub scale: Scale,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock budget of the measured phases.
    pub budget: Duration,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Deliberate output corruption, used only by the self-test.
    pub perturb: Perturb,
}

impl Ctx {
    /// Budget of the untraced measurement: the whole run, or 40% of it when
    /// a traced pass follows.
    pub fn untraced_budget(&self) -> Duration {
        if self.trace {
            self.budget.mul_f64(0.4)
        } else {
            self.budget
        }
    }

    /// Budget of the traced pass.
    pub fn traced_budget(&self) -> Duration {
        self.budget.mul_f64(0.35)
    }
}

/// Compiles `w`'s network with `config`.
pub fn compile(w: &Workload, config: &ReuseConfig) -> Arc<CompiledModel> {
    Arc::new(CompiledModel::new(w.network(), config))
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "kaldi-stream" => stream::run(WorkloadKind::Kaldi, ctx),
        "autopilot-stream" => stream::run(WorkloadKind::AutoPilot, ctx),
        "eesen-utterance" => utterance::run(ctx),
        "kaldi-churn" => churn::run(ctx),
        other => unreachable!("workload names are validated at parse time: {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.to_string());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs every workload at tiny scale to its end, first clean and then with
/// each output perturbation. Clean runs must fail no operation; perturbed
/// runs must fail at least one, so a check that cannot fail is caught. The
/// small perturbation (1e-3) lies inside EESEN's error envelope by design,
/// so that workload gets only the large one.
fn self_test() -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        let perturbs: &[Perturb] = if name == "eesen-utterance" {
            &[Perturb::None, Perturb::Large]
        } else {
            &[Perturb::None, Perturb::Small, Perturb::Large]
        };
        for &perturb in perturbs {
            let ctx = Ctx {
                scale: Scale::Tiny,
                seed: 7,
                budget: Duration::from_millis(300),
                trace: perturb == Perturb::None,
                perturb,
            };
            let out = run_workload(name, &ctx);
            let expect_fail = perturb != Perturb::None;
            let pass = (out.failed > 0) == expect_fail && out.attempted > 0;
            ok &= pass;
            eprintln!(
                "self-test {name:<17} perturb {perturb:<5?}: {} of {} operations failed, \
                 expected {} -> {}",
                out.failed,
                out.attempted,
                if expect_fail { "some" } else { "none" },
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    if ok {
        eprintln!("self-test passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--self-test" {
        return self_test();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        scale: Scale::Small,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        perturb: Perturb::None,
    };
    eprintln!(
        "perfbench {} scale {:?} seed {} seconds {} trace {} simd {:?} threads 1 (host {})",
        args.workload,
        ctx.scale,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        reuse_dnn::tensor::simd::level(),
        reuse_dnn::tensor::hardware_threads(),
    );
    let outcome = run_workload(&args.workload, &ctx);
    outcome.print_human();
    println!("{}", outcome.to_json(args.trace));
    ExitCode::SUCCESS
}
