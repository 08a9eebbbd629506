//! Output checks against references the benchmark builds itself.
//!
//! Each check is one operation in the run's tally; a failing check is one
//! failed operation. The tolerances are measured figures with headroom,
//! documented in `README.md`.

use reuse_dnn::reuse::ReuseSession;
use reuse_dnn::tensor::Tensor;

use crate::report::Tally;

/// Deliberate corruption of a checked output. Only the self-test sets it,
/// to show that every check can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    None,
    /// Scales the output by `1 + 1e-3`: above the tight tolerance and
    /// below the loose one, so only the bound on flips can catch it; in
    /// the bit-identity check it changes the bits.
    Small,
    /// Adds the reference's largest magnitude to one element: a relative
    /// error of at least 1, beyond every tolerance.
    Large,
}

impl Perturb {
    /// Applies the corruption to `out`, given the reference `reference`.
    pub fn apply(self, out: &mut [f32], reference: &[f32]) {
        match self {
            Perturb::None => {}
            Perturb::Small => out.iter_mut().for_each(|v| *v *= 1.0 + 1e-3),
            Perturb::Large => {
                if let Some(first) = out.first_mut() {
                    *first += max_abs(reference) + 1.0;
                }
            }
        }
    }
}

fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// Largest element-wise difference relative to the reference's largest
/// magnitude.
pub fn relative_error(out: &[f32], reference: &[f32]) -> f64 {
    if out.len() != reference.len() {
        return f64::INFINITY;
    }
    let diff = out
        .iter()
        .zip(reference)
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    f64::from(diff) / f64::from(max_abs(reference).max(f32::MIN_POSITIVE))
}

/// Feed-forward tolerance on a sampled frame's relative error. Below it the
/// frame agrees with the reference up to float reassociation (measured at
/// small scale: at most 2e-5 on Kaldi, 1e-6 on AutoPilot).
pub const FF_TIGHT: f64 = 1e-4;
/// Above the tight tolerance a frame is a *flip*: the correction sums in
/// another order than the from-scratch pass, and where a downstream input
/// sits on a bin edge the two quantize it to neighbouring codes. A flip
/// moves the output by a few percent (measured: at most 0.11); above this
/// bound the frame is wrong.
pub const FF_LOOSE: f64 = 0.5;

/// Runs the session through the network layer by layer with
/// `Network::apply_layer`, replacing each reuse-enabled layer's input by
/// the session's quantized values of it. This is the paper's invariant:
/// reuse with correction equals a from-scratch computation on quantized
/// inputs. `on_input(layer, raw_input)` sees every reuse-enabled layer's
/// input before quantization.
pub fn quantized_reference(
    session: &ReuseSession,
    frame: &[f32],
    mut on_input: impl FnMut(usize, &[f32]),
) -> Vec<f32> {
    let net = session.network();
    let mut t = Tensor::from_vec(net.input_shape().clone(), frame.to_vec())
        .expect("frame matches the input shape");
    for (i, (name, _)) in net.layers().iter().enumerate() {
        if let Some(q) = session.quantizer_for(name) {
            on_input(i, t.as_slice());
            let shape = t.shape().clone();
            t = Tensor::from_vec(shape, q.quantized_values(t.as_slice())).expect("same volume");
        }
        t = net
            .apply_layer(i, t)
            .expect("feed-forward layer applies frame-wise");
    }
    t.into_vec()
}

/// Tally of sampled feed-forward frames.
#[derive(Debug, Default)]
pub struct FfChecks {
    /// Largest share of sampled frames that may flip.
    pub max_flip_share: f64,
    pub checked: u64,
    pub flips: u64,
    pub worst: f64,
}

impl FfChecks {
    /// Checks one sampled output (already produced by `session` for
    /// `frame`) against the quantized reference: one operation.
    pub fn check(
        &mut self,
        session: &ReuseSession,
        frame: &[f32],
        out: &[f32],
        perturb: Perturb,
        tally: &mut Tally,
    ) {
        let reference = quantized_reference(session, frame, |_, _| {});
        let mut out = out.to_vec();
        perturb.apply(&mut out, &reference);
        let err = relative_error(&out, &reference);
        self.checked += 1;
        self.worst = self.worst.max(err);
        if err > FF_TIGHT {
            self.flips += 1;
        }
        tally.op(err <= FF_LOOSE);
    }

    /// The bound on flips: one operation.
    pub fn finish(&self, tally: &mut Tally) {
        let ok = self.flips as f64 <= self.max_flip_share * self.checked as f64;
        tally.op(ok);
        eprintln!(
            "check: {} sampled frames vs quantized reference, {} flips (bound {:.0}%), \
             worst relative error {:.2e}{}",
            self.checked,
            self.flips,
            self.max_flip_share * 100.0,
            self.worst,
            if ok { "" } else { "  FLIP BOUND EXCEEDED" }
        );
    }
}

/// Bit-for-bit equality of two outputs.
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
