//! Optimizers: SGD with exponential learning-rate decay (the paper's
//! default, §7.1.3: "an exponential learning rate decay with 0.95") and
//! Adam (§7.2.3).

use corgipile_storage::FieldReader;

/// A first-order optimizer stepping a flat parameter vector.
pub trait Optimizer: Send {
    /// Apply one update with the given gradient.
    fn step(&mut self, params: &mut [f32], grad: &[f32]);

    /// Advance to epoch `epoch` (0-based), applying learning-rate decay.
    fn set_epoch(&mut self, epoch: usize);

    /// Current learning rate (after decay).
    fn lr(&self) -> f32;

    /// Optimizer name for reports.
    fn name(&self) -> &'static str;

    /// Serialize internal state (moment buffers, step counters) for
    /// checkpointing. Stateless optimizers return an empty vector; the
    /// learning rate is *not* state — it is re-derived from the epoch via
    /// [`Optimizer::set_epoch`] on resume.
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state produced by [`Optimizer::state_bytes`]. Returns `false`
    /// if the bytes are not a valid state for this optimizer.
    fn load_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD with per-epoch exponential decay.
    Sgd {
        /// Initial learning rate.
        lr0: f32,
        /// Per-epoch multiplicative decay (paper default 0.95).
        decay: f32,
    },
    /// SGD with the inverse-time schedule of Theorem 1:
    /// `η_s = lr0 · a / (s + a)` — the schedule under which the paper's
    /// convergence analysis holds.
    SgdInverseTime {
        /// Initial learning rate (η_0).
        lr0: f32,
        /// The theorem's offset `a ≥ 1`; larger = slower decay.
        a: f32,
    },
    /// Adam with per-epoch exponential decay of the base rate.
    Adam {
        /// Initial learning rate.
        lr0: f32,
        /// First-moment coefficient.
        beta1: f32,
        /// Second-moment coefficient.
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
    },
}

impl OptimizerKind {
    /// The paper's default SGD configuration.
    pub fn default_sgd(lr0: f32) -> Self {
        OptimizerKind::Sgd { lr0, decay: 0.95 }
    }

    /// The paper's Adam configuration (standard coefficients).
    pub fn default_adam(lr0: f32) -> Self {
        OptimizerKind::Adam {
            lr0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Build the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgd { lr0, decay } => Box::new(Sgd::new(lr0, decay)),
            OptimizerKind::SgdInverseTime { lr0, a } => Box::new(Sgd::inverse_time(lr0, a)),
            OptimizerKind::Adam {
                lr0,
                beta1,
                beta2,
                eps,
            } => Box::new(Adam::new(lr0, beta1, beta2, eps)),
        }
    }
}

/// The learning-rate schedule of an [`Sgd`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// `η_s = lr0 · decay^s` (the paper's experimental default).
    Exponential {
        /// Per-epoch multiplicative factor.
        decay: f32,
    },
    /// `η_s = lr0 · a / (s + a)` (Theorem 1's schedule shape).
    InverseTime {
        /// Offset `a ≥ 1`.
        a: f32,
    },
}

/// Plain SGD with a per-epoch learning-rate schedule.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr0: f32,
    schedule: LrSchedule,
    lr: f32,
}

impl Sgd {
    /// Create with initial rate `lr0` and per-epoch exponential decay.
    pub fn new(lr0: f32, decay: f32) -> Self {
        assert!(lr0 > 0.0 && decay > 0.0 && decay <= 1.0);
        Sgd {
            lr0,
            schedule: LrSchedule::Exponential { decay },
            lr: lr0,
        }
    }

    /// Create with the inverse-time schedule `η_s = lr0 · a/(s + a)`.
    pub fn inverse_time(lr0: f32, a: f32) -> Self {
        assert!(lr0 > 0.0 && a >= 1.0);
        Sgd {
            lr0,
            schedule: LrSchedule::InverseTime { a },
            lr: lr0,
        }
    }

    /// The configured schedule.
    pub fn schedule(&self) -> LrSchedule {
        self.schedule
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(params.len(), grad.len());
        for (p, g) in params.iter_mut().zip(grad) {
            *p -= self.lr * g;
        }
    }

    fn set_epoch(&mut self, epoch: usize) {
        self.lr = match self.schedule {
            LrSchedule::Exponential { decay } => self.lr0 * decay.powi(epoch as i32),
            LrSchedule::InverseTime { a } => self.lr0 * a / (epoch as f32 + a),
        };
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Tag prefixing serialized Adam state (see [`Optimizer::state_bytes`]).
const ADAM_STATE_MAGIC: &[u8; 8] = b"ADAMST01";

/// Adam (Kingma & Ba, 2015).
#[derive(Debug, Clone)]
pub struct Adam {
    lr0: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Create a fresh Adam state.
    pub fn new(lr0: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr0 > 0.0 && (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr0,
            lr: lr0,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(params.len(), grad.len());
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - (self.beta1 as f64).powi(self.t as i32);
        let b2t = 1.0 - (self.beta2 as f64).powi(self.t as i32);
        for i in 0..params.len() {
            let g = grad[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] as f64 / b1t;
            let vhat = self.v[i] as f64 / b2t;
            params[i] -= (self.lr as f64 * mhat / (vhat.sqrt() + self.eps as f64)) as f32;
        }
    }

    fn set_epoch(&mut self, epoch: usize) {
        // Mild decay keeps parity with the SGD schedule.
        self.lr = self.lr0 * 0.95f32.powi(epoch as i32);
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + 8 * self.m.len());
        out.extend_from_slice(ADAM_STATE_MAGIC);
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&(self.m.len() as u64).to_le_bytes());
        for x in self.m.iter().chain(self.v.iter()) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        if bytes.is_empty() {
            // A checkpoint taken before the first step: fresh state.
            self.t = 0;
            self.m.clear();
            self.v.clear();
            return true;
        }
        let Some((t, m, v)) = decode_adam_state(bytes) else {
            return false;
        };
        self.t = t;
        self.m = m;
        self.v = v;
        true
    }
}

/// Decode `Adam::state_bytes` (`magic ∥ t u64 ∥ n u64 ∥ m[n] ∥ v[n]`);
/// `FieldReader` checks `n` against the bytes actually present.
fn decode_adam_state(bytes: &[u8]) -> Option<(u64, Vec<f32>, Vec<f32>)> {
    let mut r = FieldReader::new(bytes, "adam state");
    if r.take(8).ok()? != ADAM_STATE_MAGIC {
        return None;
    }
    let t = r.u64().ok()?;
    let n = r.u64().ok()? as usize;
    let (m, v) = (r.f32s(n).ok()?, r.f32s(n).ok()?);
    r.finish().ok()?;
    Some((t, m, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(p) = Σ (p_i − t_i)² with gradient 2(p − t).
    fn quadratic_descent(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let target = [3.0f32, -2.0, 0.5];
        let mut p = [0.0f32; 3];
        for _ in 0..iters {
            let g: Vec<f32> = p
                .iter()
                .zip(&target)
                .map(|(pi, ti)| 2.0 * (pi - ti))
                .collect();
            opt.step(&mut p, &g);
        }
        p.iter()
            .zip(&target)
            .map(|(pi, ti)| (pi - ti).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 1.0);
        assert!(quadratic_descent(&mut opt, 200) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 0.9, 0.999, 1e-8);
        assert!(quadratic_descent(&mut opt, 500) < 1e-2);
    }

    #[test]
    fn sgd_decay_schedule() {
        let mut opt = Sgd::new(0.1, 0.95);
        assert_eq!(opt.lr(), 0.1);
        opt.set_epoch(1);
        assert!((opt.lr() - 0.095).abs() < 1e-6);
        opt.set_epoch(10);
        assert!((opt.lr() - 0.1 * 0.95f32.powi(10)).abs() < 1e-7);
    }

    #[test]
    fn inverse_time_schedule_matches_theorem() {
        let mut opt = Sgd::inverse_time(0.6, 4.0);
        assert_eq!(opt.lr(), 0.6);
        opt.set_epoch(0);
        assert!((opt.lr() - 0.6).abs() < 1e-7);
        opt.set_epoch(4);
        assert!((opt.lr() - 0.3).abs() < 1e-7, "a/(s+a) = 4/8");
        opt.set_epoch(12);
        assert!((opt.lr() - 0.15).abs() < 1e-7);
        assert!(matches!(opt.schedule(), LrSchedule::InverseTime { .. }));
    }

    #[test]
    fn inverse_time_sgd_converges_on_quadratic() {
        let mut opt = Sgd::inverse_time(0.1, 8.0);
        // Quadratic descent with periodic epoch advance.
        let target = [1.0f32, -1.0];
        let mut p = [0.0f32; 2];
        for e in 0..50 {
            opt.set_epoch(e);
            for _ in 0..10 {
                let g: Vec<f32> = p
                    .iter()
                    .zip(&target)
                    .map(|(pi, ti)| 2.0 * (pi - ti))
                    .collect();
                opt.step(&mut p, &g);
            }
        }
        assert!((p[0] - 1.0).abs() < 1e-3 && (p[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn kind_builds_inverse_time() {
        let mut o = OptimizerKind::SgdInverseTime { lr0: 0.2, a: 2.0 }.build();
        o.set_epoch(2);
        assert!((o.lr() - 0.1).abs() < 1e-7);
    }

    #[test]
    fn adam_state_resizes_with_params() {
        let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut p3 = [1.0f32; 3];
        opt.step(&mut p3, &[0.1; 3]);
        let mut p5 = [1.0f32; 5];
        opt.step(&mut p5, &[0.1; 5]); // must not panic
        assert!(p5.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn kind_builders() {
        assert_eq!(OptimizerKind::default_sgd(0.1).build().name(), "sgd");
        assert_eq!(OptimizerKind::default_adam(0.01).build().name(), "adam");
    }

    #[test]
    #[should_panic]
    fn bad_lr_rejected() {
        Sgd::new(0.0, 0.9);
    }

    #[test]
    fn sgd_state_is_empty_and_roundtrips() {
        let mut opt = Sgd::new(0.1, 0.95);
        assert!(opt.state_bytes().is_empty());
        assert!(opt.load_state(&[]));
        assert!(!opt.load_state(b"junk"), "sgd has no state to restore");
    }

    #[test]
    fn adam_state_roundtrip_resumes_identical_trajectory() {
        let grads: Vec<Vec<f32>> = (0..10)
            .map(|i| vec![0.1 * i as f32, -0.2, 0.05 * i as f32])
            .collect();
        // Run 10 steps straight through.
        let mut full = Adam::new(0.05, 0.9, 0.999, 1e-8);
        let mut p_full = [1.0f32, -1.0, 0.5];
        for g in &grads {
            full.step(&mut p_full, g);
        }
        // Run 4 steps, checkpoint, restore into a fresh Adam, run the rest.
        let mut first = Adam::new(0.05, 0.9, 0.999, 1e-8);
        let mut p_resumed = [1.0f32, -1.0, 0.5];
        for g in &grads[..4] {
            first.step(&mut p_resumed, g);
        }
        let state = first.state_bytes();
        let mut second = Adam::new(0.05, 0.9, 0.999, 1e-8);
        assert!(second.load_state(&state));
        for g in &grads[4..] {
            second.step(&mut p_resumed, g);
        }
        assert_eq!(p_full, p_resumed, "resume must be bit-identical");
    }

    #[test]
    fn adam_rejects_malformed_state() {
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8);
        assert!(!opt.load_state(b"short"));
        assert!(!opt.load_state(b"WRONGMAG\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"));
        let mut good = Adam::new(0.05, 0.9, 0.999, 1e-8);
        let mut p = [1.0f32; 3];
        good.step(&mut p, &[0.1; 3]);
        let mut truncated = good.state_bytes();
        truncated.pop();
        assert!(!opt.load_state(&truncated));
        // A hostile count: 8 · 2⁶¹ wraps to 0, so an unchecked
        // `len == 24 + 8 * n` would accept 24 bytes and index past them.
        let mut hostile = good.state_bytes()[..24].to_vec();
        hostile[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(!opt.load_state(&hostile));
        assert!(opt.load_state(&good.state_bytes()));
        assert!(opt.load_state(&[]), "empty state resets to fresh");
    }
}
