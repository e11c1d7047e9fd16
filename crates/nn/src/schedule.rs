//! Training-schedule helpers shared by every trainable backend.
//!
//! The tree-model trainer and the MSCN trainer used to carry their own
//! copies of the same scaffolding: seed an RNG, shuffle once to carve a
//! validation split off the samples, re-shuffle the training indices every
//! epoch and walk them in mini-batches.  [`MiniBatchSchedule`] is that
//! scaffolding, written once; [`EarlyStop`] is the matching
//! patience-on-validation-metric stopping policy, and [`TrainProgress`] the
//! resumable state both trainers keep between `train` calls and write into
//! their checkpoints.

use crate::checkpoint::{self as ckpt, CheckpointError};
use crate::optim::Adam;
use crate::params::ParamStore;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};

/// Deterministic validation split + per-epoch shuffled mini-batches.
#[derive(Debug)]
pub struct MiniBatchSchedule {
    rng: ChaCha8Rng,
    train: Vec<usize>,
    validation: Vec<usize>,
    batch_size: usize,
}

impl MiniBatchSchedule {
    /// Split `n_samples` indices into a validation head of
    /// `validation_fraction` (rounded, capped so at least one training
    /// sample remains) and a training tail, deterministically from `seed`.
    pub fn new(n_samples: usize, validation_fraction: f64, batch_size: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n_samples).collect();
        order.shuffle(&mut rng);
        let n_val = ((n_samples as f64) * validation_fraction.clamp(0.0, 1.0)).round() as usize;
        let n_val = n_val.min(n_samples.saturating_sub(1));
        let (validation, train) = order.split_at(n_val);
        MiniBatchSchedule { rng, train: train.to_vec(), validation: validation.to_vec(), batch_size: batch_size.max(1) }
    }

    /// The held-out validation sample indices (stable across epochs).
    pub fn validation(&self) -> &[usize] {
        &self.validation
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train.len()
    }

    /// Replay the shuffles of `epochs` completed epochs, so the RNG stream
    /// continues exactly where an interrupted run left it.
    pub fn skip_epochs(&mut self, epochs: usize) {
        for _ in 0..epochs {
            self.train.shuffle(&mut self.rng);
        }
    }

    /// Re-shuffle the training indices and return this epoch's mini-batches.
    pub fn epoch_batches(&mut self) -> std::slice::Chunks<'_, usize> {
        self.train.shuffle(&mut self.rng);
        self.train.chunks(self.batch_size)
    }
}

/// Patience-based early stopping on a validation metric (lower is better).
///
/// `None` patience disables the policy (the hook is always present, the
/// trigger is opt-in), and non-finite metrics — a backend that measured no
/// validation error this epoch — never count against the patience.
#[derive(Debug, Clone, Copy)]
pub struct EarlyStop {
    patience: Option<usize>,
    best: f64,
    epochs_since_best: usize,
}

impl EarlyStop {
    /// A policy stopping after `patience` epochs without improvement.
    pub fn new(patience: Option<usize>) -> Self {
        EarlyStop { patience, best: f64::INFINITY, epochs_since_best: 0 }
    }

    /// Record this epoch's validation metric; returns `true` when training
    /// should stop now.
    pub fn observe(&mut self, metric: f64) -> bool {
        let Some(patience) = self.patience else { return false };
        if !metric.is_finite() {
            return false;
        }
        if metric < self.best {
            self.best = metric;
            self.epochs_since_best = 0;
            false
        } else {
            self.epochs_since_best += 1;
            self.epochs_since_best >= patience
        }
    }
}

/// The mutable training state that survives a `train` call — and, through a
/// v2 checkpoint, a process restart.  The per-parameter Adam moments live in
/// the model's [`ParamStore`]; this carries everything else an interrupted
/// run needs to continue **bit-identically**: how many epochs are done (the
/// schedule's RNG stream is replayed up to there,
/// [`MiniBatchSchedule::skip_epochs`]), the optimizer's step counter, and
/// the early-stop position.
#[derive(Debug, Clone)]
pub struct TrainProgress {
    pub epochs_done: usize,
    pub optimizer: Adam,
    early_stop: EarlyStop,
    /// Set once `early_stop` fires; training runs no further epoch until a
    /// caller clears it (raising the epoch budget for new data).
    pub stopped_early: bool,
}

impl TrainProgress {
    /// The state of a run that has not trained yet.
    pub fn new(learning_rate: f32, early_stop_patience: Option<usize>) -> Self {
        TrainProgress {
            epochs_done: 0,
            optimizer: Adam::new(learning_rate),
            early_stop: EarlyStop::new(early_stop_patience),
            stopped_early: false,
        }
    }

    /// True while a run with an `epochs` budget has an epoch left to train.
    pub fn wants_epoch(&self, epochs: usize) -> bool {
        !self.stopped_early && self.epochs_done < epochs
    }

    /// Close an epoch that measured `metric` on validation: count it, and
    /// stop the run if the early-stop policy fires.
    pub fn end_epoch(&mut self, metric: f64) {
        self.epochs_done += 1;
        if self.early_stop.observe(metric) {
            self.stopped_early = true;
        }
    }

    /// Write the v2 training-state block: a presence flag, then — for a
    /// trainer that trained — the epochs done, the Adam step count, the
    /// early-stop best and count, the stopped flag, and `store`'s moment
    /// payloads.  A model-only trainer (`None`) writes just the absent flag.
    pub fn write_block(
        progress: Option<&TrainProgress>,
        store: &ParamStore,
        w: &mut impl Write,
    ) -> Result<(), CheckpointError> {
        let Some(p) = progress else {
            return ckpt::write_u8(w, 0);
        };
        ckpt::write_u8(w, 1)?;
        ckpt::write_u64(w, p.epochs_done as u64)?;
        ckpt::write_u64(w, p.optimizer.step_count())?;
        ckpt::write_f64(w, p.early_stop.best)?;
        ckpt::write_u64(w, p.early_stop.epochs_since_best as u64)?;
        ckpt::write_u8(w, p.stopped_early as u8)?;
        store.save_moments_to(w)
    }

    /// Read a block written by [`TrainProgress::write_block`], restoring the
    /// moments into `store` (whose tensors define the expected shapes).  The
    /// optimizer and early-stop policy are rebuilt with the trainer's
    /// `learning_rate` and `early_stop_patience`.  `None` when the block
    /// carries no state.
    pub fn read_block(
        r: &mut impl Read,
        store: &mut ParamStore,
        learning_rate: f32,
        early_stop_patience: Option<usize>,
    ) -> Result<Option<TrainProgress>, CheckpointError> {
        if ckpt::read_u8(r, "training-state flag")? == 0 {
            return Ok(None);
        }
        let epochs_done = ckpt::read_u64(r, "epochs done")? as usize;
        let step_count = ckpt::read_u64(r, "optimizer step count")?;
        let best = ckpt::read_f64(r, "early-stop best metric")?;
        let epochs_since_best = ckpt::read_u64(r, "early-stop epochs since best")? as usize;
        let stopped_early = ckpt::read_u8(r, "early-stop stopped flag")? != 0;
        store.load_moments_from(r)?;
        let mut optimizer = Adam::new(learning_rate);
        optimizer.set_step_count(step_count);
        Ok(Some(TrainProgress {
            epochs_done,
            optimizer,
            early_stop: EarlyStop { patience: early_stop_patience, best, epochs_since_best },
            stopped_early,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_disjoint_exhaustive_and_deterministic() {
        let a = MiniBatchSchedule::new(100, 0.1, 16, 7);
        let b = MiniBatchSchedule::new(100, 0.1, 16, 7);
        assert_eq!(a.validation(), b.validation());
        assert_eq!(a.validation().len(), 10);
        assert_eq!(a.train_len(), 90);
        let mut all: Vec<usize> = a.validation().to_vec();
        all.extend_from_slice(&a.train);
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batches_cover_every_training_sample() {
        let mut s = MiniBatchSchedule::new(50, 0.2, 8, 3);
        let mut seen: Vec<usize> = s.epoch_batches().flatten().copied().collect();
        assert_eq!(seen.len(), 40);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 40, "an epoch must visit each training sample once");
    }

    #[test]
    fn validation_never_swallows_all_samples() {
        let s = MiniBatchSchedule::new(3, 1.0, 4, 0);
        assert!(s.train_len() >= 1);
        let empty = MiniBatchSchedule::new(0, 0.5, 4, 0);
        assert_eq!(empty.train_len(), 0);
        assert!(empty.validation().is_empty());
    }

    #[test]
    fn early_stop_waits_for_patience() {
        let mut es = EarlyStop::new(Some(2));
        assert!(!es.observe(10.0));
        assert!(!es.observe(8.0)); // improvement resets
        assert!(!es.observe(9.0)); // 1 epoch without improvement
        assert!(es.observe(9.5)); // 2 epochs -> stop
    }

    #[test]
    fn early_stop_disabled_and_nan_metrics() {
        let mut off = EarlyStop::new(None);
        for _ in 0..50 {
            assert!(!off.observe(1.0));
        }
        let mut es = EarlyStop::new(Some(1));
        assert!(!es.observe(f64::NAN));
        assert!(!es.observe(5.0));
        assert!(es.observe(5.0));
    }
}
