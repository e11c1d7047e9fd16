//! Model parameters shared across computation graphs.
//!
//! The tree-structured model applies the *same* representation cell at every
//! node of every plan (Section 4.2.2: "all the units in this layer are neural
//! networks in the same structure and share common parameters").  Parameters
//! therefore live outside the per-plan [`crate::Graph`] in a [`ParamStore`];
//! graphs reference them by [`ParamId`] and accumulate gradients back into
//! the store after each backward pass.

use crate::checkpoint::{self, CheckpointError};
use crate::init;
use crate::matrix::Matrix;
use rand::Rng;
use std::io::{Read, Write};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// A single trainable tensor together with its gradient accumulator and the
/// Adam moment estimates.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub value: Matrix,
    pub grad: Matrix,
    pub(crate) m: Matrix,
    pub(crate) v: Matrix,
}

/// Container for all trainable parameters of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Create an empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Register an explicitly-initialized parameter.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        let m = Matrix::zeros(value.rows(), value.cols());
        let v = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param { name: name.into(), value, grad, m, v });
        ParamId(self.params.len() - 1)
    }

    /// Register a weight matrix with Xavier/Glorot uniform initialization.
    pub fn add_xavier(&mut self, name: impl Into<String>, rows: usize, cols: usize, rng: &mut impl Rng) -> ParamId {
        self.add(name, init::xavier_uniform(rows, cols, rng))
    }

    /// Register a zero-initialized bias vector.
    pub fn add_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::zeros(rows, cols))
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable value (used by gradient-check tests and optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Current accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Accumulate a gradient contribution for a parameter.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Matrix) {
        self.params[id.0].grad.add_assign(grad);
    }

    /// Reset all gradients to zero (called once per mini-batch).
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Iterate over all parameters mutably (used by optimizers).
    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    /// Iterate over all parameters.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Serialize every parameter tensor into `w`: the shared section header
    /// ([`checkpoint::MAGIC`], [`checkpoint::FORMAT_VERSION`],
    /// [`checkpoint::KIND_PARAMS`]), a tensor count, then per tensor its
    /// name, shape and raw little-endian `f32` payload.  Values only —
    /// gradients and Adam moments are training state, not model state.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, checkpoint::KIND_PARAMS)?;
        checkpoint::write_u64(w, self.params.len() as u64)?;
        for p in &self.params {
            checkpoint::write_str(w, &p.name)?;
            checkpoint::write_u64(w, p.value.rows() as u64)?;
            checkpoint::write_u64(w, p.value.cols() as u64)?;
            checkpoint::write_f32_slice(w, p.value.data())?;
        }
        Ok(())
    }

    /// Deserialize a parameter section written by [`ParamStore::save_to`]
    /// into an **existing** store, verifying
    /// that every tensor matches the store's registration order, name and
    /// shape — the restore path for a freshly-constructed model.  Values are
    /// overwritten, gradients and moments reset.  On any error the store is
    /// left untouched (the section is validated in full first).
    pub fn load_values_from(&mut self, r: &mut impl Read) -> Result<(), CheckpointError> {
        checkpoint::read_header(r, checkpoint::KIND_PARAMS)?;
        let count = checkpoint::read_count(r, "parameter count")?;
        if count != self.params.len() {
            return Err(CheckpointError::CountMismatch { expected: self.params.len(), found: count });
        }
        let mut loaded = Vec::with_capacity(count);
        for p in &self.params {
            let (name, value) = Self::read_tensor(r)?;
            if name != p.name {
                return Err(CheckpointError::NameMismatch { expected: p.name.clone(), found: name });
            }
            if (value.rows(), value.cols()) != (p.value.rows(), p.value.cols()) {
                return Err(CheckpointError::ShapeMismatch {
                    name,
                    expected: (p.value.rows(), p.value.cols()),
                    found: (value.rows(), value.cols()),
                });
            }
            loaded.push(value);
        }
        for (p, value) in self.params.iter_mut().zip(loaded) {
            p.value = value;
            p.grad.fill_zero();
            p.m.fill_zero();
            p.v.fill_zero();
        }
        Ok(())
    }

    /// Serialize the Adam moment estimates (`m`, `v` per tensor, in
    /// registration order, raw `f32` bit patterns) — the per-parameter half
    /// of the optimizer state a v2 checkpoint persists for resumable
    /// training.  Shapes are implied by the value tensors, so the payload is
    /// just a count guard followed by the raw moments.
    pub fn save_moments_to(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_u64(w, self.params.len() as u64)?;
        for p in &self.params {
            checkpoint::write_f32_slice(w, p.m.data())?;
            checkpoint::write_f32_slice(w, p.v.data())?;
        }
        Ok(())
    }

    /// Restore moment estimates written by [`ParamStore::save_moments_to`]
    /// into this store's tensors (which define the expected shapes).  On any
    /// error the store is left untouched.
    pub fn load_moments_from(&mut self, r: &mut impl Read) -> Result<(), CheckpointError> {
        let count = checkpoint::read_count(r, "moment tensor count")?;
        if count != self.params.len() {
            return Err(CheckpointError::CountMismatch { expected: self.params.len(), found: count });
        }
        let mut loaded = Vec::with_capacity(count * 2);
        for p in &self.params {
            let len = p.value.len() as u64;
            loaded.push(checkpoint::read_f32_vec(r, len, "first-moment payload")?);
            loaded.push(checkpoint::read_f32_vec(r, len, "second-moment payload")?);
        }
        let mut it = loaded.into_iter();
        for p in self.params.iter_mut() {
            let (rows, cols) = (p.value.rows(), p.value.cols());
            p.m = Matrix::from_vec(rows, cols, it.next().expect("moment pair"));
            p.v = Matrix::from_vec(rows, cols, it.next().expect("moment pair"));
        }
        Ok(())
    }

    fn read_tensor(r: &mut impl Read) -> Result<(String, Matrix), CheckpointError> {
        let name = checkpoint::read_str(r, "parameter name")?;
        let rows = checkpoint::read_u64(r, "parameter rows")? as usize;
        let cols = checkpoint::read_u64(r, "parameter cols")? as usize;
        let len = (rows as u64)
            .checked_mul(cols as u64)
            .ok_or_else(|| CheckpointError::Corrupt(format!("parameter {name:?} shape {rows}x{cols} overflows")))?;
        let data = checkpoint::read_f32_vec(r, len, "parameter payload")?;
        Ok((name, Matrix::from_vec(rows, cols, data)))
    }

    /// Global L2 norm of all gradients (for gradient clipping).
    pub fn grad_norm(&self) -> f32 {
        self.params.iter().map(|p| p.grad.norm().powi(2)).sum::<f32>().sqrt()
    }

    /// Scale all gradients by a constant (gradient clipping helper).
    pub fn scale_grads(&mut self, s: f32) {
        for p in &mut self.params {
            p.grad = p.grad.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::column(&[1.0, 2.0]));
        assert_eq!(store.value(id), &Matrix::column(&[1.0, 2.0]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 2);
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let mut store = ParamStore::new();
        let id = store.add_zeros("b", 2, 1);
        store.accumulate_grad(id, &Matrix::column(&[1.0, 1.0]));
        store.accumulate_grad(id, &Matrix::column(&[0.5, 0.5]));
        assert_eq!(store.grad(id), &Matrix::column(&[1.5, 1.5]));
        store.zero_grad();
        assert_eq!(store.grad(id), &Matrix::column(&[0.0, 0.0]));
    }

    #[test]
    fn xavier_init_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let id = store.add_xavier("w", 16, 32, &mut rng);
        let bound = (6.0f32 / (16.0 + 32.0)).sqrt();
        for &x in store.value(id).data() {
            assert!(x.abs() <= bound + 1e-6);
        }
    }

    #[test]
    fn save_load_roundtrip_is_bit_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut store = ParamStore::new();
        store.add_xavier("a.w", 7, 5, &mut rng);
        store.add_zeros("a.b", 7, 1);
        store.add("odd", Matrix::from_vec(1, 3, vec![-0.0, f32::MIN_POSITIVE, 3.25]));
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();

        // Load into a differently-initialized same-shape store that holds a
        // stale gradient.
        let mut rng2 = ChaCha8Rng::seed_from_u64(999);
        let mut loaded = ParamStore::new();
        loaded.add_xavier("a.w", 7, 5, &mut rng2);
        loaded.add_zeros("a.b", 7, 1);
        let odd = loaded.add("odd", Matrix::zeros(1, 3));
        loaded.accumulate_grad(odd, &Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        loaded.load_values_from(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.len(), store.len());
        for (a, b) in store.params().iter().zip(loaded.params().iter()) {
            assert_eq!(a.name, b.name);
            let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.value), bits(&b.value), "payload must round-trip bit-identically");
            assert!(b.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn load_rejects_malformed_sections_with_typed_errors() {
        use crate::checkpoint::CheckpointError;
        let mut store = ParamStore::new();
        store.add("w", Matrix::column(&[1.0, 2.0, 3.0]));
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let mut target = ParamStore::new();
        target.add("w", Matrix::column(&[0.0, 0.0, 0.0]));

        // Truncated mid-payload.
        let cut = &buf[..buf.len() - 5];
        assert!(matches!(
            target.load_values_from(&mut std::io::Cursor::new(cut)),
            Err(CheckpointError::Truncated { .. })
        ));
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            target.load_values_from(&mut std::io::Cursor::new(&bad)),
            Err(CheckpointError::BadMagic { .. })
        ));
        // Future version.
        let mut future = buf.clone();
        future[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            target.load_values_from(&mut std::io::Cursor::new(&future)),
            Err(CheckpointError::UnsupportedVersion { found: 7, .. })
        ));

        // Mismatched target store: wrong count, wrong name, wrong shape.
        let mut empty = ParamStore::new();
        assert!(matches!(
            empty.load_values_from(&mut std::io::Cursor::new(&buf)),
            Err(CheckpointError::CountMismatch { expected: 0, found: 1 })
        ));
        let mut renamed = ParamStore::new();
        renamed.add("v", Matrix::column(&[0.0, 0.0, 0.0]));
        assert!(matches!(
            renamed.load_values_from(&mut std::io::Cursor::new(&buf)),
            Err(CheckpointError::NameMismatch { .. })
        ));
        let mut reshaped = ParamStore::new();
        reshaped.add("w", Matrix::zeros(2, 2));
        let before = reshaped.value(ParamId(0)).clone();
        assert!(matches!(
            reshaped.load_values_from(&mut std::io::Cursor::new(&buf)),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        assert_eq!(reshaped.value(ParamId(0)), &before, "failed load must not partially apply");
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut store = ParamStore::new();
        let id = store.add_zeros("b", 2, 1);
        store.accumulate_grad(id, &Matrix::column(&[3.0, 4.0]));
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        store.scale_grads(0.5);
        assert!((store.grad_norm() - 2.5).abs() < 1e-6);
    }
}
