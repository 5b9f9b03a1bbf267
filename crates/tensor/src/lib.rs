//! # lcrec-tensor
//!
//! The numerical substrate for the LC-Rec reproduction: dense `f32` tensors,
//! a tape-based reverse-mode autograd engine, neural-network layers,
//! optimizers, and linear-algebra utilities (PCA, real DFT).
//!
//! Everything is CPU-only, dependency-light and deterministic under seeds.
//! The design is define-by-run: each training step builds a fresh [`Graph`],
//! records ops, and calls [`Graph::backward`], which deposits gradients into
//! a [`ParamStore`] consumed by an optimizer such as [`AdamW`].
//!
//! ```
//! use lcrec_tensor::{Graph, ParamStore, Tensor, AdamW};
//!
//! // Fit y = 2x with one weight.
//! let mut ps = ParamStore::new();
//! let w = ps.add("w", Tensor::from_slice(&[0.0]));
//! let mut opt = AdamW::new(0.1);
//! for _ in 0..300 {
//!     let mut g = Graph::new();
//!     let wv = g.param(&ps, w);
//!     let x = g.constant(Tensor::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
//!     let wcol = g.reshape(wv, &[1, 1]);
//!     let y = g.matmul(x, wcol);
//!     let target = g.constant(Tensor::from_rows(&[vec![2.0], vec![4.0], vec![6.0]]));
//!     let loss = g.mse(y, target);
//!     ps.zero_grads();
//!     g.backward(loss, &mut ps);
//!     opt.step(&mut ps);
//! }
//! assert!((ps.value(w).data()[0] - 2.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

/// Inference-backend kernels (cache-blocked matmuls for the decode fast path).
pub mod backend;
/// Finite-difference gradient checking and the per-op coverage table.
pub mod gradcheck;
mod graph;
/// Weight initializers.
pub mod init;
/// PCA, DFT matrices and similarity helpers.
pub mod linalg;
/// Neural-network layers.
pub mod nn;
mod optim;
/// Runtime numerical sanitizer (NaN/Inf and tape-invariant guards).
pub mod sanitize;
/// Checkpoint save/load for parameter stores.
pub mod serialize;
mod tensor;

pub use backend::{active_backend, BlockedBackend, InferenceBackend, ReferenceBackend};
pub use graph::{Graph, Var};
pub use optim::{AdamW, ParamId, ParamStore, Schedule, Sgd};
pub use tensor::{
    gelu, log_softmax_rows, matmul, matmul_acc, matmul_nt_acc, matmul_tn_acc, sigmoid,
    softmax_rows, Tensor,
};
