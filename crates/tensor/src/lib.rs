//! # pte-tensor — dense tensor substrate
//!
//! A small, dependency-light dense tensor library that provides exactly what the
//! rest of the `pte` framework needs:
//!
//! * [`Tensor`] — an owned, row-major `f32` tensor with shape/stride bookkeeping.
//! * [`ops`] — reference implementations (forward **and** backward) of the neural
//!   network operations the paper's networks are built from: standard, grouped,
//!   bottlenecked and depthwise convolution, batch normalisation, ReLU, pooling,
//!   linear layers and cross-entropy loss.
//! * [`data`] — synthetic, class-structured datasets standing in for CIFAR-10 and
//!   ImageNet. The substitution is sound because Fisher Potential only needs a
//!   labelled random minibatch at initialization, which these provide.
//! * [`rng`] — seeded random-number helpers so that every experiment in the
//!   benchmark harness is reproducible.
//!
//! The backward passes exist so that Fisher Potential (paper §5.2, Eq. 4–5) can
//! be computed *exactly as published*: activations and loss gradients for every
//! convolution channel on one minibatch at initialization — no training involved.
//!
//! ## Example
//!
//! ```
//! use pte_tensor::{Tensor, ops};
//!
//! // A 1-image batch of 3x8x8 input, 4 filters of 3x3x3.
//! let x = Tensor::randn(&[1, 3, 8, 8], 0xC0FFEE);
//! let w = Tensor::randn(&[4, 3, 3, 3], 0xBEEF);
//! let conv = ops::Conv2dSpec::new(3, 4, 3).with_padding(1);
//! let y = ops::conv2d(&x, &w, &conv).unwrap();
//! assert_eq!(y.shape().dims(), &[1, 4, 8, 8]);
//! ```

pub mod data;
pub mod error;
pub mod ops;
pub mod rng;
mod shape;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
