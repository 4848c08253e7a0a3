//! # pte-nn — neural network structures
//!
//! The networks the paper evaluates, as data the rest of the framework
//! consumes:
//!
//! * [`ConvLayer`] / [`Network`] — a network is (for `pte`'s purposes) its
//!   ordered list of convolution layers plus a classifier; each layer lowers
//!   to a `pte-ir` loop nest for transformation, costing and Fisher scoring.
//! * Builders for every evaluated model: ResNet-18/34, ResNeXt-29 (2×64d) and
//!   DenseNet-161/169/201, in both CIFAR-10 and ImageNet variants (paper
//!   §6.1: "chosen to represent a range of convolutional architectures, from
//!   standard 3×3 convolutions … to grouped convolutions … and a heavy
//!   reliance on 1×1 convolutions").
//! * [`cell`] — the NAS-Bench-201-style cell design space of the paper's
//!   Figure 2 / Figure 3: 4 nodes, 5 candidate operations per edge, 15,625
//!   cells in total.
//! * [`accuracy`] — the **documented surrogate** for trained accuracy
//!   (rationale in the module docs): deterministic, calibrated functions from
//!   architecture statistics to final test error. Fisher Potential itself is
//!   *not* surrogate — `pte-fisher` computes it numerically.
//!
//! ## Example
//!
//! ```
//! use pte_nn::{resnet34, DatasetKind};
//!
//! let net = resnet34(DatasetKind::ImageNet);
//! assert_eq!(net.convs().len(), 36); // 33 block convs + stem + shortcuts
//! let params = net.params();
//! assert!(params > 21_000_000 && params < 22_500_000); // the paper's 22M
//! ```

pub mod accuracy;
pub mod cell;
mod densenet;
mod layer;
mod network;
mod resnet;
mod resnext;

pub use densenet::{densenet161, densenet169, densenet201};
pub use layer::ConvLayer;
pub use network::{DatasetKind, Network};
pub use resnet::{resnet18, resnet34};
pub use resnext::resnext29_2x64d;
