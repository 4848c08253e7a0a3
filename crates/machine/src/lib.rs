//! # pte-machine — hardware platform models
//!
//! The paper evaluates on four real devices: an Intel Core i7 (CPU), an
//! Nvidia GTX 1080Ti (GPU), an ARM Cortex-A57 (mCPU) and the Jetson Nano's
//! 128-core Maxwell (mGPU). Those devices are not available here, so this
//! crate substitutes calibrated **analytical performance models** plus a
//! **set-associative cache simulator** for validating the locality analysis.
//!
//! * [`Platform`] — descriptor (cores, SIMD lanes, cache hierarchy, memory
//!   bandwidth, GPU geometry) with presets for the paper's four devices.
//! * [`cost`] — the cost model: given a scheduled nest it estimates compute
//!   time (vector/parallel scaling), memory time (tile-footprint reuse
//!   analysis), and loop/launch overheads, returning a [`cost::CostReport`].
//! * [`cachesim`] — multi-level LRU cache simulation over `pte-exec` address
//!   traces; used by tests and the `cachesim_vs_model` ablation bench to
//!   check that the analytical locality model orders schedules the same way
//!   real caches would.
//!
//! Absolute numbers are *not* claimed to match the paper's testbed — the
//! reproduction target is the shape of the results: which schedule wins on
//! which platform, and by roughly what factor.
//!
//! ## Example
//!
//! ```
//! use pte_ir::{ConvShape, LoopNest};
//! use pte_machine::{cost, Platform};
//! use pte_transform::Schedule;
//!
//! let mut s = Schedule::new(LoopNest::conv2d(&ConvShape::standard(64, 64, 3, 34, 34)));
//! s.parallel("co")?;
//! let report = cost::estimate(&s, &Platform::intel_i7());
//! assert!(report.time_ms > 0.0);
//! # Ok::<(), pte_transform::TransformError>(())
//! ```

pub mod analyze;
pub mod cachesim;
pub mod cost;
mod platform;

pub use platform::{CacheLevel, GpuGeometry, Platform, PlatformKind};
