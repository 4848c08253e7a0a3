//! Tier-1 pin of the kernel determinism contract: a small unified search
//! produces byte-identical plan bytes whether every GEMM runs on the
//! portable scalar micro-kernel or on the runtime-chosen path (the AVX2
//! micro-kernel where the CPU has it). Fisher probe scores flow through
//! GEMM into legality decisions and the final plan, so one diverging bit
//! in a kernel would show up here as different bytes.
//!
//! The only test in its binary on purpose: `set_gemm_backend` is
//! process-global, so a sibling test's searches would race the forced
//! setting (see `crates/search/tests/simd_plan_parity.rs`, which pins the
//! same contract on a larger network across all backends). The probe memo
//! is cleared before each run: scores are bit-identical across backends,
//! so a stale memo would mask a kernel divergence rather than cause one.

use pte::fisher::proxy::clear_probe_cache;
use pte::tensor::ops::gemm::{set_gemm_backend, simd_kernel_available, GemmBackend};
use pte_serve::codec;
use pte_serve::workload::bench_request;

#[test]
fn unified_plans_are_byte_identical_under_scalar_and_auto_gemm() {
    let request = bench_request(0x51AD);
    let mut payloads = Vec::new();
    for backend in [GemmBackend::PackedScalar, GemmBackend::Auto] {
        set_gemm_backend(backend);
        clear_probe_cache();
        payloads.push(codec::execute(&request).expect("in-process search"));
    }
    set_gemm_backend(GemmBackend::Auto);
    clear_probe_cache();
    assert_eq!(payloads[0], payloads[1], "plan bytes diverged between scalar and auto GEMM");
    println!(
        "simd_parity: AVX2 micro-kernel {}",
        if simd_kernel_available() { "exercised" } else { "unavailable (scalar on both legs)" }
    );
}
