//! Memory-address trace generation for the cache simulator.
//!
//! Replays a nest's accesses in schedule order, emitting byte addresses. The
//! `pte-machine` cache simulator consumes these traces to validate the
//! analytical locality model on small nests (the `cachesim_vs_model` bench
//! in `pte-bench`).

use std::collections::BTreeMap;

use pte_ir::LoopNest;

use crate::Result;

/// One memory event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEvent {
    /// Byte address.
    pub address: u64,
    /// Whether the access writes.
    pub is_write: bool,
}

/// Generates the address trace of a nest, up to `max_events` events.
///
/// Tensors are laid out back to back, 64-byte aligned, 4 bytes per element.
/// Returns `(trace, truncated)` where `truncated` says whether the limit cut
/// the trace short.
///
/// # Errors
/// Returns an error for nests without multiply–accumulate statements.
pub fn address_trace(nest: &LoopNest, max_events: usize) -> Result<(Vec<MemoryEvent>, bool)> {
    // Assign base addresses.
    let mut bases: BTreeMap<String, u64> = BTreeMap::new();
    let mut next: u64 = 0;
    for t in nest.tensors() {
        bases.insert(t.name.clone(), next);
        let bytes = (t.len() as u64) * 4;
        next += bytes.div_ceil(64) * 64;
    }

    let positions: BTreeMap<_, _> =
        nest.loops().iter().enumerate().map(|(p, l)| (l.id(), p)).collect();
    let extents: Vec<i64> = nest.loops().iter().map(|l| l.extent()).collect();
    let n = extents.len();

    // Pre-resolve accesses to (base, constant, coefs, is_write).
    struct Resolved {
        base: u64,
        constant: i64,
        coefs: Vec<i64>,
        is_write: bool,
    }
    let mut resolved: Vec<Resolved> = Vec::new();
    for stmt in nest.stmts() {
        for access in stmt.accesses() {
            let decl = nest
                .tensor(access.tensor())
                .ok_or(crate::ExecError::MissingBinding { tensor: access.tensor().to_string() })?;
            let mut strides = vec![1i64; decl.dims.len()];
            for i in (0..decl.dims.len().saturating_sub(1)).rev() {
                strides[i] = strides[i + 1] * decl.dims[i + 1];
            }
            let mut constant = 0i64;
            let mut coefs = vec![0i64; n];
            for (expr, &stride) in access.indices().iter().zip(&strides) {
                constant += expr.constant_term() * stride;
                for (iter, coef) in expr.iter_terms() {
                    if let Some(&pos) = positions.get(&iter) {
                        coefs[pos] += coef * stride;
                    }
                }
            }
            resolved.push(Resolved {
                base: bases[access.tensor()],
                constant,
                coefs,
                is_write: access.kind().writes(),
            });
        }
    }

    let mut trace = Vec::new();
    let mut idx = vec![0i64; n];
    let total: i64 = extents.iter().product();
    let mut truncated = false;
    'outer: for _ in 0..total {
        for r in &resolved {
            if trace.len() >= max_events {
                truncated = true;
                break 'outer;
            }
            let mut off = r.constant;
            for (c, i) in r.coefs.iter().zip(&idx) {
                off += c * i;
            }
            trace.push(MemoryEvent { address: r.base + (off as u64) * 4, is_write: r.is_write });
        }
        for d in (0..n).rev() {
            idx[d] += 1;
            if idx[d] < extents[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    Ok((trace, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_ir::{ConvShape, LoopNest};

    #[test]
    fn trace_length_matches_access_count() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(2, 2, 3, 3));
        let (trace, truncated) = address_trace(&nest, usize::MAX).unwrap();
        // 3 accesses per instance; instances = 2*3*3*2*1*1.
        assert_eq!(trace.len(), 3 * 2 * 3 * 3 * 2);
        assert!(!truncated);
    }

    #[test]
    fn truncation_respects_limit() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(4, 4, 8, 8));
        let (trace, truncated) = address_trace(&nest, 100).unwrap();
        assert_eq!(trace.len(), 100);
        assert!(truncated);
    }

    #[test]
    fn writes_flagged() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(2, 2, 2, 2));
        let (trace, _) = address_trace(&nest, usize::MAX).unwrap();
        // Every instance has exactly one write (the += output access).
        let writes = trace.iter().filter(|e| e.is_write).count();
        assert_eq!(writes, trace.len() / 3);
    }

    #[test]
    fn tensors_do_not_overlap() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(2, 2, 2, 2));
        let (trace, _) = address_trace(&nest, usize::MAX).unwrap();
        // I starts at 0; O and W follow; all addresses must stay within the
        // combined footprint.
        let footprint: u64 =
            nest.tensors().iter().map(|t| ((t.len() as u64 * 4).div_ceil(64)) * 64).sum();
        assert!(trace.iter().all(|e| e.address < footprint));
    }

    #[test]
    fn loop_order_changes_trace_order() {
        use pte_transform::Schedule;
        let nest = LoopNest::conv2d(&ConvShape::pointwise(4, 4, 4, 4));
        let (a, _) = address_trace(&nest, 64).unwrap();
        let mut s = Schedule::new(nest);
        s.interchange("co", "ci").unwrap();
        let (b, _) = address_trace(s.nest(), 64).unwrap();
        assert_ne!(a, b);
    }
}
