//! The independent correctness oracle: every operator-tree node of a
//! synthesized program evaluated by the naive reference `EinsumSpec`
//! loop nest (no GETT, no packing, no fusion), and digests of its outputs
//! for the programs too large to evaluate that way on every run.

use std::collections::HashMap;
use tce_core::ir::{IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId};
use tce_core::tensor::{EinsumSpec, IntegralFn, Tensor};
use tce_core::Synthesis;

/// Dimension order of a node's value: leaves keep their reference order,
/// contraction results are in ascending index-id order.
fn dims_of(tree: &OpTree, n: NodeId) -> Vec<IndexVar> {
    match &tree.node(n).kind {
        OpKind::Leaf(Leaf::Input { indices, .. } | Leaf::Func { indices, .. }) => indices.clone(),
        _ => tree.node(n).indices.iter().collect(),
    }
}

/// Evaluate one operator tree node by node with the reference einsum.
///
/// # Errors
/// A missing input binding or function.
fn eval_tree(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) -> Result<Tensor, String> {
    let mut values: Vec<Option<Tensor>> = vec![None; tree.nodes.len()];
    for (i, node) in tree.nodes.iter().enumerate() {
        let value = match &node.kind {
            OpKind::Leaf(Leaf::Input { tensor, .. }) => (*inputs
                .get(tensor)
                .ok_or_else(|| format!("oracle: no binding for tensor #{}", tensor.0))?)
            .clone(),
            OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
            OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                let f = funcs
                    .get(name)
                    .ok_or_else(|| format!("oracle: no function `{name}`"))?;
                let shape: Vec<usize> = indices.iter().map(|&v| space.extent(v)).collect();
                Tensor::from_fn(&shape, |idx| f.eval(idx))
            }
            OpKind::Contract { left, right } => {
                let (l, r) = (*left, *right);
                let sum = tree
                    .node(l)
                    .indices
                    .union(tree.node(r).indices)
                    .minus(node.indices);
                let spec = EinsumSpec::new(
                    node.indices.iter().collect(),
                    vec![dims_of(tree, l), dims_of(tree, r)],
                    sum,
                )?;
                let lv = values[l.0 as usize]
                    .take()
                    .ok_or("oracle: operand reused")?;
                let rv = values[r.0 as usize]
                    .take()
                    .ok_or("oracle: operand reused")?;
                spec.eval(space, &[&lv, &rv])
            }
        };
        values[i] = Some(value);
    }
    values[tree.root.0 as usize]
        .take()
        .ok_or_else(|| "oracle: no root value".to_string())
}

/// Evaluate a whole statement sequence with [`eval_tree`] per term:
/// terms scaled by their coefficients and summed, `+=` accumulating,
/// earlier results feeding later statements.
///
/// # Errors
/// A missing input binding or function.
pub fn eval_synthesis(
    syn: &Synthesis,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) -> Result<HashMap<TensorId, Tensor>, String> {
    let space = &syn.program.space;
    let mut computed: HashMap<TensorId, Tensor> = HashMap::new();
    for (si, stmt) in syn.program.stmts.iter().enumerate() {
        let shape: Vec<usize> = stmt.lhs.indices.iter().map(|&v| space.extent(v)).collect();
        let mut acc = match computed.get(&stmt.lhs.tensor) {
            Some(prev) if stmt.accumulate => prev.clone(),
            _ => Tensor::zeros(&shape),
        };
        let canon: Vec<IndexVar> = stmt.lhs.index_set().iter().collect();
        let perm: Vec<usize> = stmt
            .lhs
            .indices
            .iter()
            .map(|v| canon.iter().position(|c| c == v).expect("lhs index"))
            .collect();
        for plan in syn.plans.iter().filter(|p| p.stmt_index == si) {
            let mut bound: HashMap<TensorId, &Tensor> = inputs.clone();
            for (id, t) in &computed {
                bound.insert(*id, t);
            }
            let value = eval_tree(&plan.tree, space, &bound, funcs)?;
            acc.axpy(plan.coeff, &value.permute_with_threads(&perm, 1));
        }
        computed.insert(stmt.lhs.tensor, acc);
    }
    Ok(computed)
}

/// A position-sensitive fingerprint of a tensor: element count, plain
/// sum, absolute sum and a sum weighted by a fixed pseudo-random pattern
/// (so a transposed or shifted result does not match).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Number of elements.
    pub len: usize,
    /// Σ x.
    pub sum: f64,
    /// Σ |x|.
    pub abs_sum: f64,
    /// Σ w(i)·x_i with w(i) ∈ [0, 1).
    pub weighted: f64,
}

fn weight(i: usize) -> f64 {
    let h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((h >> 40) % 1000) as f64 / 1000.0
}

/// Fingerprint `t`.
#[must_use]
pub fn digest(t: &Tensor) -> Digest {
    let mut d = Digest {
        len: t.len(),
        sum: 0.0,
        abs_sum: 0.0,
        weighted: 0.0,
    };
    for (i, &x) in t.data().iter().enumerate() {
        d.sum += x;
        d.abs_sum += x.abs();
        d.weighted += weight(i) * x;
    }
    d
}

/// Relative tolerance of digest and elementwise comparisons: far above
/// reassociation error at these sizes, far below any wrong result.
pub const REL_TOL: f64 = 1e-9;

/// Whether two digests agree to [`REL_TOL`] of the absolute sum.
#[must_use]
pub fn digests_match(a: &Digest, b: &Digest) -> bool {
    let scale = a.abs_sum.max(b.abs_sum).max(f64::MIN_POSITIVE);
    a.len == b.len
        && (a.sum - b.sum).abs() <= REL_TOL * scale
        && (a.abs_sum - b.abs_sum).abs() <= REL_TOL * scale
        && (a.weighted - b.weighted).abs() <= REL_TOL * scale
}

/// Elementwise agreement of two results to [`REL_TOL`] of the larger
/// magnitude (shape must match exactly).
#[must_use]
pub fn tensors_match(got: &Tensor, want: &Tensor) -> bool {
    if got.shape() != want.shape() {
        return false;
    }
    let scale = want
        .data()
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    got.max_abs_diff(want) <= REL_TOL * scale
}

/// Compare every output tensor of a run with the oracle's.
///
/// # Errors
/// Names the first tensor that is missing or differs.
pub fn outputs_match(
    syn: &Synthesis,
    got: &HashMap<TensorId, Tensor>,
    want: &HashMap<TensorId, Tensor>,
) -> Result<(), String> {
    let mut ids: Vec<&TensorId> = want.keys().collect();
    ids.sort_by_key(|id| id.0);
    for id in ids {
        let name = &syn.program.tensors.get(*id).name;
        let g = got
            .get(id)
            .ok_or_else(|| format!("output `{name}` missing"))?;
        if !tensors_match(g, &want[id]) {
            return Err(format!(
                "output `{name}` differs from the einsum oracle by {:.3e}",
                g.max_abs_diff(&want[id])
            ));
        }
    }
    Ok(())
}
