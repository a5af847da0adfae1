//! Forward execution: one node walk, [`Network::run`], behind every pass.
//!
//! A pass starts either from an image ([`Start::Image`], a full forward)
//! or from a cached clean pass ([`Start::Replay`], recomputing only the
//! nodes downstream of one dot-product layer). [`RunOpts`] carries the
//! two things a pass can vary: the input tap (noise injection,
//! quantization, fault injection) and the numerical guard
//! ([`ValidateConfig`], a NaN/Inf sweep at every layer boundary).
//! Every pass writes into an [`ExecArena`]; the convenience methods
//! ([`Network::forward`], [`Network::classify`], …) are thin wrappers
//! that build a fresh arena per call, so there is exactly one place
//! where a node is evaluated.

use crate::arena::{eval_node_into, ExecArena};
use crate::graph::Network;
use crate::layer::{NodeId, Op};
use crate::tap::{InputTap, NoTap};
use mupod_tensor::conv::conv2d_into_tier;
use mupod_tensor::gemm::matvec_into_tier;
use mupod_tensor::pool::{
    avg_pool2d_into, global_avg_pool_into, lrn_across_channels_into, max_pool2d_into,
};
use mupod_tensor::{KernelTier, Tensor, TensorError};

/// What a guarded pass ([`RunOpts::guard`]) checks at each layer boundary.
///
/// The sweep is a single `is_finite` pass over each produced activation —
/// memory-bandwidth cost, negligible next to the dot products that made
/// the tensor — so enabling it inside long profiling sweeps is cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidateConfig {
    /// Sweep the input image before execution starts.
    pub check_input: bool,
    /// Sweep every node's output activation as it is produced.
    pub check_activations: bool,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        Self {
            check_input: true,
            check_activations: true,
        }
    }
}

impl ValidateConfig {
    /// A config that checks nothing: a pass run with it cannot fail.
    pub fn off() -> Self {
        Self {
            check_input: false,
            check_activations: false,
        }
    }
}

/// Errors detected by a guarded pass.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The input image contains a non-finite element.
    NonFiniteInput {
        /// The underlying tensor diagnosis.
        source: TensorError,
    },
    /// A node produced a non-finite activation. The *first* offending
    /// node in topological order is reported, i.e. the layer where the
    /// numerical fault entered the network.
    NonFiniteActivation {
        /// The producing node.
        node: NodeId,
        /// Its layer name.
        name: String,
        /// The underlying tensor diagnosis.
        source: TensorError,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NonFiniteInput { source } => {
                write!(f, "input image is numerically invalid: {source}")
            }
            ExecError::NonFiniteActivation { node, name, source } => {
                write!(
                    f,
                    "layer `{name}` (node {node}) produced a numerically invalid activation: {source}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-node activation tensors produced by a full forward pass.
///
/// Indexing follows [`NodeId`]; the input placeholder holds the image.
#[derive(Debug, Clone)]
pub struct Activations {
    tensors: Vec<Tensor>,
}

impl Activations {
    /// Wraps pre-built per-node tensors (arena construction).
    pub(crate) fn from_tensors(tensors: Vec<Tensor>) -> Self {
        Self { tensors }
    }

    /// Mutable access to the slot vector (arena execution).
    pub(crate) fn tensors_mut(&mut self) -> &mut Vec<Tensor> {
        &mut self.tensors
    }

    /// Activation of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: NodeId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Number of stored activations.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether no activations are stored.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

/// Output shape of one operator given its input shapes.
///
/// The single source of truth for activation shapes: the build step
/// records it per node, and [`ExecArena`] slots are pre-shaped from it.
///
/// # Panics
///
/// Panics on operand-shape mismatches gross enough to make the output
/// shape undefined (finer mismatches are caught by [`eval_op_into`]).
pub(crate) fn op_output_dims(op: &Op, inputs: &[&[usize]]) -> Vec<usize> {
    match op {
        // lint:allow(no-panic-path) reason=the input placeholder has no operands; the build step seeds its shape from the image and never asks
        Op::Input => unreachable!("input placeholder has no inferred shape"),
        Op::Conv2d { params, .. } => {
            assert_eq!(inputs[0].len(), 3, "conv2d expects a CHW input");
            let (oh, ow) = params.out_spatial(inputs[0][1], inputs[0][2]);
            vec![params.out_channels, oh, ow]
        }
        Op::FullyConnected { weight, .. } => vec![weight.dims()[0]],
        Op::ReLU | Op::Lrn { .. } | Op::ChannelAffine { .. } | Op::Add => inputs[0].to_vec(),
        Op::MaxPool(p) | Op::AvgPool(p) => {
            assert_eq!(inputs[0].len(), 3, "pooling expects a CHW tensor");
            let (oh, ow) = p.out_spatial(inputs[0][1], inputs[0][2]);
            vec![inputs[0][0], oh, ow]
        }
        Op::GlobalAvgPool => {
            assert_eq!(inputs[0].len(), 3, "pooling expects a CHW tensor");
            vec![inputs[0][0]]
        }
        Op::Concat => {
            let h = inputs[0][1];
            let w = inputs[0][2];
            let mut total_c = 0;
            for p in inputs {
                assert_eq!(p.len(), 3, "concat expects CHW tensors");
                assert_eq!(p[1], h, "spatial height mismatch in concat");
                assert_eq!(p[2], w, "spatial width mismatch in concat");
                total_c += p[0];
            }
            vec![total_c, h, w]
        }
        Op::Flatten | Op::Softmax => vec![inputs[0].iter().product()],
    }
}

/// Evaluates one operator into a pre-shaped output tensor.
///
/// `out` must already have the shape [`op_output_dims`] reports; its
/// contents are fully overwritten. `patches` is the reusable im2col
/// scratch (grown on demand, never shrunk). Every pass — single-image
/// or batched — evaluates its nodes through this function.
///
/// The dot-product ops (conv, fully-connected) run on `tier`
/// ([`KernelTier::Exact`] keeps the bit-exact contract; `Fast` routes
/// to the SIMD/FMA microkernels); every other op is tier-independent.
///
/// # Panics
///
/// Panics on operand-shape mismatches (the tensor kernels validate).
pub(crate) fn eval_op_into(
    op: &Op,
    inputs: &[&Tensor],
    out: &mut Tensor,
    patches: &mut Vec<f32>,
    tier: KernelTier,
) {
    match op {
        // lint:allow(no-panic-path) reason=executor seeds Input nodes from the image and never schedules them for evaluation
        Op::Input => unreachable!("input placeholder is never evaluated"),
        Op::Conv2d {
            params,
            weight,
            bias,
        } => conv2d_into_tier(
            tier,
            inputs[0],
            weight,
            Some(bias),
            params,
            patches,
            out.data_mut(),
        ),
        Op::FullyConnected { weight, bias } => {
            assert_eq!(
                inputs[0].dims().len(),
                1,
                "fully-connected input must be rank 1 (insert a flatten)"
            );
            matvec_into_tier(
                tier,
                weight.dims()[0],
                weight.dims()[1],
                weight.data(),
                inputs[0].data(),
                Some(bias),
                out.data_mut(),
            );
        }
        Op::ReLU => {
            assert_eq!(out.numel(), inputs[0].numel(), "relu output size mismatch");
            for (o, &v) in out.data_mut().iter_mut().zip(inputs[0].data()) {
                *o = v.max(0.0);
            }
        }
        Op::MaxPool(p) => max_pool2d_into(inputs[0], p, out.data_mut()),
        Op::AvgPool(p) => avg_pool2d_into(inputs[0], p, out.data_mut()),
        Op::GlobalAvgPool => global_avg_pool_into(inputs[0], out.data_mut()),
        Op::Lrn {
            local_size,
            alpha,
            beta,
            k,
        } => lrn_across_channels_into(inputs[0], *local_size, *alpha, *beta, *k, out.data_mut()),
        Op::ChannelAffine { scale, shift } => {
            let t = inputs[0];
            assert_eq!(t.dims().len(), 3, "channel affine expects CHW");
            let (c, h, w) = (t.dims()[0], t.dims()[1], t.dims()[2]);
            assert_eq!(scale.len(), c, "affine channel count mismatch");
            assert_eq!(out.numel(), t.numel(), "affine output size mismatch");
            let data = out.data_mut();
            for ci in 0..c {
                let (s, b) = (scale[ci], shift[ci]);
                let src = &t.data()[ci * h * w..(ci + 1) * h * w];
                for (o, &v) in data[ci * h * w..(ci + 1) * h * w].iter_mut().zip(src) {
                    *o = s * v + b;
                }
            }
        }
        Op::Add => {
            assert_eq!(out.dims(), inputs[0].dims(), "add output shape mismatch");
            out.data_mut().copy_from_slice(inputs[0].data());
            for t in &inputs[1..] {
                assert_eq!(t.dims(), inputs[0].dims(), "shape mismatch in add_assign");
                for (o, &v) in out.data_mut().iter_mut().zip(t.data()) {
                    *o += v;
                }
            }
        }
        Op::Concat => {
            let total: usize = inputs.iter().map(|t| t.numel()).sum();
            assert_eq!(out.numel(), total, "concat output size mismatch");
            let mut off = 0;
            for p in inputs {
                out.data_mut()[off..off + p.numel()].copy_from_slice(p.data());
                off += p.numel();
            }
        }
        Op::Flatten => {
            assert_eq!(
                out.numel(),
                inputs[0].numel(),
                "flatten output size mismatch"
            );
            out.data_mut().copy_from_slice(inputs[0].data());
        }
        Op::Softmax => {
            assert_eq!(inputs[0].dims().len(), 1, "softmax expects rank 1");
            assert_eq!(
                out.numel(),
                inputs[0].numel(),
                "softmax output size mismatch"
            );
            let max = inputs[0]
                .data()
                .iter()
                .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            for (o, &v) in out.data_mut().iter_mut().zip(inputs[0].data()) {
                *o = (v - max).exp();
            }
            let sum: f32 = out.data().iter().sum();
            for o in out.data_mut() {
                *o /= sum;
            }
        }
    }
}

/// Where a pass starts.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// A full forward pass from an image (shape [`Network::input_dims`]).
    /// The tap is offered every dot-product layer, in topological order.
    Image(&'a Tensor),
    /// A suffix replay: recompute only `at` and the nodes downstream of
    /// it, reading every other operand from `base`, a full pass over the
    /// same network. The tap is applied exactly once, to `at`'s data
    /// input, without consulting [`InputTap::wants`]. This is the
    /// workhorse of the paper's profiling loop (§V-A steps 3–4): the
    /// clean activations are computed once per image, then each
    /// (layer, Δ) pair replays only the downstream part.
    Replay {
        /// The clean pass the replay reads unaffected operands from.
        base: &'a Activations,
        /// The dot-product layer whose data input is perturbed.
        at: NodeId,
    },
}

/// What a pass may vary besides its start: the input tap and the
/// numerical guard.
pub struct RunOpts<'t> {
    /// Perturbs the data input of the dot-product layers it claims
    /// ([`crate::tap::NoTap`] for a clean pass).
    pub tap: &'t mut dyn InputTap,
    /// Finiteness checks at each layer boundary
    /// ([`ValidateConfig::off`] for none). A replay ignores
    /// `check_input`: its operands come from an already-produced pass.
    pub guard: ValidateConfig,
}

impl Network {
    /// Runs one pass over `arena` and returns the output (logits) tensor.
    ///
    /// An [`Start::Image`] pass leaves every node's activation in the
    /// arena ([`ExecArena::activations`]). A [`Start::Replay`] overwrites
    /// only the recomputed slots and returns a reference into the arena,
    /// or into `base` when the output is not downstream of `at`. Once the
    /// arena is warm, a pass performs no heap allocation; the arena's
    /// kernel tier decides how dot products are computed.
    ///
    /// # Errors
    ///
    /// Only with a guard on: [`ExecError::NonFiniteInput`] for a bad
    /// image and [`ExecError::NonFiniteActivation`] naming the first
    /// evaluated layer whose output contains NaN/Inf. The tap may itself
    /// inject non-finite values — that is exactly what the
    /// fault-injection harness does — and the sweep blames the first
    /// layer whose *output* carries them.
    ///
    /// # Panics
    ///
    /// Panics if the image does not match [`Network::input_dims`], `base`
    /// does not belong to this network, `at` is not a dot-product layer,
    /// or the arena was built for a different network.
    pub fn run<'a>(
        &self,
        start: Start<'a>,
        opts: RunOpts<'_>,
        arena: &'a mut ExecArena,
    ) -> Result<&'a Tensor, ExecError> {
        let RunOpts { tap, guard } = opts;
        let n = self.nodes.len();
        let tier = arena.tier;
        let ExecArena {
            acts,
            patches,
            tap_scratch,
            affected,
            ..
        } = arena;
        let tensors = acts.tensors_mut();
        assert_eq!(tensors.len(), n, "arena does not match network");
        affected.clear();
        // `base` is `None` for a full pass; `first` is the first node
        // evaluated. `affected` marks the nodes this pass recomputes.
        let (base, first) = match start {
            Start::Image(image) => {
                assert_eq!(
                    image.dims(),
                    self.input_dims(),
                    "image shape does not match network input"
                );
                if guard.check_input {
                    image
                        .validate_finite()
                        .map_err(|source| ExecError::NonFiniteInput { source })?;
                }
                mupod_obs::counter_add("nn.forward_passes", 1);
                tensors[0].copy_from(image);
                affected.resize(n, true);
                (None, 1)
            }
            Start::Replay { base, at } => {
                assert_eq!(base.len(), n, "activation cache does not match network");
                assert!(
                    self.nodes[at.0].op.is_dot_product(),
                    "suffix replay must start at a dot-product layer"
                );
                mupod_obs::counter_add("nn.suffix_replays", 1);
                affected.resize(n, false);
                affected[at.0] = true;
                for i in (at.0 + 1)..n {
                    affected[i] = self.nodes[i].inputs.iter().any(|p| affected[p.0]);
                }
                (Some(base), at.0)
            }
        };
        mupod_obs::counter_add(
            "nn.node_evals",
            affected[first..].iter().filter(|&&a| a).count() as u64,
        );
        for i in first..n {
            if !affected[i] {
                continue;
            }
            let node = &self.nodes[i];
            let id = NodeId(i);
            let (prev, rest) = tensors.split_at_mut(i);
            let out = &mut rest[0];
            let resolve = |p: NodeId| match base {
                Some(b) if !affected[p.0] => b.get(p),
                _ => &prev[p.0],
            };
            let tapped = match base {
                Some(_) => i == first,
                None => node.op.is_dot_product() && tap.wants(id),
            };
            if tapped {
                let src = resolve(node.inputs[0]);
                let scratch = tap_scratch[i].get_or_insert_with(|| src.clone());
                scratch.copy_from(src);
                tap.apply(id, scratch);
                eval_op_into(&node.op, &[&*scratch], out, patches, tier);
            } else {
                eval_node_into(&node.op, &node.inputs, resolve, out, patches, tier);
            }
            if guard.check_activations {
                out.validate_finite()
                    .map_err(|source| ExecError::NonFiniteActivation {
                        node: id,
                        name: node.name.clone(),
                        source,
                    })?;
            }
        }
        Ok(match base {
            Some(b) if !affected[self.output.0] => b.get(self.output),
            _ => &tensors[self.output.0],
        })
    }

    /// Runs a clean forward pass on a fresh arena, returning every
    /// activation.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`].
    pub fn forward(&self, image: &Tensor) -> Activations {
        let mut arena = ExecArena::for_network(self);
        self.forward_arena(image, &mut arena);
        arena.acts
    }

    /// [`Network::forward`] with every layer boundary guarded by the
    /// default [`ValidateConfig`].
    ///
    /// # Errors
    ///
    /// See [`Network::run`].
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`].
    pub fn forward_checked(&self, image: &Tensor) -> Result<Activations, ExecError> {
        let mut arena = ExecArena::for_network(self);
        let opts = RunOpts {
            tap: &mut NoTap,
            guard: ValidateConfig::default(),
        };
        self.run(Start::Image(image), opts, &mut arena)?;
        Ok(arena.acts)
    }

    /// [`Network::forward`] over a reusable arena — zero heap allocation
    /// once the arena is warm.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`] or the
    /// arena was built for a different network.
    pub fn forward_arena<'a>(&self, image: &Tensor, arena: &'a mut ExecArena) -> &'a Activations {
        self.forward_tapped_arena(image, &mut NoTap, arena)
    }

    /// An unguarded full pass under `tap` over a reusable arena.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`] or the
    /// arena was built for a different network.
    pub fn forward_tapped_arena<'a>(
        &self,
        image: &Tensor,
        tap: &mut dyn InputTap,
        arena: &'a mut ExecArena,
    ) -> &'a Activations {
        let opts = RunOpts {
            tap,
            guard: ValidateConfig::off(),
        };
        if let Err(e) = self.run(Start::Image(image), opts, arena) {
            // lint:allow(no-panic-path) reason=run fails only a guard check, and this pass runs with the guard off
            unreachable!("unguarded pass failed: {e}");
        }
        &arena.acts
    }

    /// The output (logits) tensor of a completed pass.
    pub fn output<'a>(&self, acts: &'a Activations) -> &'a Tensor {
        acts.get(self.output)
    }

    /// Classifies an image: the argmax of the logits after a clean pass
    /// on a fresh arena.
    pub fn classify(&self, image: &Tensor) -> usize {
        self.classify_arena(image, &mut ExecArena::for_network(self))
    }

    /// [`Network::classify`] over a reusable arena.
    pub fn classify_arena(&self, image: &Tensor, arena: &mut ExecArena) -> usize {
        self.output(self.forward_arena(image, arena)).argmax()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use crate::tap::{FaultKind, FaultTap, UniformNoiseTap};
    use mupod_stats::SeededRng;
    use mupod_tensor::conv::Conv2dParams;
    use mupod_tensor::pool::Pool2dParams;

    pub(crate) fn random_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(
            dims,
            (0..n).map(|_| rng.gaussian(0.0, 0.5) as f32).collect(),
        )
    }

    /// A net exercising every op: conv, affine, relu, pools, lrn,
    /// residual add, concat, flatten, fc.
    pub(crate) fn full_net(rng: &mut SeededRng) -> Network {
        let mut b = NetworkBuilder::new(&[2, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d(
            "c1",
            input,
            Conv2dParams::new(2, 4, 3, 1, 1),
            random_tensor(rng, &[4, 2, 3, 3]),
            vec![0.05; 4],
        );
        let bn = b.channel_affine("bn1", c1, vec![1.1; 4], vec![-0.02; 4]);
        let r1 = b.relu("r1", bn);
        let lrn = b.lrn("lrn1", r1, 3, 1e-2, 0.75, 1.0);
        let p1 = b.max_pool("p1", lrn, Pool2dParams::new(2, 2, 0)); // 4x4
        let c2 = b.conv2d(
            "c2",
            p1,
            Conv2dParams::new(4, 4, 3, 1, 1),
            random_tensor(rng, &[4, 4, 3, 3]),
            vec![0.0; 4],
        );
        let res = b.add("res", &[p1, c2]);
        let c3 = b.conv2d(
            "c3a",
            res,
            Conv2dParams::new(4, 2, 1, 1, 0),
            random_tensor(rng, &[2, 4, 1, 1]),
            vec![0.0; 2],
        );
        let c4 = b.conv2d(
            "c3b",
            res,
            Conv2dParams::new(4, 2, 3, 1, 1),
            random_tensor(rng, &[2, 4, 3, 3]),
            vec![0.0; 2],
        );
        let cat = b.concat("cat", &[c3, c4]);
        let ap = b.avg_pool("ap", cat, Pool2dParams::new(2, 2, 0)); // 2x2
        let fl = b.flatten("fl", ap);
        let fc = b.fully_connected("fc", fl, random_tensor(rng, &[5, 16]), vec![0.0; 5]);
        b.build(fc).unwrap()
    }

    /// A suffix replay from `at` on a fresh arena.
    fn replay(
        net: &Network,
        base: &Activations,
        at: NodeId,
        tap: &mut dyn InputTap,
        guard: ValidateConfig,
    ) -> Result<Tensor, ExecError> {
        let mut arena = ExecArena::for_network(net);
        let opts = RunOpts { tap, guard };
        net.run(Start::Replay { base, at }, opts, &mut arena)
            .cloned()
    }

    fn softmax(v: &[f32]) -> Tensor {
        let input = Tensor::from_vec(&[v.len()], v.to_vec());
        let mut out = Tensor::zeros(&[v.len()]);
        eval_op_into(
            &Op::Softmax,
            &[&input],
            &mut out,
            &mut Vec::new(),
            KernelTier::Exact,
        );
        out
    }

    #[test]
    fn forward_shapes_all_ops() {
        let mut rng = SeededRng::new(3);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let acts = net.forward(&image);
        assert_eq!(net.output(&acts).dims(), &[5]);
        assert_eq!(acts.len(), net.node_count());
    }

    #[test]
    fn softmax_sums_to_one() {
        let out = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.data()[2] > out.data()[1]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let out = softmax(&[1000.0, 1001.0]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn suffix_replay_matches_full_tapped_pass() {
        let mut rng = SeededRng::new(5);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let mut arena = ExecArena::for_network(&net);

        for &layer in &net.dot_product_layers() {
            // The same seeded tap must produce identical outputs whether
            // we replay the suffix or rerun the full network.
            let mut tap_a = UniformNoiseTap::single(layer, 0.05, SeededRng::new(77));
            let suffix_out = replay(&net, &base, layer, &mut tap_a, ValidateConfig::off()).unwrap();

            let mut tap_b = UniformNoiseTap::single(layer, 0.05, SeededRng::new(77));
            let full = net.forward_tapped_arena(&image, &mut tap_b, &mut arena);
            let full_out = net.output(full);

            assert_eq!(suffix_out.dims(), full_out.dims());
            for (a, b) in suffix_out.data().iter().zip(full_out.data()) {
                assert!((a - b).abs() < 1e-5, "layer {layer}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn suffix_replay_without_noise_equals_clean() {
        let mut rng = SeededRng::new(9);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = net.dot_product_layers()[1];
        let out = replay(&net, &base, layer, &mut NoTap, ValidateConfig::off()).unwrap();
        for (a, b) in out.data().iter().zip(net.output(&base).data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn injection_changes_output() {
        let mut rng = SeededRng::new(13);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = net.dot_product_layers()[0];
        let mut tap = UniformNoiseTap::single(layer, 0.5, SeededRng::new(1));
        let noisy = replay(&net, &base, layer, &mut tap, ValidateConfig::off()).unwrap();
        let diff = noisy.sub(net.output(&base));
        assert!(diff.max_abs() > 0.0);
    }

    #[test]
    fn classify_is_argmax_of_logits() {
        let mut rng = SeededRng::new(15);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let acts = net.forward(&image);
        assert_eq!(net.classify(&image), net.output(&acts).argmax());
    }

    #[test]
    #[should_panic(expected = "image shape does not match")]
    fn forward_rejects_wrong_image_shape() {
        let mut rng = SeededRng::new(17);
        let net = full_net(&mut rng);
        net.forward(&Tensor::zeros(&[1, 8, 8]));
    }

    #[test]
    fn checked_pass_accepts_clean_network() {
        let mut rng = SeededRng::new(21);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let acts = net.forward_checked(&image).unwrap();
        let plain = net.forward(&image);
        assert_eq!(
            net.output(&acts).data(),
            net.output(&plain).data(),
            "validation must not change the numbers"
        );
    }

    #[test]
    fn checked_pass_rejects_non_finite_image() {
        let mut rng = SeededRng::new(23);
        let net = full_net(&mut rng);
        let mut image = random_tensor(&mut rng, &[2, 8, 8]);
        image.data_mut()[7] = f32::NAN;
        match net.forward_checked(&image).unwrap_err() {
            ExecError::NonFiniteInput { .. } => {}
            e => panic!("expected NonFiniteInput, got {e:?}"),
        }
    }

    #[test]
    fn checked_pass_blames_first_faulty_layer() {
        let mut rng = SeededRng::new(25);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let layer = net.dot_product_layers()[1];
        let mut tap = FaultTap::single_element(layer, FaultKind::Nan);
        let opts = RunOpts {
            tap: &mut tap,
            guard: ValidateConfig::default(),
        };
        let mut arena = ExecArena::for_network(&net);
        match net.run(Start::Image(&image), opts, &mut arena).unwrap_err() {
            // The NaN enters via the tapped layer's input, so the tapped
            // layer itself is the first to emit a non-finite output.
            ExecError::NonFiniteActivation { node, .. } => assert_eq!(node, layer),
            e => panic!("expected NonFiniteActivation, got {e:?}"),
        }
    }

    #[test]
    fn checked_suffix_replay_detects_injected_inf() {
        let mut rng = SeededRng::new(27);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = net.dot_product_layers()[0];
        let mut tap = FaultTap::new(layer, FaultKind::PosInf, 1);
        let err = replay(&net, &base, layer, &mut tap, ValidateConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::NonFiniteActivation { .. }));
        let msg = err.to_string();
        assert!(msg.contains("numerically invalid"), "{msg}");
    }

    #[test]
    fn validation_off_passes_faults_through() {
        let mut rng = SeededRng::new(29);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let layer = net.dot_product_layers()[0];
        let mut tap = FaultTap::single_element(layer, FaultKind::Nan);
        // With checks off the pass completes without complaint even
        // though a NaN flowed through it — max-based ops (ReLU, pooling)
        // can even launder it back into finite-but-wrong values. This is
        // exactly the silent corruption the guardrails exist to prevent.
        let opts = RunOpts {
            tap: &mut tap,
            guard: ValidateConfig::off(),
        };
        let mut arena = ExecArena::for_network(&net);
        assert!(net.run(Start::Image(&image), opts, &mut arena).is_ok());
    }

    #[test]
    fn affected_set_is_downstream_closure() {
        let mut rng = SeededRng::new(19);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let first = net.dot_product_layers()[0];
        let mut arena = ExecArena::for_network(&net);
        let opts = RunOpts {
            tap: &mut NoTap,
            guard: ValidateConfig::off(),
        };
        net.run(
            Start::Replay {
                base: &base,
                at: first,
            },
            opts,
            &mut arena,
        )
        .unwrap();
        // Everything from the first conv onward is downstream of it in
        // this topology.
        assert!(arena.affected[first.index()]);
        assert!(arena.affected[net.output_id().index()]);
        // The input placeholder is never affected.
        assert!(!arena.affected[0]);
    }
}
