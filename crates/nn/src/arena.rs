//! [`ExecArena`]: the reusable state every forward pass writes into.
//!
//! The profiling loop replays thousands of (layer, Δ, image) suffixes per
//! network. [`Network::run`] hoists every allocation out of that loop
//! into an arena: activation slots are pre-shaped from the dimensions the
//! build step recorded, the im2col scratch is grown once and reused, and
//! tap scratch tensors are cloned lazily on first use. After the first
//! pass a warm arena performs **zero** heap allocation per forward or
//! suffix replay.
//!
//! A warm arena computes the same bits as a fresh one: every pass
//! overwrites each slot it reads before reading it. The test suite
//! asserts that bit-equality on a graph exercising every operator,
//! including a full pass that follows a suffix replay.

use crate::exec::{eval_op_into, Activations};
use crate::graph::Network;
use crate::layer::{NodeId, Op};
use mupod_tensor::{KernelTier, Tensor};

/// Largest fan-in gathered on the stack; wider nodes (unheard of in the
/// model zoo, where concat tops out at a handful of branches) fall back
/// to a heap-allocated gather.
const MAX_FANIN: usize = 16;

/// Reusable execution state for one network: pre-shaped activation
/// slots, im2col scratch, tap scratch and an affected-set buffer.
///
/// Create one arena per worker thread with [`ExecArena::for_network`]
/// and pass it to [`Network::run`] (or the `*_arena` wrappers). An arena
/// is shape-locked to the network it was built for; using it with a
/// different network panics on the first shape mismatch.
///
/// # Example
///
/// ```
/// use mupod_nn::{ExecArena, NetworkBuilder};
/// use mupod_tensor::{conv::Conv2dParams, Tensor};
///
/// let mut b = NetworkBuilder::new(&[1, 4, 4]);
/// let input = b.input();
/// let conv = b.conv2d(
///     "conv1",
///     input,
///     Conv2dParams::new(1, 2, 3, 1, 1),
///     Tensor::filled(&[2, 1, 3, 3], 0.1),
///     vec![0.0, 0.0],
/// );
/// let net = b.build(conv).unwrap();
/// let mut arena = ExecArena::for_network(&net);
/// let image = Tensor::filled(&[1, 4, 4], 1.0);
/// let acts = net.forward_arena(&image, &mut arena);
/// assert_eq!(net.output(acts).dims(), &[2, 4, 4]);
/// ```
#[derive(Debug)]
pub struct ExecArena {
    /// Per-node activation slots, shaped from the build step.
    pub(crate) acts: Activations,
    /// Shared im2col patch scratch, grown on demand and never shrunk.
    pub(crate) patches: Vec<f32>,
    /// Lazily-cloned per-node tap input scratch.
    pub(crate) tap_scratch: Vec<Option<Tensor>>,
    /// The nodes the most recent pass recomputed.
    pub(crate) affected: Vec<bool>,
    /// Kernel tier every dot-product op in this arena dispatches to.
    pub(crate) tier: KernelTier,
}

impl ExecArena {
    /// Builds an arena sized for `net`, allocating every activation slot
    /// up front from the shapes recorded at build time. Runs on the
    /// bit-exact kernel tier; see [`ExecArena::for_network_tier`].
    pub fn for_network(net: &Network) -> Self {
        Self::for_network_tier(net, KernelTier::Exact)
    }

    /// [`ExecArena::for_network`] with an explicit kernel tier: every
    /// conv / fully-connected evaluation through this arena dispatches
    /// to `tier`'s kernels ([`KernelTier::Fast`] trades bit-exactness
    /// for the SIMD/FMA microkernels — see `mupod_tensor::fast`).
    pub fn for_network_tier(net: &Network, tier: KernelTier) -> Self {
        let slots = (0..net.node_count())
            .map(|i| Tensor::zeros(net.node_out_dims(NodeId(i))))
            .collect();
        Self {
            acts: Activations::from_tensors(slots),
            patches: Vec::new(),
            tap_scratch: vec![None; net.node_count()],
            affected: Vec::new(),
            tier,
        }
    }

    /// The activations written by the most recent full pass.
    pub fn activations(&self) -> &Activations {
        &self.acts
    }

    /// The kernel tier this arena dispatches dot-product ops to.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }
}

/// Gathers a node's input tensors (on the stack for fan-in up to
/// [`MAX_FANIN`]) and evaluates the op into `out`.
pub(crate) fn eval_node_into<'t>(
    op: &Op,
    inputs: &[NodeId],
    resolve: impl Fn(NodeId) -> &'t Tensor,
    out: &mut Tensor,
    patches: &mut Vec<f32>,
    tier: KernelTier,
) {
    if !inputs.is_empty() && inputs.len() <= MAX_FANIN {
        let mut buf = [resolve(inputs[0]); MAX_FANIN];
        for (slot, &p) in buf.iter_mut().zip(inputs) {
            *slot = resolve(p);
        }
        eval_op_into(op, &buf[..inputs.len()], out, patches, tier);
    } else {
        let gathered: Vec<&Tensor> = inputs.iter().map(|&p| resolve(p)).collect();
        eval_op_into(op, &gathered, out, patches, tier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{full_net, random_tensor};
    use crate::exec::{ExecError, RunOpts, Start, ValidateConfig};
    use crate::tap::{FaultKind, FaultTap, InputTap, NoTap, UniformNoiseTap};
    use mupod_stats::SeededRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn images(seed: u64, n: usize) -> Vec<Tensor> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|_| random_tensor(&mut rng, &[2, 8, 8]))
            .collect()
    }

    /// The logits of one pass from `start` on `arena`.
    fn run_bits(
        net: &Network,
        start: Start<'_>,
        tap: &mut dyn InputTap,
        guard: ValidateConfig,
        arena: &mut ExecArena,
    ) -> Result<Vec<u32>, ExecError> {
        net.run(start, RunOpts { tap, guard }, arena).map(bits)
    }

    #[test]
    fn warm_arena_forward_bit_identical_to_fresh() {
        let mut rng = SeededRng::new(3);
        let net = full_net(&mut rng);
        let mut warm = ExecArena::for_network(&net);
        // Several images through the SAME arena: warm-slot reuse must not
        // leak state between passes.
        for (k, image) in images(100, 4).iter().enumerate() {
            let fresh = net.forward(image);
            let acts = net.forward_arena(image, &mut warm);
            for i in 0..net.node_count() {
                assert_eq!(
                    bits(fresh.get(NodeId(i))),
                    bits(acts.get(NodeId(i))),
                    "node {i} diverged on image {k}"
                );
            }
        }
    }

    #[test]
    fn warm_arena_tapped_forward_bit_identical_to_fresh() {
        let mut rng = SeededRng::new(5);
        let net = full_net(&mut rng);
        let mut warm = ExecArena::for_network(&net);
        for image in &images(200, 2) {
            for &layer in &net.dot_product_layers() {
                let mut tap_a = UniformNoiseTap::single(layer, 0.05, SeededRng::new(77));
                let mut fresh = ExecArena::for_network(&net);
                let want =
                    bits(net.output(net.forward_tapped_arena(image, &mut tap_a, &mut fresh)));
                let mut tap_b = UniformNoiseTap::single(layer, 0.05, SeededRng::new(77));
                let got = bits(net.output(net.forward_tapped_arena(image, &mut tap_b, &mut warm)));
                assert_eq!(want, got, "tapped layer {layer} diverged");
            }
        }
    }

    #[test]
    fn warm_arena_suffix_bit_identical_to_fresh() {
        let mut rng = SeededRng::new(7);
        let net = full_net(&mut rng);
        let mut warm = ExecArena::for_network(&net);
        for image in &images(300, 2) {
            let base = net.forward(image);
            for &layer in &net.dot_product_layers() {
                let start = Start::Replay {
                    base: &base,
                    at: layer,
                };
                let mut tap_a = UniformNoiseTap::single(layer, 0.05, SeededRng::new(42));
                let mut fresh = ExecArena::for_network(&net);
                let want = run_bits(&net, start, &mut tap_a, ValidateConfig::off(), &mut fresh);
                let mut tap_b = UniformNoiseTap::single(layer, 0.05, SeededRng::new(42));
                let got = run_bits(&net, start, &mut tap_b, ValidateConfig::off(), &mut warm);
                assert_eq!(want.unwrap(), got.unwrap(), "suffix from {layer} diverged");
            }
        }
    }

    #[test]
    fn warm_arena_guarded_pass_matches_and_detects_faults() {
        let mut rng = SeededRng::new(9);
        let net = full_net(&mut rng);
        let mut warm = ExecArena::for_network(&net);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        net.forward_arena(&random_tensor(&mut rng, &[2, 8, 8]), &mut warm);

        let fresh = net.forward_checked(&image).unwrap();
        let got = run_bits(
            &net,
            Start::Image(&image),
            &mut NoTap,
            ValidateConfig::default(),
            &mut warm,
        );
        assert_eq!(bits(net.output(&fresh)), got.unwrap());

        let layer = net.dot_product_layers()[1];
        let mut tap = FaultTap::single_element(layer, FaultKind::Nan);
        let err = run_bits(
            &net,
            Start::Image(&image),
            &mut tap,
            ValidateConfig::default(),
            &mut warm,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::NonFiniteActivation { .. }));
    }

    #[test]
    fn warm_arena_guarded_suffix_detects_injected_inf() {
        let mut rng = SeededRng::new(11);
        let net = full_net(&mut rng);
        let mut warm = ExecArena::for_network(&net);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward_arena(&image, &mut warm).clone();
        let layer = net.dot_product_layers()[0];
        let mut tap = FaultTap::new(layer, FaultKind::PosInf, 1);
        let start = Start::Replay {
            base: &base,
            at: layer,
        };
        let err =
            run_bits(&net, start, &mut tap, ValidateConfig::default(), &mut warm).unwrap_err();
        assert!(matches!(err, ExecError::NonFiniteActivation { .. }));
    }

    #[test]
    fn warm_arena_classify_matches_fresh() {
        let mut rng = SeededRng::new(13);
        let net = full_net(&mut rng);
        let mut warm = ExecArena::for_network(&net);
        for image in &images(400, 3) {
            assert_eq!(net.classify(image), net.classify_arena(image, &mut warm));
        }
    }

    #[test]
    fn suffix_then_forward_does_not_leak_state() {
        // A suffix replay leaves stale values in unaffected slots; a
        // subsequent full forward must overwrite every slot it reads.
        let mut rng = SeededRng::new(15);
        let net = full_net(&mut rng);
        let mut arena = ExecArena::for_network(&net);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = *net.dot_product_layers().last().unwrap();
        let mut tap = UniformNoiseTap::single(layer, 0.5, SeededRng::new(1));
        let start = Start::Replay {
            base: &base,
            at: layer,
        };
        run_bits(&net, start, &mut tap, ValidateConfig::off(), &mut arena).unwrap();

        let image2 = random_tensor(&mut rng, &[2, 8, 8]);
        let fresh = net.forward(&image2);
        let warm = net.forward_arena(&image2, &mut arena);
        assert_eq!(bits(net.output(&fresh)), bits(net.output(warm)));
    }
}
