//! Batch-N forward execution over a pool of [`ExecArena`]s.
//!
//! The serving hot path (`mupod-serve`) wants to amortize weight-panel
//! traffic across the requests of one batch: for every convolution node
//! the batch's im2col columns are packed side by side and multiplied by
//! the filter bank in **one** [`mupod_tensor::conv::conv2d_batch_into`]
//! call, instead of N separate GEMMs re-streaming the same weights.
//!
//! Everything else — and the numerics — is unchanged: a batch of one
//! is a plain [`Network::run`] pass, non-conv operators run per image
//! through the same operator dispatch as `run`, and the batched conv
//! kernel is bit-identical to the single-image kernel by construction
//! (per-element accumulation order does not depend on the GEMM column
//! count; see the kernel's docs). The property suite in
//! `tests/batch_props.rs` asserts bit-equality against N sequential
//! [`Network::forward_arena`] passes across batch sizes and a graph
//! exercising every operator.
//!
//! # Example
//!
//! ```
//! use mupod_nn::{BatchArena, NetworkBuilder};
//! use mupod_tensor::{conv::Conv2dParams, Tensor};
//!
//! let mut b = NetworkBuilder::new(&[1, 4, 4]);
//! let input = b.input();
//! let conv = b.conv2d(
//!     "conv1",
//!     input,
//!     Conv2dParams::new(1, 2, 3, 1, 1),
//!     Tensor::filled(&[2, 1, 3, 3], 0.1),
//!     vec![0.0, 0.0],
//! );
//! let net = b.build(conv).unwrap();
//! let mut batch = BatchArena::for_network(&net, 4);
//! let images = vec![Tensor::filled(&[1, 4, 4], 1.0); 3];
//! let classes = net.classify_batch_arena(&images, &mut batch);
//! assert_eq!(classes.len(), 3);
//! ```

use crate::arena::{eval_node_into, ExecArena};
use crate::graph::Network;
use crate::layer::Op;
use mupod_tensor::conv::conv2d_batch_into_tier;
use mupod_tensor::{KernelTier, Tensor};

/// Reusable execution state for batches of up to `max_batch` images:
/// one [`ExecArena`] per batch slot plus the shared batched-conv
/// scratch (packed im2col columns and the GEMM output panel).
///
/// Build one per worker thread with [`BatchArena::for_network`] and
/// thread it through [`Network::forward_batch_arena`]. Like the
/// single-image arena it is shape-locked to the network it was built
/// for, and after the first pass at a given batch size it performs zero
/// heap allocation per forward.
#[derive(Debug)]
pub struct BatchArena {
    /// One single-image arena per batch slot.
    arenas: Vec<ExecArena>,
    /// Batched im2col scratch: `(group_in_c · k²) × (N · oh · ow)`.
    patches: Vec<f32>,
    /// Batched GEMM output panel: `group_out_c × (N · oh · ow)`.
    gemm_out: Vec<f32>,
    /// Kernel tier the batched conv fusion (and every slot) runs on.
    tier: KernelTier,
}

impl BatchArena {
    /// Builds a batch arena for `net` with `max_batch` slots, running
    /// on the bit-exact kernel tier; see
    /// [`BatchArena::for_network_tier`].
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn for_network(net: &Network, max_batch: usize) -> Self {
        Self::for_network_tier(net, max_batch, KernelTier::Exact)
    }

    /// [`BatchArena::for_network`] with an explicit kernel tier: the
    /// fused batch convolution and every per-slot evaluation dispatch
    /// to `tier`'s kernels.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn for_network_tier(net: &Network, max_batch: usize, tier: KernelTier) -> Self {
        assert!(max_batch > 0, "batch arena needs at least one slot");
        Self {
            arenas: (0..max_batch)
                .map(|_| ExecArena::for_network_tier(net, tier))
                .collect(),
            patches: Vec::new(),
            gemm_out: Vec::new(),
            tier,
        }
    }

    /// Number of batch slots (the largest batch this arena can run).
    pub fn max_batch(&self) -> usize {
        self.arenas.len()
    }

    /// The kernel tier this arena dispatches dot-product ops to.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The activations slot `i` holds from the most recent batch pass.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`BatchArena::max_batch`].
    pub fn activations(&self, i: usize) -> &crate::exec::Activations {
        self.arenas[i].activations()
    }
}

impl Network {
    /// Runs `images` through the network as one batch, writing each
    /// image's activations into the corresponding [`BatchArena`] slot.
    ///
    /// Bit-identical to `images.len()` sequential
    /// [`Network::forward_arena`] calls (property-tested); convolution
    /// nodes are the only ops that actually fuse across the batch.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty, exceeds the arena's
    /// [`BatchArena::max_batch`], contains an image whose shape is not
    /// [`Network::input_dims`], or the arena was built for a different
    /// network.
    pub fn forward_batch_arena(&self, images: &[Tensor], batch: &mut BatchArena) {
        let n = images.len();
        assert!(n > 0, "empty batch");
        assert!(
            n <= batch.max_batch(),
            "batch of {n} exceeds the arena's {} slots",
            batch.max_batch()
        );
        mupod_obs::counter_add("nn.batch_passes", 1);
        mupod_obs::counter_add("nn.batch_images", n as u64);
        let BatchArena {
            arenas,
            patches,
            gemm_out,
            tier,
        } = batch;
        if n == 1 {
            // Nothing to fuse: a batch of one is the single-image pass.
            self.forward_arena(&images[0], &mut arenas[0]);
            return;
        }
        mupod_obs::counter_add("nn.forward_passes", n as u64);
        mupod_obs::counter_add("nn.node_evals", (n * (self.nodes.len() - 1)) as u64);
        let live = &mut arenas[..n];
        for (arena, image) in live.iter_mut().zip(images) {
            assert_eq!(
                image.dims(),
                self.input_dims(),
                "image shape does not match network input"
            );
            let tensors = arena.acts.tensors_mut();
            assert_eq!(
                tensors.len(),
                self.nodes.len(),
                "arena does not match network"
            );
            tensors[0].copy_from(image);
        }
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            if let Op::Conv2d {
                params,
                weight,
                bias,
            } = &node.op
            {
                // Gather every slot's (input, output) pair and run the
                // whole batch through one packed-GEMM convolution.
                let src = node.inputs[0].index();
                let mut ins: Vec<&Tensor> = Vec::with_capacity(n);
                let mut outs: Vec<&mut [f32]> = Vec::with_capacity(n);
                for arena in live.iter_mut() {
                    let (prev, rest) = arena.acts.tensors_mut().split_at_mut(i);
                    ins.push(&prev[src]);
                    outs.push(rest[0].data_mut());
                }
                conv2d_batch_into_tier(
                    *tier,
                    &ins,
                    weight,
                    Some(bias),
                    params,
                    patches,
                    gemm_out,
                    &mut outs,
                );
                continue;
            }
            for arena in live.iter_mut() {
                let ExecArena { acts, patches, .. } = arena;
                let (prev, rest) = acts.tensors_mut().split_at_mut(i);
                eval_node_into(
                    &node.op,
                    &node.inputs,
                    |p| &prev[p.index()],
                    &mut rest[0],
                    patches,
                    *tier,
                );
            }
        }
    }

    /// [`Network::classify`] over a whole batch: one fused forward,
    /// then the arg-max class per image, in input order.
    ///
    /// # Panics
    ///
    /// Same as [`Network::forward_batch_arena`].
    pub fn classify_batch_arena(&self, images: &[Tensor], batch: &mut BatchArena) -> Vec<usize> {
        self.forward_batch_arena(images, batch);
        (0..images.len())
            .map(|i| self.output(batch.activations(i)).argmax())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::random_tensor;
    use crate::graph::NetworkBuilder;
    use mupod_stats::SeededRng;
    use mupod_tensor::conv::Conv2dParams;

    fn tiny_net(rng: &mut SeededRng) -> Network {
        let mut b = NetworkBuilder::new(&[1, 6, 6]);
        let input = b.input();
        let c = b.conv2d(
            "c",
            input,
            Conv2dParams::new(1, 3, 3, 1, 1),
            random_tensor(rng, &[3, 1, 3, 3]),
            vec![0.1; 3],
        );
        let r = b.relu("r", c);
        let g = b.global_avg_pool("g", r);
        b.build(g).unwrap()
    }

    #[test]
    fn batch_classify_matches_sequential_classify() {
        let mut rng = SeededRng::new(21);
        let net = tiny_net(&mut rng);
        let mut batch = BatchArena::for_network(&net, 4);
        let mut single = ExecArena::for_network(&net);
        let images: Vec<Tensor> = (0..3)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        let fused = net.classify_batch_arena(&images, &mut batch);
        let seq: Vec<usize> = images
            .iter()
            .map(|im| net.classify_arena(im, &mut single))
            .collect();
        assert_eq!(fused, seq);
    }

    #[test]
    fn partial_batches_reuse_the_same_arena() {
        let mut rng = SeededRng::new(23);
        let net = tiny_net(&mut rng);
        let mut batch = BatchArena::for_network(&net, 4);
        // Warm every slot with one full batch, then run a smaller one:
        // stale slot 3 state must not bleed into the partial pass.
        let warm: Vec<Tensor> = (0..4)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        net.forward_batch_arena(&warm, &mut batch);
        let small: Vec<Tensor> = (0..2)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        let got = net.classify_batch_arena(&small, &mut batch);
        let mut single = ExecArena::for_network(&net);
        let want: Vec<usize> = small
            .iter()
            .map(|im| net.classify_arena(im, &mut single))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_is_rejected() {
        let mut rng = SeededRng::new(25);
        let net = tiny_net(&mut rng);
        let mut batch = BatchArena::for_network(&net, 2);
        net.forward_batch_arena(&[], &mut batch);
    }

    #[test]
    #[should_panic(expected = "exceeds the arena")]
    fn oversized_batch_is_rejected() {
        let mut rng = SeededRng::new(27);
        let net = tiny_net(&mut rng);
        let mut batch = BatchArena::for_network(&net, 2);
        let images: Vec<Tensor> = (0..3)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        net.forward_batch_arena(&images, &mut batch);
    }
}
