//! Property tests: suffix replay is exactly equivalent to a full tapped
//! pass, on randomized weights, images, layers, and noise magnitudes —
//! and turning the numerical guard on changes no bit of either.
//!
//! This equivalence is the correctness backbone of the profiler — if it
//! drifted, every `λ_K`/`θ_K` measured with the fast path would be wrong.

use mupod_nn::tap::{InputTap, NoTap, QuantizeTap, UniformNoiseTap};
use mupod_nn::ValidateConfig;
use mupod_nn::{Activations, ExecArena, Network, NetworkBuilder, NodeId, RunOpts, Start};
use mupod_quant::FixedPointFormat;
use mupod_stats::SeededRng;
use mupod_tensor::conv::Conv2dParams;
use mupod_tensor::pool::Pool2dParams;
use mupod_tensor::Tensor;
use proptest::prelude::*;

fn random_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims,
        (0..n).map(|_| rng.gaussian(0.0, 0.6) as f32).collect(),
    )
}

/// A randomized network exercising branches, residuals and pooling.
fn random_net(seed: u64) -> Network {
    let mut rng = SeededRng::new(seed);
    let mut b = NetworkBuilder::new(&[2, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d(
        "c1",
        input,
        Conv2dParams::new(2, 4, 3, 1, 1),
        random_tensor(&mut rng, &[4, 2, 3, 3]),
        vec![0.01; 4],
    );
    let r1 = b.relu("r1", c1);
    let p1 = b.max_pool("p1", r1, Pool2dParams::new(2, 2, 0));
    let c2 = b.conv2d(
        "c2",
        p1,
        Conv2dParams::new(4, 4, 3, 1, 1),
        random_tensor(&mut rng, &[4, 4, 3, 3]),
        vec![0.0; 4],
    );
    let res = b.add("res", &[p1, c2]);
    let c3a = b.conv2d(
        "c3a",
        res,
        Conv2dParams::new(4, 2, 1, 1, 0),
        random_tensor(&mut rng, &[2, 4, 1, 1]),
        vec![0.0; 2],
    );
    let c3b = b.conv2d(
        "c3b",
        res,
        Conv2dParams::new(4, 2, 3, 1, 1),
        random_tensor(&mut rng, &[2, 4, 3, 3]),
        vec![0.0; 2],
    );
    let cat = b.concat("cat", &[c3a, c3b]);
    let gap = b.global_avg_pool("gap", cat);
    let fc = b.fully_connected("fc", gap, random_tensor(&mut rng, &[5, 4]), vec![0.0; 5]);
    b.build(fc).expect("random net builds")
}

fn guard(on: bool) -> ValidateConfig {
    if on {
        ValidateConfig::default()
    } else {
        ValidateConfig::off()
    }
}

/// The logits of one pass from `start` on a fresh arena.
fn run(net: &Network, start: Start<'_>, tap: &mut dyn InputTap, guarded: bool) -> Tensor {
    let mut arena = ExecArena::for_network(net);
    let opts = RunOpts {
        tap,
        guard: guard(guarded),
    };
    net.run(start, opts, &mut arena)
        .expect("finite inputs pass the guard")
        .clone()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A suffix replay from `at` under the tap `make_tap` builds, with the
/// guard on or off; a second replay with the guard flipped must agree
/// bit for bit.
fn replay(
    net: &Network,
    base: &Activations,
    at: NodeId,
    make_tap: &dyn Fn() -> Box<dyn InputTap>,
    guarded: bool,
) -> Tensor {
    let start = Start::Replay { base, at };
    let out = run(net, start, &mut *make_tap(), guarded);
    let flipped = run(net, start, &mut *make_tap(), !guarded);
    assert_eq!(bits(&out), bits(&flipped), "the guard changed the numbers");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn suffix_replay_equals_full_pass_uniform_noise(
        net_seed in 0u64..500,
        img_seed in 0u64..500,
        noise_seed in 0u64..500,
        layer_idx in 0usize..5,
        delta in 0.001f64..2.0,
        guarded in any::<bool>(),
    ) {
        let net = random_net(net_seed);
        let layers = net.dot_product_layers();
        let layer = layers[layer_idx % layers.len()];
        let mut rng = SeededRng::new(img_seed);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);

        let make_tap = || -> Box<dyn InputTap> {
            Box::new(UniformNoiseTap::single(layer, delta, SeededRng::new(noise_seed)))
        };
        let suffix = replay(&net, &base, layer, &make_tap, guarded);
        let full_out = run(&net, Start::Image(&image), &mut *make_tap(), !guarded);

        for (a, b) in suffix.data().iter().zip(full_out.data()) {
            prop_assert!((a - b).abs() < 1e-4, "suffix {a} vs full {b}");
        }
    }

    #[test]
    fn suffix_replay_equals_full_pass_quantization(
        net_seed in 0u64..500,
        img_seed in 0u64..500,
        layer_idx in 0usize..5,
        frac_bits in 0i32..10,
        guarded in any::<bool>(),
    ) {
        let net = random_net(net_seed);
        let layers = net.dot_product_layers();
        let layer = layers[layer_idx % layers.len()];
        let mut rng = SeededRng::new(img_seed);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let fmt = FixedPointFormat::new(8, frac_bits);

        let make_tap = || -> Box<dyn InputTap> {
            Box::new(QuantizeTap::new([(layer, fmt)].into_iter().collect()))
        };
        let suffix = replay(&net, &base, layer, &make_tap, guarded);
        let full_out = run(&net, Start::Image(&image), &mut *make_tap(), !guarded);
        for (a, b) in suffix.data().iter().zip(full_out.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn untapped_suffix_replay_is_identity(
        net_seed in 0u64..500,
        img_seed in 0u64..500,
        layer_idx in 0usize..5,
        guarded in any::<bool>(),
    ) {
        let net = random_net(net_seed);
        let layers = net.dot_product_layers();
        let layer = layers[layer_idx % layers.len()];
        let mut rng = SeededRng::new(img_seed);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let out = replay(&net, &base, layer, &|| Box::new(NoTap), guarded);
        for (a, b) in out.data().iter().zip(net.output(&base).data()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}
