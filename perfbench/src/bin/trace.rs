//! The traced run: spans recorded from outside the program, around calls
//! into each workspace crate's public functions.
//!
//! ```text
//! perfbench-trace offline --model M --scale S --seed N --threads T --dir D --spans-out F
//! perfbench-trace layers  --model M --scale S --seed N --spans-out F
//! perfbench-trace exec    --model M --scale S --seed N
//! ```
//!
//! `offline` replays `mupod profile` and `mupod optimize --profile` call
//! by call (prepare, clean pass, sweep, σ-search, allocation, validation,
//! artifact writes) and writes the same two CSVs, so the caller can check
//! the replica against the command's output byte for byte. It also times
//! the executor and every tensor kernel on each node's real input.
//! `layers` profiles each analyzable layer alone on one thread. `exec` times
//! the serving worker's batch-1 classify. Each prints one JSON object.

use mupod_core::{
    allocate, AccuracyEvaluator, AccuracyMode, AllocateConfig, Objective, Profile, ProfileConfig,
    Profiler, SearchScheme, SigmaSearch,
};
use mupod_data::Dataset;
use mupod_nn::inventory::LayerInventory;
use mupod_nn::tap::UniformNoiseTap;
use mupod_nn::{BatchArena, ExecArena, KernelTier, Network, NodeId, Op};
use mupod_perfbench::{median, ms_since, prepare, run_main, Flags, JsonObj, SpanLog};
use mupod_stats::SeededRng;
use mupod_tensor::{conv, gemm, pool, Tensor};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Images the profile command sweeps (`mupod profile` takes the first 24
/// evaluation images).
const PROFILE_IMAGES: usize = 24;
/// Relative accuracy loss `mupod optimize` defaults to.
const LOSS: f64 = 0.01;
/// Repetitions of each executor/kernel timing; the median is reported.
const REPS: usize = 31;

fn main() {
    run_main(|cmd, f| match cmd {
        "offline" => offline(f),
        "layers" => layers(f),
        "exec" => exec(f),
        other => Err(format!("unknown sub-command `{other}`")),
    });
}

fn write_csv(
    path: &Path,
    f: impl FnOnce(&mut Vec<u8>) -> Result<(), String>,
) -> Result<(), String> {
    let mut buf = Vec::new();
    f(&mut buf)?;
    mupod_runtime::write_atomic(path, &buf).map_err(|e| format!("{}: {e}", path.display()))
}

fn offline(f: &Flags) -> Result<JsonObj, String> {
    let (model, scale, seed) = (f.model()?, f.scale()?, f.num::<u64>("seed")?);
    let threads: usize = f.num("threads")?;
    let dir = Path::new(f.str("dir")?);
    let mut log = SpanLog::new();
    let mut o = JsonObj::new();
    // `mupod` runs every command under its metrics recorder; so does the
    // replica, and the recorder's counters give the gemm and replay counts.
    let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Warn);
    let _guard = recorder.install();

    // mupod-models, mupod-data: the prepare step.
    let (prepared, prepare_ms) = log.time("setup", || prepare(model, &scale, seed));
    let (net, eval, t) = prepared?;
    o.num("setup.build_ms", t.build_ms)
        .num("setup.data_ms", t.data_ms)
        .num("setup.calibrate_ms", t.calibrate_ms);
    let layers = model.analyzable_layers(&net);
    let images = &eval.images()[..eval.len().min(PROFILE_IMAGES)];

    // mupod-core profile: the sweep and the artifact write as the command
    // runs them, right after prepare; then the clean pass alone.
    let before = recorder.snapshot().counters;
    let (profile, sweep_ms) = log.time("profile.sweep", || {
        Profiler::new(&net, images)
            .with_config(ProfileConfig {
                threads,
                kernel_tier: KernelTier::Exact,
                ..Default::default()
            })
            .profile(&layers)
    });
    let profile = profile.map_err(|e| format!("profile: {e}"))?;
    let counters = recorder.snapshot().counters;
    let count =
        |k: &str| counters.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let (calls, macs) = (count("tensor.gemm_calls"), count("tensor.gemm_macs"));
    o.num("profile.sweep_ms", sweep_ms)
        .num("profile.gmac_s", macs as f64 / 1e9 / (sweep_ms / 1e3))
        .int("profile.replays", count("nn.suffix_replays"))
        .int("tensor.gemm_calls", calls)
        .num("tensor.macs_per_call", macs as f64 / calls.max(1) as f64);
    let (w, write_ms) = log.time("io.write_profile", || {
        write_csv(&dir.join("profile.csv"), |b| {
            profile.save_csv(b).map_err(|e| e.to_string())
        })
    });
    w?;
    let (clean, clean_ms) = log.time("profile.clean", || clean_pass(&net, images));
    clean?;
    o.num("profile.clean_ms", clean_ms);

    // mupod-nn executor and mupod-tensor kernels on one image.
    log.time("nn", || executor_rows(&net, model, &images[0], &mut o));

    // The optimize command: reload the profile, range pass + fp
    // reference, σ-search, then allocate/validate as the optimizer does.
    let (loaded, read_ms) = log.time("io.read_profile", || {
        let bytes = mupod_runtime::read_verified(&dir.join("profile.csv"))
            .map_err(|e| format!("profile.csv: {e}"))?;
        Profile::load_csv(bytes.as_slice()).map_err(|e| format!("profile.csv: {e}"))
    });
    let mut loaded = loaded?;
    let (evaluator, ref_ms) = log.time("search.ref", || {
        loaded.update_ranges(LayerInventory::measure(&net, eval.images().iter().cloned()));
        AccuracyEvaluator::with_threads_tier(
            &net,
            &eval,
            AccuracyMode::FpAgreement,
            threads,
            KernelTier::Exact,
        )
    });
    let target = evaluator.fp_accuracy() * (1.0 - LOSS);
    let (sigma, search_ms) = log.time("search", || {
        SigmaSearch {
            scheme: SearchScheme::EqualScheme,
            ..Default::default()
        }
        .search(&loaded, &evaluator, target)
    });
    let slack = 0.02 + 2.0 / evaluator.len() as f64;
    let mut s = sigma.sigma.max(1e-6);
    let (mut alloc_ms, mut validate_ms, mut attempts) = (0.0, 0.0, 0u64);
    let mut accepted = None;
    for attempt in 0..4 {
        attempts += 1;
        let (outcome, ms) = log.time("optim.allocate", || {
            allocate(
                &loaded,
                s,
                &Objective::Bandwidth,
                &AllocateConfig::default(),
            )
        });
        alloc_ms += ms;
        let (acc, ms) = log.time("validate", || {
            evaluator.accuracy_of_allocation(&layers, &outcome.allocation)
        });
        validate_ms += ms;
        if acc + 1e-9 >= target - slack {
            accepted = Some(outcome.allocation);
            break;
        }
        if attempt < 3 {
            s *= 0.6;
        }
    }
    let allocation = accepted.ok_or("validation failed in every attempt")?;
    let (w, write_alloc_ms) = log.time("io.write_alloc", || {
        write_csv(&dir.join("alloc.csv"), |b| {
            allocation.save_csv(b).map_err(|e| e.to_string())
        })
    });
    w?;
    o.num("search.ref_ms", ref_ms)
        .num("search.ms", search_ms)
        .int("search.evals", sigma.evaluations as u64)
        .num(
            "search.eval_ms",
            search_ms / sigma.evaluations.max(1) as f64,
        )
        .num("optim.allocate_ms", alloc_ms)
        .num("validate.ms", validate_ms)
        .int("validate.attempts", attempts)
        .num("io.write_ms", write_ms + write_alloc_ms)
        .num("io.read_ms", read_ms);
    // What the replica spent inside each command, for the caller's
    // unattributed remainders and the tracing overhead.
    o.num("replica.profile_ms", prepare_ms + sweep_ms + write_ms)
        .num(
            "replica.optimize_ms",
            prepare_ms + read_ms + ref_ms + search_ms + alloc_ms + validate_ms + write_alloc_ms,
        );
    log.write(f.str("spans-out")?)?;
    Ok(o)
}

/// The profiler's clean pass from outside: a validated forward per image
/// plus the layer inventory.
fn clean_pass(net: &Network, images: &[Tensor]) -> Result<(), String> {
    for img in images {
        std::hint::black_box(
            net.forward_checked(img)
                .map_err(|e| format!("clean pass: {e}"))?,
        );
    }
    std::hint::black_box(LayerInventory::measure(net, images.iter().cloned()));
    Ok(())
}

/// Which kernel row a node's time belongs to; `None` for the element-wise
/// ops the executor runs inline (they stay in `nn.self_us`).
fn row_of(op: &Op) -> Option<&'static str> {
    match op {
        Op::Conv2d { params, .. } if params.groups > 1 && params.groups == params.in_channels => {
            Some("tensor.dwconv_us")
        }
        Op::Conv2d { .. } => Some("tensor.conv_us"),
        Op::FullyConnected { .. } => Some("tensor.fc_us"),
        Op::MaxPool(_) | Op::AvgPool(_) => Some("tensor.pool_us"),
        Op::Lrn { .. } => Some("tensor.lrn_us"),
        Op::GlobalAvgPool => Some("tensor.other_us"),
        _ => None,
    }
}

/// Times one kernel call on `input`, returning (im2col µs, kernel µs).
fn time_kernel(op: &Op, input: &Tensor, out: &mut [f32], patches: &mut Vec<f32>) -> (f64, f64) {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    match op {
        Op::Conv2d {
            params,
            weight,
            bias,
        } => {
            let (h, w) = (input.dims()[1], input.dims()[2]);
            let (oh, ow) = params.out_spatial(h, w);
            let len = params.in_channels / params.groups * params.kernel * params.kernel * oh * ow;
            patches.resize(patches.len().max(len), 0.0);
            let t = Instant::now();
            for g in 0..params.groups {
                conv::im2col_into(input, params, g, &mut patches[..len]);
            }
            let im2col = us(t);
            let t = Instant::now();
            conv::conv2d_into_tier(
                KernelTier::Exact,
                input,
                weight,
                Some(bias),
                params,
                patches,
                out,
            );
            // conv2d_into lowers with im2col itself; its share is the
            // im2col row, the rest is gemm + bias.
            (im2col, (us(t) - im2col).max(0.0))
        }
        Op::FullyConnected { weight, bias } => {
            let t = Instant::now();
            gemm::matvec_into_tier(
                KernelTier::Exact,
                weight.dims()[0],
                weight.dims()[1],
                weight.data(),
                input.data(),
                Some(bias),
                out,
            );
            (0.0, us(t))
        }
        Op::MaxPool(p) => {
            let t = Instant::now();
            pool::max_pool2d_into(input, p, out);
            (0.0, us(t))
        }
        Op::AvgPool(p) => {
            let t = Instant::now();
            pool::avg_pool2d_into(input, p, out);
            (0.0, us(t))
        }
        Op::Lrn {
            local_size,
            alpha,
            beta,
            k,
        } => {
            let t = Instant::now();
            pool::lrn_across_channels_into(input, *local_size, *alpha, *beta, *k, out);
            (0.0, us(t))
        }
        Op::GlobalAvgPool => {
            let t = Instant::now();
            pool::global_avg_pool_into(input, out);
            (0.0, us(t))
        }
        _ => (0.0, 0.0),
    }
}

/// `nn.forward_us`, `nn.tap_us`, `nn.self_us` and the per-kernel rows of
/// one forward pass, each the median over [`REPS`] repetitions.
fn executor_rows(net: &Network, model: mupod_models::ModelKind, image: &Tensor, o: &mut JsonObj) {
    let deltas: HashMap<NodeId, f64> = model
        .analyzable_layers(net)
        .into_iter()
        .map(|id| (id, 1e-3))
        .collect();
    let mut tap = UniformNoiseTap::new(deltas, SeededRng::new(7));
    let mut arena = ExecArena::for_network_tier(net, KernelTier::Exact);
    net.forward_arena(image, &mut arena);
    net.forward_tapped_arena(image, &mut tap, &mut arena);
    // Plain and tapped passes alternate, so clock or cache drift during
    // the loop lands on both.
    let (mut plain, mut tapped) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(net.forward_arena(image, &mut arena));
        plain.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(net.forward_tapped_arena(image, &mut tap, &mut arena));
        tapped.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let acts = net.forward(image);

    let rows = [
        "tensor.im2col_us",
        "tensor.conv_us",
        "tensor.dwconv_us",
        "tensor.fc_us",
        "tensor.pool_us",
        "tensor.lrn_us",
        "tensor.other_us",
    ];
    let mut samples: BTreeMap<&str, Vec<f64>> = rows.iter().map(|r| (*r, Vec::new())).collect();
    let mut patches = Vec::new();
    let mut outs: Vec<Vec<f32>> = net
        .iter()
        .map(|(id, _)| vec![0.0; net.node_out_dims(id).iter().product()])
        .collect();
    for _ in 0..REPS {
        let mut sums: BTreeMap<&str, f64> = rows.iter().map(|r| (*r, 0.0)).collect();
        for (id, node) in net.iter() {
            let Some(row) = row_of(&node.op) else {
                continue;
            };
            let input = acts.get(node.inputs[0]);
            let (im2col, kernel) =
                time_kernel(&node.op, input, &mut outs[id.index()], &mut patches);
            *sums.entry("tensor.im2col_us").or_default() += im2col;
            *sums.entry(row).or_default() += kernel;
        }
        for (k, v) in sums {
            samples.entry(k).or_default().push(v);
        }
    }
    let forward_us = median(&plain);
    let mut kernels = 0.0;
    for (k, v) in &samples {
        let m = median(v);
        kernels += m;
        o.num(k, m);
    }
    o.num("nn.forward_us", forward_us)
        .num("nn.tap_us", median(&tapped) - forward_us)
        .num("nn.self_us", forward_us - kernels);
}

/// Each analyzable layer profiled alone on one thread, minus the clean
/// pass every `Profiler::profile` call makes first.
fn layers(f: &Flags) -> Result<JsonObj, String> {
    let (model, scale, seed) = (f.model()?, f.scale()?, f.num::<u64>("seed")?);
    let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Warn);
    let _guard = recorder.install();
    let (net, eval, _) = prepare(model, &scale, seed)?;
    let images = &eval.images()[..eval.len().min(PROFILE_IMAGES)];
    let mut log = SpanLog::new();
    let (clean, clean_ms) = log.time("profile.clean", || clean_pass(&net, images));
    clean?;
    let profiler = Profiler::new(&net, images).with_config(ProfileConfig {
        threads: 1,
        kernel_tier: KernelTier::Exact,
        ..Default::default()
    });
    let mut per_layer = JsonObj::new();
    let mut total = 0.0;
    for id in model.analyzable_layers(&net) {
        let name = net.node(id).name.clone();
        let (r, ms) = log.time(&format!("profile.layer.{name}"), || profiler.profile(&[id]));
        r.map_err(|e| format!("profile {name}: {e}"))?;
        let layer_ms = (ms - clean_ms).max(0.0);
        total += layer_ms;
        per_layer.num(&name, layer_ms);
    }
    log.write(f.str("spans-out")?)?;
    let mut o = JsonObj::new();
    o.num("clean_ms", clean_ms)
        .num("sum_ms", total)
        .obj("layer_ms", &per_layer);
    Ok(o)
}

/// The serving worker's execution step: `classify_batch_arena` on a batch
/// of one, median over the image pool.
fn exec(f: &Flags) -> Result<JsonObj, String> {
    let (model, scale, seed) = (f.model()?, f.scale()?, f.num::<u64>("seed")?);
    let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Warn);
    let _guard = recorder.install();
    let (net, _, _) = prepare(model, &scale, seed)?;
    let pool = Dataset::generate(&mupod_perfbench::dataset_spec(&scale, seed), seed ^ 0xC, 64);
    let mut arena = BatchArena::for_network_tier(&net, 1, KernelTier::Exact);
    let mut times = Vec::new();
    let t0 = Instant::now();
    // At least three passes over the pool and at least half a second.
    while times.len() < 3 * pool.len() || ms_since(t0) < 500.0 {
        let img = &pool.images()[times.len() % pool.len()];
        let t = Instant::now();
        std::hint::black_box(net.classify_batch_arena(std::slice::from_ref(img), &mut arena));
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut o = JsonObj::new();
    o.num("exec_us", median(&times))
        .int("samples", times.len() as u64);
    Ok(o)
}
