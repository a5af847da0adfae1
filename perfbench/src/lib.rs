//! Shared helpers of the benchmark's two binaries: flag parsing, the
//! replica of `mupod`'s prepare step, an in-memory span log and a small
//! JSON writer. Only stable public calls of the workspace crates are used
//! here, so the set-up timer and the load generator keep building when a
//! deeper API moves.

use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head_quick, ModelKind, ModelScale};
use mupod_nn::Network;
use std::collections::BTreeMap;
use std::time::Instant;

/// Images `mupod` uses for calibration when `--images` is not given.
pub const CLI_IMAGES: usize = 160;

/// `--flag value` pairs of one sub-command.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// A token that is not a flag, or a flag without a value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Self(map))
    }

    /// The raw value of a required flag.
    ///
    /// # Errors
    ///
    /// The flag is missing.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// A required flag parsed as a number.
    ///
    /// # Errors
    ///
    /// The flag is missing or does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key)?;
        v.parse().map_err(|_| format!("bad --{key} `{v}`"))
    }

    /// The `--model` flag.
    ///
    /// # Errors
    ///
    /// Missing or not a zoo model.
    pub fn model(&self) -> Result<ModelKind, String> {
        match self.str("model")? {
            "alexnet" => Ok(ModelKind::AlexNet),
            "mobilenet" => Ok(ModelKind::MobileNet),
            "squeezenet" => Ok(ModelKind::SqueezeNet),
            other => Err(format!("model `{other}` is not used by the benchmark")),
        }
    }

    /// The `--scale` flag.
    ///
    /// # Errors
    ///
    /// Missing or neither `tiny` nor `small`.
    pub fn scale(&self) -> Result<ModelScale, String> {
        match self.str("scale")? {
            "tiny" => Ok(ModelScale::tiny()),
            "small" => Ok(ModelScale::small()),
            other => Err(format!("bad --scale `{other}`")),
        }
    }
}

/// The dataset spec `mupod` derives from a scale and seed.
pub fn dataset_spec(scale: &ModelScale, seed: u64) -> DatasetSpec {
    DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed)
}

/// Wall time of each call the prepare step makes, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct PrepareTimes {
    /// `ModelKind::build`.
    pub build_ms: f64,
    /// Both `Dataset::generate` calls.
    pub data_ms: f64,
    /// `calibrate_head_quick`.
    pub calibrate_ms: f64,
}

impl PrepareTimes {
    /// Sum of the parts.
    pub fn total_ms(&self) -> f64 {
        self.build_ms + self.data_ms + self.calibrate_ms
    }
}

/// The calls `mupod`'s prepare step makes, in its order and with its
/// arguments, each timed: returns the calibrated network and the
/// evaluation set.
///
/// # Errors
///
/// Calibration failure.
pub fn prepare(
    model: ModelKind,
    scale: &ModelScale,
    seed: u64,
) -> Result<(Network, Dataset, PrepareTimes), String> {
    let t = Instant::now();
    let mut net = model.build(scale, seed);
    let build_ms = ms_since(t);
    let t = Instant::now();
    let spec = dataset_spec(scale, seed);
    let calib = Dataset::generate(&spec, seed ^ 0xA, CLI_IMAGES);
    let eval = Dataset::generate(&spec, seed ^ 0xB, CLI_IMAGES / 2);
    let data_ms = ms_since(t);
    let t = Instant::now();
    calibrate_head_quick(&mut net, &calib, 0.1).map_err(|e| format!("calibration: {e}"))?;
    let calibrate_ms = ms_since(t);
    Ok((
        net,
        eval,
        PrepareTimes {
            build_ms,
            data_ms,
            calibrate_ms,
        },
    ))
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of a sample (mean of the middle pair when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One closed span.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
}

/// Spans recorded around calls into the workspace crates. They stay in
/// memory until [`SpanLog::write`] at the end of the run, so recording
/// costs two clock reads and a push.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in ms.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
        });
        (out, (end_us - start_us) / 1e3)
    }

    /// Writes the spans as a JSON array of `{name, start_us, end_us}`
    /// objects, in the order they closed.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write(&self, path: &str) -> Result<(), String> {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|sp| {
                format!(
                    "  {{\"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                    mupod_obs::json::escape(&sp.name),
                    sp.start_us,
                    sp.end_us
                )
            })
            .collect();
        let s = format!("[\n{}\n]\n", items.join(",\n"));
        std::fs::write(path, s).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// A flat JSON object built key by key, in insertion order.
#[derive(Default)]
pub struct JsonObj(Vec<(String, String)>);

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a number (non-finite values become `null`).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), text));
        self
    }

    /// Adds an integer.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push((key.to_string(), mupod_obs::json::escape(v)));
        self
    }

    /// Adds an array of numbers.
    pub fn nums(&mut self, key: &str, v: &[f64]) -> &mut Self {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(", "))));
        self
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, v: &JsonObj) -> &mut Self {
        self.0.push((key.to_string(), v.render()));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", mupod_obs::json::escape(k)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Runs a binary's sub-command table: prints the JSON a sub-command
/// returns, or the error on stderr with exit code 1.
pub fn run_main(dispatch: impl FnOnce(&str, &Flags) -> Result<JsonObj, String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err("usage: <sub-command> --flag value ...".to_string()),
        Some((cmd, rest)) => Flags::parse(rest).and_then(|f| dispatch(cmd, &f)),
    };
    match result {
        Ok(obj) => println!("{}", obj.render()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
