//! Repository benchmark, the measuring half (`run.py` builds it,
//! generates inputs through `gen`, and shapes the final result line).
//!
//! ```text
//! snap-perfbench gen --workload W --seed S --dir D
//! snap-perfbench run --workload W --seed S --seconds T --trace 0|1 --dir D [--stamp JSON]
//! ```
//!
//! `run` prints one JSON object: `correct`, `attempted`, `failed`,
//! `reasons`, `e2e` and `layers` (name → `{value, unit}`), and `info`.
//! With `--trace 1` it also writes the traced run's `snap_obs::RunReport`
//! to `D/report.json`.

mod batch;
mod centrality;
mod gen;
mod probe;
mod serve;
mod stats;
mod traverse;
mod validate;

use snap_obs::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use validate::Ledger;

/// Parsed command line of the `run` and `gen` subcommands.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
    pub stamp: Vec<(String, String)>,
    /// Threads of the parallel pass: the host's available parallelism.
    pub nproc: usize,
}

impl Ctx {
    pub fn graph_path(&self) -> PathBuf {
        self.dir.join("graph.el")
    }

    pub fn ops_path(&self) -> PathBuf {
        self.dir.join("stream.ops")
    }
}

/// Named figures with units, in the order they were added.
#[derive(Default)]
pub struct Figures(Vec<(String, f64, &'static str)>);

impl Figures {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Add a percentile only when the sample-count rule allows it.
    pub fn put_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*value)),
                            ("unit".into(), Json::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub e2e: Figures,
    pub layers: Figures,
    pub info: Vec<(String, String)>,
    /// The traced run's report (trace runs only).
    pub report: Option<snap_obs::RunReport>,
}

/// Timed read/build pairs behind the `io` and `graph` layer figures.
const LAYER_REPS: usize = 5;

/// `1 + reps` set-ups, each freed before the next; the last one's
/// value is kept. Returns it, the seconds of the first (the process's
/// cold set-up, up to half again as slow as later ones) and of the rest.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps + 1);
    let mut kept = None;
    for _ in 0..=reps {
        // Free the previous copy first so peak memory holds one input.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let first_s = times.remove(0);
    (kept.expect("at least one set-up"), first_s, times)
}

/// `setup_s`, the median of the timed set-ups after the process's
/// first, with their range and that first one.
pub fn setup_figures(first_s: f64, warm: &[f64], out: &mut Figures) {
    out.put("setup_s", stats::median(warm), "s");
    let min = warm.iter().copied().fold(f64::INFINITY, f64::min);
    let max = warm.iter().copied().fold(0.0, f64::max);
    out.put("setup_s.min", min, "s");
    out.put("setup_s.max", max, "s");
    out.put("setup_s.first", first_s, "s");
}

/// Read an edge list into a flat CSR graph through `snap-io`.
pub fn load_graph(path: &Path) -> snap_graph::CsrGraph {
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| fail(&format!("cannot open {}: {e}", path.display())));
    snap_io::edgelist::read_edge_list(std::io::BufReader::new(file), false, 0)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e:?}", path.display())))
}

/// Layer figures every workload shares: the `snap-io` read, the CSR
/// build on the same edges, and the runtime's empty fork/join.
/// `read_edge_list` ends in the same `GraphBuilder::build` call, so the
/// io figure is the read's median less the build's: reading and parsing
/// alone. Reads and builds alternate, so a slow spell of the host hits
/// both alike.
pub fn common_layers(ctx: &Ctx, out: &mut Figures) {
    let path = ctx.graph_path();
    let (n, raw) = gen::parse_raw_edges(&path)
        .unwrap_or_else(|e| fail(&format!("cannot parse edge list: {e}")));
    let (mut read, mut build) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let t = Instant::now();
        let g = load_graph(&path);
        read.push(t.elapsed().as_secs_f64());
        drop(g);
        let edges = raw.clone();
        let t = Instant::now();
        let g = snap_graph::GraphBuilder::undirected(n)
            .add_weighted_edges(edges)
            .build();
        build.push(t.elapsed().as_secs_f64());
        drop(g);
    }
    let build_s = stats::median(&build);
    let read_s = stats::median(&read) - build_s;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    out.put("io.read_edge_list_s", read_s, "s");
    out.put("io.mb_per_s", bytes / 1e6 / read_s, "MB/s");
    out.put("graph.build_s", build_s, "s");
    let pool = thread_pool(ctx.nproc);
    let (join_us, region_us) = pool.install(|| probe::runtime_overheads(400));
    out.put("rayon.join_us.p50", join_us, "us");
    out.put("rayon.par_region_us.p50", region_us, "us");
}

pub fn thread_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap_or_else(|e| fail(&format!("thread pool: {e}")))
}

/// Turn on span collection and the per-thread event rings.
pub fn start_tracing() {
    snap_obs::enable();
    snap_obs::enable_tracing();
}

/// Stop tracing and return this thread's report.
pub fn finish_tracing() -> snap_obs::RunReport {
    let report = snap_obs::finish().unwrap_or_default();
    snap_obs::disable_tracing();
    report
}

/// Fold labelled reports into one `RunReport` with a child each; `run`
/// names its root. The root lasts as long as the longest child when the
/// children ran side by side (one per thread), and as long as all of
/// them together when they ran one after another (one per round).
pub fn combine_reports(
    reports: Vec<(String, snap_obs::RunReport)>,
    sequential: bool,
) -> snap_obs::RunReport {
    let mut out = snap_obs::RunReport::default();
    out.root.calls = 1;
    for (label, r) in reports {
        let mut root = r.root;
        root.name = label;
        out.root.duration_us = if sequential {
            out.root.duration_us + root.duration_us
        } else {
            out.root.duration_us.max(root.duration_us)
        };
        out.root.children.push(root);
        out.trace.extend(r.trace);
    }
    out.trace.sort_by_key(|e| e.ts_us);
    out
}

/// `100 × (untraced − traced) / untraced` throughput.
pub fn tracing_overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s
}

pub fn fail(msg: &str) -> ! {
    eprintln!("snap-perfbench: {msg}");
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn need(&self, flag: &str) -> &str {
        self.get(flag)
            .unwrap_or_else(|| fail(&format!("missing {flag}")))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> T {
        self.need(flag)
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad value for {flag}")))
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = match args.get("--stamp") {
        None => Vec::new(),
        Some(text) => match Json::parse(text) {
            Ok(Json::Obj(pairs)) => pairs
                .into_iter()
                .map(|(k, v)| match v {
                    Json::Str(s) => (k, s),
                    other => (k, other.to_string_compact()),
                })
                .collect(),
            _ => fail("--stamp must be a JSON object"),
        },
    };
    let ctx = Ctx {
        workload: args.need("--workload").to_string(),
        seed: args.num("--seed"),
        seconds: args.get("--seconds").map_or(0.0, |_| args.num("--seconds")),
        trace: args.get("--trace") == Some("1"),
        dir: PathBuf::from(args.need("--dir")),
        stamp,
        nproc,
    };
    match args.0.first().map(String::as_str) {
        Some("gen") => generate(&ctx),
        Some("run") => run(&ctx),
        _ => fail("usage: snap-perfbench gen|run --workload W --seed S --dir D ..."),
    }
}

fn generate(ctx: &Ctx) {
    std::fs::create_dir_all(&ctx.dir).unwrap_or_else(|e| fail(&format!("{e}")));
    let result = match ctx.workload.as_str() {
        "traverse" => traverse::generate(ctx),
        "centrality_ccsr" => centrality::generate(ctx),
        "serve_churn" => serve::generate(ctx),
        other => fail(&format!("unknown workload {other}")),
    };
    result.unwrap_or_else(|e| fail(&format!("cannot write inputs: {e}")));
}

fn run(ctx: &Ctx) {
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        fail("--seconds must be positive");
    }
    let mut out = match ctx.workload.as_str() {
        "traverse" => traverse::run(ctx),
        "centrality_ccsr" => centrality::run(ctx),
        "serve_churn" => serve::run(ctx),
        other => fail(&format!("unknown workload {other}")),
    };
    out.info.push(("nproc".into(), ctx.nproc.to_string()));

    if let Some(mut report) = out.report.take() {
        snap_obs::analyze::annotate(&mut report);
        let root = &mut report.root;
        root.name = format!("perfbench.{}", ctx.workload);
        for (k, v) in ctx.stamp.iter().chain(&out.info) {
            root.meta.push((k.clone(), v.clone()));
        }
        for (name, value, _) in out.layers.0.iter().chain(&out.e2e.0) {
            root.gauges.push((name.clone(), *value));
        }
        let path = ctx.dir.join("report.json");
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    }

    let ledger = &out.ledger;
    let line = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(ledger.failed == 0 && ledger.attempted > 0),
        ),
        ("attempted".into(), Json::Num(ledger.attempted as f64)),
        ("failed".into(), Json::Num(ledger.failed as f64)),
        ("error_rate".into(), Json::Num(ledger.error_rate())),
        (
            "reasons".into(),
            Json::Arr(ledger.reasons.iter().cloned().map(Json::Str).collect()),
        ),
        ("e2e".into(), out.e2e.to_json()),
        ("layers".into(), out.layers.to_json()),
        (
            "info".into(),
            Json::Obj(
                out.info
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_string_compact());
}
