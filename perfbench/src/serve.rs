//! `serve_churn`: a `snap::serve::Engine` over a `StreamingGraph`, with
//! reads and writes side by side.
//!
//! Reads: `max(nproc − 1, 1)` closed-loop clients send wire-format JSON
//! lines (mostly BFS from a small shared hot set, per-client fresh BFS
//! sources, `coreness`, rare small-`frac` `centrality`). Writes: one
//! writer applies pre-generated insert/delete batches and merges each on
//! a fixed schedule (open loop), so every merge moves the epoch and the
//! cache's exact invalidation is exercised.
//!
//! Each client and the writer computes on its own thread (a pool of
//! one), so the phase runs one thread per core and no request spawns
//! threads. The runtime spawns scoped threads for every parallel
//! region, so on the default pool each BFS level of a miss would add
//! threads beside the clients, and the cost of those spawns follows the
//! load of a shared host more than the serve layers do; the runtime's
//! fork/join is `traverse`'s to measure.

use crate::gen::{self, Rng};
use crate::probe::CpuPhase;
use crate::stats::{self, Samples, Schedule};
use crate::validate::Ledger;
use crate::{Ctx, Figures, Outcome};
use snap::serve::{Engine, Outcome as Served, Request, ServeConfig};
use snap_graph::{EdgeOp, StreamingGraph, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCALE: u32 = 16;
const EDGES_PER_VERTEX: usize = 8;
/// Set-ups timed after the first; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Edge ops per write batch, and the write schedule.
const BATCH_OPS: usize = 256;
const WRITE_PERIOD: Duration = Duration::from_millis(1000);
/// Request mix, in percent: hot-set BFS, fresh BFS, coreness; the rest
/// is centrality. About 85 % of requests hit the cache, but a hit right
/// after a miss finds the hit path evicted by the miss's BFS and takes
/// two to three times as long, so only about 70 % are fast hits:
/// `op_ms.p50` lies inside those, and the misses, about 15 %, hold
/// `op_ms.p90`. Were fast hits near half the requests, p50 would sit at
/// their edge and move by about a tenth with each point of hit share.
const HOT_BFS_PCT: u64 = 80;
const FRESH_BFS_PCT: u64 = 15;
const CORENESS_PCT: u64 = 4;
const HOT_SET: usize = 8;
/// One sampled source on the scale-16 graph.
const CENTRALITY_FRAC: f64 = 0.00001;
/// Small enough that fresh BFS keys evict within an epoch, large enough
/// that they do not evict the hot set, which would move the hit share,
/// and `op_ms.p50` with it, at random between runs.
const CACHE_ENTRIES: usize = 64;

/// One batch per write period of a `seconds`-long run (both phases of a
/// traced run together), with one to spare.
fn batches(seconds: f64) -> usize {
    (seconds / WRITE_PERIOD.as_secs_f64()).ceil() as usize + 1
}

pub fn generate(ctx: &Ctx) -> std::io::Result<()> {
    if ctx.seconds <= 0.0 {
        crate::fail("serve_churn inputs need --seconds");
    }
    let base = gen::write_rmat_edge_list(&ctx.graph_path(), SCALE, EDGES_PER_VERTEX, ctx.seed)?;
    let n = batches(ctx.seconds);
    gen::write_stream_ops(&ctx.ops_path(), &base, SCALE, n, BATCH_OPS, ctx.seed)
}

/// Client-side samples of one phase.
#[derive(Default)]
struct ClientStats {
    op_ms: Samples,
    parse_us: Samples,
    admit_us: Samples,
    serialize_us: Samples,
    hit_us: Samples,
    overhead_us: Samples,
    miss_ms: HashMap<&'static str, Samples>,
    answered: u64,
    /// Per write period since the phase started: answers, and the
    /// first and last answer's time in seconds from the phase start.
    per_window: Vec<Window>,
    ledger: Ledger,
}

impl ClientStats {
    fn absorb(&mut self, other: ClientStats) {
        fn join(a: &mut Samples, b: Samples) {
            for v in b.into_values() {
                a.push(v);
            }
        }
        join(&mut self.op_ms, other.op_ms);
        join(&mut self.parse_us, other.parse_us);
        join(&mut self.admit_us, other.admit_us);
        join(&mut self.serialize_us, other.serialize_us);
        join(&mut self.hit_us, other.hit_us);
        join(&mut self.overhead_us, other.overhead_us);
        for (k, s) in other.miss_ms {
            join(self.miss_ms.entry(k).or_default(), s);
        }
        self.answered += other.answered;
        if self.per_window.len() < other.per_window.len() {
            self.per_window
                .resize(other.per_window.len(), Window::default());
        }
        for (a, b) in self.per_window.iter_mut().zip(other.per_window) {
            a.absorb(b);
        }
        self.ledger.merge(other.ledger);
    }
}

#[derive(Clone, Copy, Default)]
struct Window {
    answers: u64,
    first_s: f64,
    last_s: f64,
}

impl Window {
    fn note(&mut self, at_s: f64) {
        if self.answers == 0 {
            self.first_s = at_s;
        }
        self.answers += 1;
        self.last_s = at_s;
    }

    fn absorb(&mut self, other: Window) {
        if other.answers == 0 {
            return;
        }
        if self.answers == 0 {
            *self = other;
            return;
        }
        self.answers += other.answers;
        self.first_s = self.first_s.min(other.first_s);
        self.last_s = self.last_s.max(other.last_s);
    }

    /// Answers per second between the window's first and last answer.
    fn rate(&self) -> Option<f64> {
        let span = self.last_s - self.first_s;
        (self.answers > 1 && span > 0.0).then(|| (self.answers - 1) as f64 / span)
    }
}

/// Writer-side samples of one phase.
#[derive(Default)]
struct WriterStats {
    write_ms: Samples,
    apply_us: Samples,
    merge_ms: Samples,
    lag_ms: Samples,
    delta_edges: u64,
    merges: u64,
    /// The writer ran out of batches before the phase ended.
    starved: bool,
}

/// First payload seen per `(epoch, cache key)`; every later answer for
/// the same key and epoch must match it byte for byte.
type Answers = Mutex<HashMap<(u64, String), Arc<str>>>;

struct Shared<'a> {
    engine: &'a Engine,
    answers: &'a Answers,
    stop: &'a AtomicBool,
    hot: &'a [VertexId],
    fresh: &'a [VertexId],
    clients: usize,
    seed: u64,
    traced: bool,
}

fn request_line(id: u64, rng: &mut Rng, shared: &Shared, fresh_cursor: &mut usize) -> String {
    let roll = rng.below(100);
    if roll < HOT_BFS_PCT {
        let s = shared.hot[rng.below(shared.hot.len() as u64) as usize];
        format!("{{\"id\":{id},\"query\":\"bfs\",\"source\":{s}}}")
    } else if roll < HOT_BFS_PCT + FRESH_BFS_PCT {
        let s = shared.fresh[*fresh_cursor % shared.fresh.len()];
        *fresh_cursor += shared.clients;
        format!("{{\"id\":{id},\"query\":\"bfs\",\"source\":{s}}}")
    } else if roll < HOT_BFS_PCT + FRESH_BFS_PCT + CORENESS_PCT {
        format!("{{\"id\":{id},\"query\":\"coreness\"}}")
    } else {
        format!(
            "{{\"id\":{id},\"query\":\"centrality\",\"frac\":{CENTRALITY_FRAC},\"seed\":{},\"top\":10}}",
            shared.seed
        )
    }
}

/// Client `c` of measured phase `phase`, which started at `start`: its
/// request ids and random stream are its own.
fn client(
    c: usize,
    phase: u64,
    start: Instant,
    shared: &Shared,
) -> (ClientStats, Option<snap_obs::RunReport>) {
    if shared.traced {
        snap_obs::enable();
    }
    let mut st = ClientStats::default();
    let mut rng = Rng::new(shared.seed, 100 + (phase << 8) + c as u64);
    let mut id = (phase << 44) | ((c as u64) << 40);
    let mut fresh_cursor = c;
    while !shared.stop.load(Ordering::Relaxed) {
        id += 1;
        let line = request_line(id, &mut rng, shared, &mut fresh_cursor);
        let _span = shared.traced.then(|| snap_obs::span("bench.serve.request"));
        let t0 = Instant::now();
        let req = {
            let _span = shared.traced.then(|| snap_obs::span("bench.serve.parse"));
            Request::parse(&line)
        };
        let t_parsed = Instant::now();
        let Ok(req) = req else {
            st.ledger.fail(format!("request did not parse: {line}"));
            continue;
        };
        let permit = shared.engine.admit();
        let t_admitted = Instant::now();
        let resp = match &permit {
            Some(_) => {
                let _span = shared.traced.then(|| snap_obs::span("bench.serve.handle"));
                shared.engine.handle(&req)
            }
            None => shared.engine.shed_response(&req),
        };
        drop(permit);
        let t_handled = Instant::now();
        let wire = {
            let _span = shared
                .traced
                .then(|| snap_obs::span("bench.serve.serialize"));
            resp.to_json_line()
        };
        let done = Instant::now();

        // Everything below is outside the timed request.
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        let lat_us = us(t0, done);
        st.op_ms.push(lat_us / 1e3);
        st.parse_us.push(us(t0, t_parsed));
        st.admit_us.push(us(t_parsed, t_admitted));
        st.serialize_us.push(us(t_handled, done));
        st.overhead_us.push(lat_us - resp.wall_us as f64);
        match resp.outcome {
            Served::Hit => st.hit_us.push(lat_us),
            Served::Miss => st
                .miss_ms
                .entry(resp.kind)
                .or_default()
                .push(resp.wall_us as f64 / 1e3),
            Served::Shed => {}
        }
        if resp.outcome == Served::Shed {
            st.ledger.fail("request shed");
            continue;
        }
        st.answered += 1;
        let at_s = (done - start).as_secs_f64();
        let window = (at_s / WRITE_PERIOD.as_secs_f64()) as usize;
        if st.per_window.len() <= window {
            st.per_window.resize(window + 1, Window::default());
        }
        st.per_window[window].note(at_s);
        if resp.degraded || resp.payload.starts_with("{\"error\"") {
            st.ledger
                .fail(format!("{} answered with an error or degraded", resp.kind));
        } else if !wire.contains(&*resp.payload) {
            st.ledger.fail("wire line does not carry the payload");
        } else {
            let key = (resp.epoch, req.query.cache_key());
            let mut answers = shared.answers.lock().expect("answers lock poisoned");
            match answers.get(&key) {
                Some(first) if **first != *resp.payload => st.ledger.fail(format!(
                    "{}: payload differs within epoch {}",
                    resp.kind, resp.epoch
                )),
                Some(_) => st.ledger.ok(),
                None => {
                    answers.insert(key, Arc::clone(&resp.payload));
                    st.ledger.ok();
                }
            }
        }
    }
    let report = shared
        .traced
        .then(|| snap_obs::finish().unwrap_or_default());
    (st, report)
}

struct Writer<'a> {
    graph: &'a mut StreamingGraph,
    batches: std::slice::ChunksExact<'a, EdgeOp>,
}

fn writer(
    w: &mut Writer,
    engine: &Engine,
    stop: &AtomicBool,
    deadline: Instant,
    traced: bool,
) -> (WriterStats, Option<snap_obs::RunReport>) {
    if traced {
        snap_obs::enable();
    }
    let mut st = WriterStats::default();
    let reader = w.graph.reader();
    let schedule = Schedule {
        origin: Instant::now(),
        period: WRITE_PERIOD,
    };
    for i in 0.. {
        let due = schedule.due(i);
        if due >= deadline || stop.load(Ordering::Relaxed) {
            break;
        }
        let Some(batch) = w.batches.next() else {
            st.starved = true;
            break;
        };
        let now = Instant::now();
        if due > now {
            let _span = traced.then(|| snap_obs::span("bench.stream.wait_due"));
            std::thread::sleep(due - now);
        }
        st.lag_ms.push(schedule.ms_from_due(i, Instant::now()));
        let t = Instant::now();
        {
            let _span = traced.then(|| snap_obs::span("bench.stream.apply_batch"));
            w.graph.apply_batch(batch);
        }
        st.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        let delta = w.graph.delta_edges() as u64;
        let t = Instant::now();
        let snap = {
            let _span = traced.then(|| snap_obs::span("bench.stream.merge"));
            w.graph.merge()
        };
        let merge = t.elapsed();
        engine.note_merge(snap.epoch, delta, merge.as_micros() as u64);
        while reader.epoch() < snap.epoch {
            std::hint::spin_loop();
        }
        st.write_ms.push(schedule.ms_from_due(i, Instant::now()));
        st.merge_ms.push(merge.as_secs_f64() * 1e3);
        st.delta_edges += delta;
        st.merges += 1;
    }
    let report = traced.then(|| snap_obs::finish().unwrap_or_default());
    (st, report)
}

/// One measured phase: clients and writer run for `seconds`.
struct Phase {
    clients: ClientStats,
    writer: WriterStats,
    wall_s: f64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
    cpu_util: f64,
    sys_frac: f64,
    reports: Vec<(String, snap_obs::RunReport)>,
}

impl Phase {
    /// Answered queries per second in the median write period: every
    /// period sees one merge and its re-misses, so periods are alike and
    /// the median drops the ones a burst of interference hit.
    fn ops_per_s(&self) -> f64 {
        let period = WRITE_PERIOD.as_secs_f64();
        let full = ((self.wall_s / period) as usize).min(self.clients.per_window.len());
        if full == 0 {
            return self.clients.answered as f64 / self.wall_s;
        }
        let rates: Vec<f64> = self.clients.per_window[..full]
            .iter()
            .filter_map(Window::rate)
            .collect();
        if rates.is_empty() {
            return self.clients.answered as f64 / self.wall_s;
        }
        stats::median(&rates)
    }
}

fn measure(shared: &Shared, w: &mut Writer, seconds: f64, nproc: usize, phase: u64) -> Phase {
    let before = shared.engine.stats();
    let cpu = CpuPhase::start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    shared.stop.store(false, Ordering::Relaxed);
    let mut reports = Vec::new();
    let (clients, writer_stats) = std::thread::scope(|s| {
        let engine = shared.engine;
        let traced = shared.traced;
        let stop = shared.stop;
        // Each thread computes on a pool of one: its rayon calls run on
        // the thread itself, so the phase runs one thread per core.
        let wh = s.spawn(move || {
            crate::thread_pool(1).install(|| writer(w, engine, stop, deadline, traced))
        });
        let chs: Vec<_> = (0..shared.clients)
            .map(|c| {
                s.spawn(move || crate::thread_pool(1).install(|| client(c, phase, start, shared)))
            })
            .collect();
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        shared.stop.store(true, Ordering::Relaxed);
        let mut all = ClientStats::default();
        for (c, h) in chs.into_iter().enumerate() {
            let (st, report) = h.join().expect("client thread panicked");
            all.absorb(st);
            if let Some(r) = report {
                reports.push((format!("client.{c}"), r));
            }
        }
        let (ws, report) = wh.join().expect("writer thread panicked");
        if let Some(r) = report {
            reports.push(("writer".to_string(), r));
        }
        (all, ws)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let used = cpu.stop();
    let after = shared.engine.stats();
    Phase {
        clients,
        writer: writer_stats,
        wall_s,
        hits: after.cache_hits - before.cache_hits,
        misses: after.cache_misses - before.cache_misses,
        invalidations: after.invalidations - before.invalidations,
        evictions: after.evictions - before.evictions,
        cpu_util: used.util(nproc),
        sys_frac: used.sys_frac(),
        reports,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.graph_path();
    let ops = gen::read_stream_ops(&ctx.ops_path())
        .unwrap_or_else(|e| crate::fail(&format!("cannot read stream ops: {e}")));
    let clients = ctx.nproc.saturating_sub(1).max(1);
    let config = ServeConfig {
        workers: clients,
        cache_entries: CACHE_ENTRIES,
        ..ServeConfig::default()
    };
    let ((mut graph, engine), first_setup_s, setup_times) = crate::timed_setups(SETUP_REPS, || {
        let g = crate::load_graph(&path);
        let (graph, _) = StreamingGraph::from_csr(&g);
        let engine = Engine::new(graph.reader(), config.clone());
        (graph, engine)
    });
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let members = crate::traverse::giant_component(&*graph.snapshot().graph);

    let mut rng = Rng::new(ctx.seed, 30);
    let hot: Vec<VertexId> = (0..HOT_SET)
        .map(|_| members[rng.below(members.len() as u64) as usize])
        .collect();
    let mut fresh = members.clone();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let answers = Answers::default();
    let stop = AtomicBool::new(false);
    let mut shared = Shared {
        engine: &engine,
        answers: &answers,
        stop: &stop,
        hot: &hot,
        fresh: &fresh,
        clients,
        seed: ctx.seed,
        traced: false,
    };
    let mut w = Writer {
        graph: &mut graph,
        batches: ops.chunks_exact(BATCH_OPS),
    };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut phase = measure(&shared, &mut w, seconds, ctx.nproc, 0);

    let mut out = Outcome::default();
    e2e_figures(&mut phase, first_setup_s, &setup_times, &mut out.e2e);
    out.e2e
        .put("peak_rss_mb", crate::probe::peak_rss_mb(), "MB");
    if ctx.trace {
        shared.traced = true;
        snap_obs::enable_tracing();
        let mut traced = measure(&shared, &mut w, seconds, ctx.nproc, 1);
        snap_obs::disable_tracing();
        let reports = std::mem::take(&mut traced.reports);
        out.report = Some(crate::combine_reports(reports, false));
        let layers = &mut out.layers;
        crate::common_layers(ctx, layers);
        layer_figures(&mut traced, layers);
        layers.put(
            "obs.tracing_overhead_pct",
            crate::tracing_overhead_pct(phase.ops_per_s(), traced.ops_per_s()),
            "%",
        );
        out.ledger.merge(std::mem::take(&mut traced.clients.ledger));
        if traced.writer.starved {
            out.ledger
                .fail("writer ran out of batches before the deadline");
        }
    }
    out.ledger.merge(std::mem::take(&mut phase.clients.ledger));
    if phase.writer.merges == 0 {
        out.ledger.fail("writer merged nothing");
    }
    if phase.writer.starved {
        out.ledger
            .fail("writer ran out of batches before the deadline");
    }
    out.info.push(("n".into(), n.to_string()));
    out.info.push(("m".into(), m.to_string()));
    out.info.push(("clients".into(), clients.to_string()));
    out.info
        .push(("merges".into(), phase.writer.merges.to_string()));
    out.info
        .push(("threads_per_pass".into(), ctx.nproc.to_string()));
    out
}

fn e2e_figures(phase: &mut Phase, first_setup_s: f64, setup_times: &[f64], out: &mut Figures) {
    crate::setup_figures(first_setup_s, setup_times, out);
    out.put("ops_per_s", phase.ops_per_s(), "1/s");
    let lat = &mut phase.clients.op_ms;
    out.put_opt("op_ms.p50", lat.pct(0.5), "ms");
    out.put_opt("op_ms.p90", lat.pct(0.9), "ms");
    out.put_opt("op_ms.p99", lat.pct(0.99), "ms");
    crate::stats::tail_figures(lat, out);
    let writes = &mut phase.writer.write_ms;
    out.put_opt("write_ms.p50", writes.pct(0.5), "ms");
    out.put_opt("write_ms.p90", writes.pct(0.9), "ms");
    out.put("write_ms.samples", writes.len() as f64, "count");
}

fn layer_figures(phase: &mut Phase, out: &mut Figures) {
    let c = &phase.clients;
    let w = &phase.writer;
    let p50 = |s: &Samples| s.quantile(0.5).unwrap_or(f64::NAN);
    out.put("process.cpu_util", phase.cpu_util, "ratio");
    out.put("process.sys_frac", phase.sys_frac, "ratio");
    out.put("serve.parse_us.p50", p50(&c.parse_us), "us");
    out.put("serve.admit_us.p50", p50(&c.admit_us), "us");
    out.put("serve.hit_us.p50", p50(&c.hit_us), "us");
    out.put("serve.serialize_us.p50", p50(&c.serialize_us), "us");
    out.put("serve.client_overhead_us.p50", p50(&c.overhead_us), "us");
    for kind in ["bfs", "coreness", "centrality"] {
        if let Some(v) = c.miss_ms.get(kind).and_then(|s| s.quantile(0.5)) {
            out.put(format!("serve.{kind}_miss_ms.p50"), v, "ms");
        }
    }
    let cacheable = phase.hits + phase.misses;
    out.put(
        "serve.cache_hit_ratio",
        phase.hits as f64 / cacheable.max(1) as f64,
        "ratio",
    );
    out.put("serve.invalidations", phase.invalidations as f64, "count");
    out.put("serve.evictions", phase.evictions as f64, "count");
    out.put("stream.apply_batch_us.p50", p50(&w.apply_us), "us");
    out.put("stream.merge_ms.p50", p50(&w.merge_ms), "ms");
    out.put(
        "stream.merge_ms.p90",
        w.merge_ms.quantile(0.9).unwrap_or(f64::NAN),
        "ms",
    );
    out.put(
        "stream.delta_edges",
        w.delta_edges as f64 / w.merges.max(1) as f64,
        "count",
    );
    out.put("stream.writer_lag_ms", p50(&w.lag_ms), "ms");
}
