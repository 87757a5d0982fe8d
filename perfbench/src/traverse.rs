//! `traverse`: fine-grained kernel calls on a flat-CSR R-MAT graph.
//!
//! A fixed op list (hybrid BFS from sampled sources, components, k-core,
//! Δ-stepping) runs at 1 thread and at `nproc` threads each round. Every
//! call is a chain of short parallel regions (BFS levels, Δ buckets, peel
//! rounds), so runtime fork/join cost and kernel work dominate here.

use crate::batch::{self, Batch, Digest};
use crate::validate::{self, Fingerprint, Ledger, PassFingerprints};
use crate::{gen, Ctx, Outcome};
use snap_graph::{CsrGraph, Graph, VertexId};
use snap_kernels::{
    coreness, delta_stepping, dijkstra, par_bfs_hybrid_stats, par_components_hybrid, BfsResult,
    Components, CorenessResult, HybridConfig, SsspResult, TraversalStats,
};
use std::time::Instant;

const SCALE: u32 = 18;
const EDGES_PER_VERTEX: usize = 8;
/// One pass: this many BFS calls, then components, k-core and
/// Δ-stepping calls. BFS and components (~15 ms) are 80 % of the ops and
/// k-core (~180 ms) the next 16 %, so `op_ms.p50` falls inside the first
/// kind and `op_ms.p90` in the middle of the second, not on a boundary.
const BFS_OPS: usize = 16;
const CC_OPS: usize = 4;
const KCORE_OPS: usize = 4;
const SSSP_OPS: usize = 1;
/// Δ-stepping sources are drawn from this many highest-degree vertices.
/// Its cost grows with the source's weighted eccentricity (one bucket
/// per Δ of distance), which varies by half among random sources and
/// far less among hubs.
const SSSP_HUBS: usize = 64;

pub fn generate(ctx: &Ctx) -> std::io::Result<()> {
    gen::write_rmat_edge_list(&ctx.graph_path(), SCALE, EDGES_PER_VERTEX, ctx.seed).map(|_| ())
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Bfs(VertexId),
    Cc,
    Kcore,
    Sssp(VertexId),
}

fn kind(op: &Op) -> &'static str {
    match op {
        Op::Bfs(_) => "bfs",
        Op::Cc => "cc",
        Op::Kcore => "kcore",
        Op::Sssp(_) => "sssp",
    }
}

enum Raw {
    Bfs(BfsResult, TraversalStats),
    Cc(Components),
    Kcore(CorenessResult),
    Sssp(SsspResult),
}

fn exec(g: &CsrGraph, op: &Op) -> Raw {
    match *op {
        Op::Bfs(s) => {
            let (r, st) = par_bfs_hybrid_stats(g, s, &HybridConfig::default());
            Raw::Bfs(r, st)
        }
        Op::Cc => Raw::Cc(par_components_hybrid(g)),
        Op::Kcore => Raw::Kcore(coreness(g)),
        Op::Sssp(s) => Raw::Sssp(delta_stepping(g, s, 0)),
    }
}

/// The parts of a result that must be bit-identical at every thread
/// count (BFS parents may legitimately differ), plus exact work counts.
fn digest(_: &Op, raw: &Raw) -> Digest {
    let f = Fingerprint::default();
    let (fp, counts) = match raw {
        Raw::Bfs(r, st) => (
            f.u32s(&r.dist),
            vec![("bfs.edges_examined", st.total_edges_examined())],
        ),
        Raw::Cc(c) => (f.u32s(&c.comp), vec![]),
        Raw::Kcore(k) => (
            f.u32s(&k.coreness),
            vec![("kcore.decrements", k.decrements)],
        ),
        Raw::Sssp(s) => (f.u64s(&s.dist), vec![]),
    };
    Digest {
        fingerprint: fp.value(),
        counts,
    }
}

/// Full check of one result against an independent reference.
fn check(g: &CsrGraph, op: &Op, raw: &Raw) -> Result<(), String> {
    match (*op, raw) {
        (Op::Bfs(s), Raw::Bfs(r, _)) => validate::check_bfs(g, s, &r.dist, &r.parent),
        (Op::Cc, Raw::Cc(c)) => validate::check_components(g, &c.comp, c.count),
        (Op::Kcore, Raw::Kcore(k)) => {
            validate::check_equal("coreness", &k.coreness, &validate::reference_coreness(g))
        }
        (Op::Sssp(s), Raw::Sssp(r)) => {
            validate::check_equal("delta-stepping", &r.dist, &dijkstra(g, s).dist)
        }
        _ => Err("result kind does not match op".into()),
    }
}

/// Vertices of the largest connected component, so that no sampled
/// source gives a trivially short traversal.
pub fn giant_component<G: Graph>(g: &G) -> Vec<VertexId> {
    let comps = snap_kernels::connected_components(g);
    let mut sizes = vec![0usize; comps.count];
    for &c in &comps.comp {
        sizes[c as usize] += 1;
    }
    let giant = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
    g.vertices()
        .filter(|&v| comps.comp[v as usize] == giant)
        .collect()
}

/// The `k` vertices of highest degree (ties to the lower id).
fn highest_degree<G: Graph>(g: &G, k: usize) -> Vec<VertexId> {
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    by_degree.truncate(k);
    by_degree
}

/// One source from each of `k` equal strata of `members` sorted by
/// degree, so every pass gets the same spread of source degrees. A BFS's
/// cost follows its source's neighbourhood, and 16 sources drawn freely
/// set the pass's median BFS time differently from seed to seed (by
/// about 12 % between two seeds).
fn stratified_sources<G: Graph>(
    g: &G,
    mut members: Vec<VertexId>,
    k: usize,
    rng: &mut gen::Rng,
) -> Vec<VertexId> {
    members.sort_by_key(|&v| (g.degree(v), v));
    let n = members.len();
    (0..k)
        .map(|i| {
            let (lo, hi) = (i * n / k, (i + 1) * n / k);
            members[(lo + rng.below((hi - lo).max(1) as u64) as usize).min(n - 1)]
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.graph_path();
    let t = Instant::now();
    let g = crate::load_graph(&path);
    let first_setup_s = t.elapsed().as_secs_f64();

    let setup_rss_mb = crate::probe::peak_rss_mb();
    let members = giant_component(&g);
    let mut rng = gen::Rng::new(ctx.seed, 10);
    let mut ops: Vec<Op> = stratified_sources(&g, members, BFS_OPS, &mut rng)
        .into_iter()
        .map(Op::Bfs)
        .collect();
    ops.extend((0..CC_OPS).map(|_| Op::Cc));
    ops.extend((0..KCORE_OPS).map(|_| Op::Kcore));
    let hubs = highest_degree(&g, SSSP_HUBS);
    ops.extend((0..SSSP_OPS).map(|_| Op::Sssp(hubs[rng.below(hubs.len() as u64) as usize])));

    let run = |op: &Op| exec(&g, op);
    let batch = Batch {
        ops: &ops,
        kind,
        run: &run,
        digest: &digest,
    };
    let mut ledger = Ledger::default();
    let mut fps = PassFingerprints::new(ops.len());
    batch.validate(ctx.nproc, &|_, _, _| Ok(()), &mut fps, &mut ledger);

    let mut out = Outcome::default();
    let rounds = if ctx.trace {
        let (plain, traced, reports) =
            batch.measure_traced(ctx.nproc, ctx.seconds, &mut fps, &mut ledger);
        out.report = Some(crate::combine_reports(reports, true));
        let layers = &mut out.layers;
        crate::common_layers(ctx, layers);
        batch::cpu_figures(&traced, ctx.nproc, layers);
        for k in ["bfs", "sssp", "kcore", "cc"] {
            batch::kind_figures(&traced, "kernels", k, layers);
        }
        layers.put(
            "kernels.bfs.edges_examined",
            traced.count_per_pass("bfs.edges_examined"),
            "count",
        );
        layers.put(
            "kernels.bfs.teps",
            traced.count_rate("bfs.edges_examined", "bfs"),
            "1/s",
        );
        layers.put(
            "kernels.kcore.decrements",
            traced.count_per_pass("kcore.decrements"),
            "count",
        );
        layers.put(
            "obs.tracing_overhead_pct",
            crate::tracing_overhead_pct(plain.ops_per_s(), traced.ops_per_s()),
            "%",
        );
        traced.rounds
    } else {
        let mut setup = || drop(crate::load_graph(&path));
        let mut phase = batch.measure(ctx.nproc, ctx.seconds, &mut setup, &mut fps, &mut ledger);
        batch::e2e_figures(&mut phase, first_setup_s, &mut out.e2e);
        out.e2e
            .put("peak_rss_mb", crate::probe::peak_rss_mb(), "MB");
        phase.rounds
    };
    batch.validate(
        ctx.nproc,
        &|_, op, raw| check(&g, op, raw),
        &mut fps,
        &mut ledger,
    );
    out.info
        .push(("setup_peak_rss_mb".into(), format!("{setup_rss_mb:.1}")));
    out.info.push(("n".into(), g.num_vertices().to_string()));
    out.info.push(("m".into(), g.num_edges().to_string()));
    out.info
        .push(("ops_per_pass".into(), ops.len().to_string()));
    out.info.push(("rounds".into(), rounds.to_string()));
    out.info
        .push(("threads_per_pass".into(), format!("1,{}", ctx.nproc)));
    out.ledger = ledger;
    out
}
