//! `centrality_ccsr`: coarse multi-source sweeps on the compressed CSR.
//!
//! The graph is encoded with `CompressedCsrGraph::from_csr` during
//! set-up and the flat copy is dropped before timing. Each op is one
//! long parallel region over several sources per thread (Brandes
//! betweenness batches, sampled closeness, sampled path statistics), so
//! runtime overhead barely matters and adjacency decode plus the sweeps
//! dominate.

use crate::batch::{self, Batch, Digest};
use crate::validate::{Fingerprint, Ledger, PassFingerprints};
use crate::{gen, Ctx, Outcome};
use snap_graph::{CompressedCsrGraph, Graph, VertexId};
use std::time::Instant;

const SCALE: u32 = 13;
const EDGES_PER_VERTEX: usize = 8;
/// Sources per op, per thread of the parallel pass. Brandes splits its
/// sources into chunks of at least 16, so fewer would run serially.
const SOURCES_PER_THREAD: usize = 16;
/// One pass: this many betweenness batches, then closeness and path
/// statistics calls.
const BETWEENNESS_OPS: usize = 8;
const CLOSENESS_OPS: usize = 1;
const PATH_OPS: usize = 1;
/// The closeness and path-statistics calls sweep this many times the
/// sources of a betweenness batch, which makes them the slowest fifth of
/// a pass: p50 lies inside the betweenness batches and p90 in the middle
/// of the sweeps. Were every op about as long, p90 would be the tail of
/// one distribution, set by how many ops the host's interference hit.
const SWEEP_SCALE: usize = 3;
/// Encodes timed for `graph.ccsr.encode_s` in the traced run, after the
/// process's first.
const ENCODE_REPS: usize = 5;
/// Candidate seeds tried per sampled op (each hits its target with
/// probability about 1/7).
const SEED_TRIES: usize = 1000;

pub fn generate(ctx: &Ctx) -> std::io::Result<()> {
    gen::write_rmat_edge_list(&ctx.graph_path(), SCALE, EDGES_PER_VERTEX, ctx.seed).map(|_| ())
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Index into the source batches.
    Betweenness(usize),
    Closeness(u64),
    PathStats(u64),
}

fn kind(op: &Op) -> &'static str {
    match op {
        Op::Betweenness(_) => "betweenness",
        Op::Closeness(_) => "closeness",
        Op::PathStats(_) => "path_stats",
    }
}

/// Run one op and fingerprint its result: generic so the same code
/// gives the flat-CSR reference during set-up.
fn exec<G: Graph>(g: &G, op: &Op, batches: &[Vec<VertexId>], sweep: usize) -> u64 {
    let f = Fingerprint::default();
    match *op {
        Op::Betweenness(i) => {
            let s = snap_centrality::betweenness_from_sources(g, &batches[i]);
            f.f64s(&s.vertex).f64s(&s.edge)
        }
        Op::Closeness(seed) => f.f64s(&snap_centrality::sampled_closeness(g, sweep, seed)),
        Op::PathStats(seed) => {
            let p = snap_metrics::path_stats_sampled(g, sweep, seed);
            f.word(p.average.to_bits())
                .word(p.max as u64)
                .word(p.effective_diameter.to_bits())
                .word(p.pairs)
        }
    }
    .value()
}

fn giant_mask(n: usize, members: &[VertexId]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in members {
        mask[v as usize] = true;
    }
    mask
}

/// The `k` sources `sampled_closeness` and `path_stats_sampled` draw for
/// `seed`: the first `k` of a seeded shuffle of all vertices.
fn sampled_sources(n: usize, k: usize, seed: u64) -> Vec<VertexId> {
    use rand::{seq::SliceRandom, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sources: Vec<VertexId> = (0..n as VertexId).collect();
    sources.shuffle(&mut rng);
    sources.truncate(k.max(1).min(n));
    sources
}

/// A sampling seed whose `k` sources hold the giant component's share of
/// them, rounded. A sampled call's cost follows how many of its sources
/// lie in the giant component, and drawn freely that count varies by
/// about 13 % between seeds. If the library's sampling ever differs
/// from `sampled_sources`, the seed is still valid, only its cost is no
/// longer held.
fn steady_seed(rng: &mut gen::Rng, in_giant: &[bool], k: usize) -> u64 {
    let n = in_giant.len();
    let share = in_giant.iter().filter(|&&b| b).count() as f64 / n as f64;
    let target = (share * k as f64).round() as usize;
    let mut best = (usize::MAX, 0);
    for _ in 0..SEED_TRIES {
        let seed = rng.next();
        let hits = sampled_sources(n, k, seed)
            .iter()
            .filter(|&&v| in_giant[v as usize])
            .count();
        if hits == target {
            return seed;
        }
        best = best.min((hits.abs_diff(target), seed));
    }
    best.1
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.graph_path();
    let mut encode_times = Vec::new();
    let mut setup = || {
        let flat = crate::load_graph(&path);
        let t = Instant::now();
        let g = CompressedCsrGraph::from_csr(&flat);
        encode_times.push(t.elapsed().as_secs_f64());
        (flat, g)
    };
    let t = Instant::now();
    let (flat, g) = setup();
    let first_setup_s = t.elapsed().as_secs_f64();

    let k = SOURCES_PER_THREAD * ctx.nproc;
    let members = crate::traverse::giant_component(&flat);
    let mut rng = gen::Rng::new(ctx.seed, 20);
    let batches: Vec<Vec<VertexId>> = (0..BETWEENNESS_OPS)
        .map(|_| {
            (0..k)
                .map(|_| members[rng.below(members.len() as u64) as usize])
                .collect()
        })
        .collect();
    let in_giant = giant_mask(flat.num_vertices(), &members);
    let mut ops: Vec<Op> = (0..BETWEENNESS_OPS).map(Op::Betweenness).collect();
    let sweep = SWEEP_SCALE * k;
    ops.extend((0..CLOSENESS_OPS).map(|_| Op::Closeness(steady_seed(&mut rng, &in_giant, sweep))));
    ops.extend((0..PATH_OPS).map(|_| Op::PathStats(steady_seed(&mut rng, &in_giant, sweep))));

    // Reference fingerprints on the flat CSR, then drop it: the timed
    // phase holds only the compressed graph.
    let pool = crate::thread_pool(ctx.nproc);
    let reference: Vec<u64> = pool.install(|| {
        ops.iter()
            .map(|op| exec(&flat, op, &batches, sweep))
            .collect()
    });
    let bytes_ratio = g.adjacency_bytes() as f64 / flat.adjacency_bytes() as f64;
    let (n, m) = (flat.num_vertices(), flat.num_edges());
    drop(flat);

    let run = |op: &Op| exec(&g, op, &batches, sweep);
    let digest = |_: &Op, fp: &u64| Digest {
        fingerprint: *fp,
        counts: vec![],
    };
    let batch = Batch {
        ops: &ops,
        kind,
        run: &run,
        digest: &digest,
    };
    let mut ledger = Ledger::default();
    let mut fps = PassFingerprints::new(ops.len());
    let matches_flat = |i: usize, op: &Op, fp: &u64| {
        if reference[i] == *fp {
            Ok(())
        } else {
            Err(format!(
                "{}: compressed result differs from flat CSR",
                kind(op)
            ))
        }
    };
    batch.validate(ctx.nproc, &|_, _, _| Ok(()), &mut fps, &mut ledger);

    let mut out = Outcome::default();
    let rounds = if ctx.trace {
        let (plain, traced, reports) =
            batch.measure_traced(ctx.nproc, ctx.seconds, &mut fps, &mut ledger);
        let report = crate::combine_reports(reports, true);
        let layers = &mut out.layers;
        crate::common_layers(ctx, layers);
        for _ in 0..ENCODE_REPS {
            drop(setup());
        }
        layers.put(
            "graph.ccsr.encode_s",
            crate::stats::median(&encode_times[1..]),
            "s",
        );
        layers.put("graph.ccsr.bytes_ratio", bytes_ratio, "ratio");
        layers.put(
            "graph.ccsr.decode_chunks",
            report.total_counter("decode_chunks") as f64 / traced.par_passes.max(1) as f64,
            "count",
        );
        batch::cpu_figures(&traced, ctx.nproc, layers);
        batch::kind_figures(&traced, "centrality", "betweenness", layers);
        batch::kind_figures(&traced, "centrality", "closeness", layers);
        batch::kind_figures(&traced, "metrics", "path_stats", layers);
        let bc_ms = traced.kind_p50("betweenness", true).unwrap_or(f64::NAN);
        layers.put("centrality.sources_per_s", k as f64 / (bc_ms / 1e3), "1/s");
        layers.put(
            "obs.tracing_overhead_pct",
            crate::tracing_overhead_pct(plain.ops_per_s(), traced.ops_per_s()),
            "%",
        );
        out.report = Some(report);
        traced.rounds
    } else {
        let mut phase = batch.measure(
            ctx.nproc,
            ctx.seconds,
            &mut || drop(setup()),
            &mut fps,
            &mut ledger,
        );
        batch::e2e_figures(&mut phase, first_setup_s, &mut out.e2e);
        out.e2e
            .put("peak_rss_mb", crate::probe::peak_rss_mb(), "MB");
        phase.rounds
    };
    batch.validate(ctx.nproc, &matches_flat, &mut fps, &mut ledger);
    out.info.push(("n".into(), n.to_string()));
    out.info.push(("m".into(), m.to_string()));
    out.info.push(("sources_per_op".into(), k.to_string()));
    out.info
        .push(("sources_per_sweep".into(), sweep.to_string()));
    out.info
        .push(("ops_per_pass".into(), ops.len().to_string()));
    out.info.push(("rounds".into(), rounds.to_string()));
    out.info
        .push(("threads_per_pass".into(), format!("1,{}", ctx.nproc)));
    out.ledger = ledger;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_sources_match_the_library_sampling() {
        // Paths of 1, 2, ..., 12 vertices: a source's reachable pairs
        // tell which component it lies in.
        let mut edges = Vec::new();
        let mut size_of = Vec::new();
        for len in 1..=12u32 {
            let first = size_of.len() as VertexId;
            edges.extend((1..len).map(|i| (first + i - 1, first + i)));
            size_of.extend(std::iter::repeat(len as u64).take(len as usize));
        }
        let g = snap_graph::builder::from_edges(size_of.len(), &edges);
        for seed in 0..20 {
            let expected: u64 = sampled_sources(size_of.len(), 9, seed)
                .iter()
                .map(|&s| size_of[s as usize] - 1)
                .sum();
            assert_eq!(
                snap_metrics::path_stats_sampled(&g, 9, seed).pairs,
                expected
            );
        }
    }
}
