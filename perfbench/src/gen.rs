//! Seeded input generation. Inputs come from the benchmark's own R-MAT
//! sampler rather than the workspace's generator, so a change to the
//! program never changes what it is measured on.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Undirected R-MAT with the skewed small-world quadrant split
/// `(0.45, 0.15, 0.15, 0.25)`, vertex ids scrambled by a seeded
/// permutation so that degree does not follow id.
pub struct Rmat {
    scale: u32,
    perm: Vec<u32>,
    rng: Rng,
}

impl Rmat {
    pub fn new(scale: u32, seed: u64) -> Rmat {
        let n = 1usize << scale;
        let mut rng = Rng::new(seed, 1);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Rmat {
            scale,
            perm,
            rng: Rng::new(seed, 2),
        }
    }

    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// One edge `u != v`.
    pub fn edge(&mut self) -> (u32, u32) {
        loop {
            let (mut u, mut v) = (0u32, 0u32);
            for level in 0..self.scale {
                let bit = 1u32 << (self.scale - 1 - level);
                let r = self.rng.unit();
                if r < 0.45 {
                } else if r < 0.60 {
                    v |= bit;
                } else if r < 0.75 {
                    u |= bit;
                } else {
                    u |= bit;
                    v |= bit;
                }
            }
            if u != v {
                return (self.perm[u as usize], self.perm[v as usize]);
            }
        }
    }
}

/// Write an R-MAT edge list (`u v w` per line, weights in `1..=64`)
/// with `edges_per_vertex × n` lines. Returns the edges written.
pub fn write_rmat_edge_list(
    path: &Path,
    scale: u32,
    edges_per_vertex: usize,
    seed: u64,
) -> std::io::Result<Vec<(u32, u32)>> {
    let mut rmat = Rmat::new(scale, seed);
    let mut weights = Rng::new(seed, 3);
    let m = rmat.n() * edges_per_vertex;
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut edges = Vec::with_capacity(m);
    writeln!(out, "# R-MAT scale {scale}, {m} edge samples, seed {seed}")?;
    for _ in 0..m {
        let (u, v) = rmat.edge();
        let w = 1 + weights.below(64);
        writeln!(out, "{u} {v} {w}")?;
        edges.push((u, v));
    }
    out.flush()?;
    Ok(edges)
}

/// Write `batches` stream batches of `batch` ops each: three in four
/// insert a fresh R-MAT edge, one in four deletes an edge of the base
/// list. One op per line, `+ u v` or `- u v`.
pub fn write_stream_ops(
    path: &Path,
    base: &[(u32, u32)],
    scale: u32,
    batches: usize,
    batch: usize,
    seed: u64,
) -> std::io::Result<()> {
    let mut rmat = Rmat::new(scale, seed);
    // Same permutation as the base graph, fresh edge stream.
    rmat.rng = Rng::new(seed, 4);
    let mut pick = Rng::new(seed, 5);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for _ in 0..batches * batch {
        if pick.below(4) == 0 {
            let (u, v) = base[pick.below(base.len() as u64) as usize];
            writeln!(out, "- {u} {v}")?;
        } else {
            let (u, v) = rmat.edge();
            writeln!(out, "+ {u} {v}")?;
        }
    }
    out.flush()
}

/// Read ops written by [`write_stream_ops`].
pub fn read_stream_ops(path: &Path) -> std::io::Result<Vec<snap_graph::EdgeOp>> {
    use snap_graph::EdgeOp;
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut ops = Vec::new();
    for line in file.lines() {
        let line = line?;
        let mut it = line.split_whitespace();
        let (Some(kind), Some(u), Some(v)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        let bad = |_| std::io::Error::new(std::io::ErrorKind::InvalidData, line.clone());
        let u: u32 = u.parse().map_err(bad)?;
        let v: u32 = v.parse().map_err(bad)?;
        ops.push(if kind == "-" {
            EdgeOp::Delete(u, v)
        } else {
            EdgeOp::Insert(u, v)
        });
    }
    Ok(ops)
}

/// Vertex count and `(u, v, w)` edges as they appear in the file.
pub type RawEdges = (usize, Vec<(u32, u32, u32)>);

/// Parse `u v [w]` lines the way the edge-list reader does, keeping the
/// raw (unsorted, undeduplicated) edges for timing the CSR build alone.
pub fn parse_raw_edges(path: &Path) -> std::io::Result<RawEdges> {
    let text = std::fs::read_to_string(path)?;
    let mut edges = Vec::new();
    let mut max_id = 0u32;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut it = line
            .split_whitespace()
            .map(|t| t.parse::<u32>().unwrap_or(0));
        let (Some(u), Some(v)) = (it.next(), it.next()) else {
            continue;
        };
        let w = it.next().unwrap_or(1);
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    Ok((max_id as usize + 1, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_determined_by_its_seed() {
        let mut a = Rmat::new(10, 7);
        let mut b = Rmat::new(10, 7);
        let mut c = Rmat::new(10, 8);
        let ea: Vec<_> = (0..100).map(|_| a.edge()).collect();
        let eb: Vec<_> = (0..100).map(|_| b.edge()).collect();
        let ec: Vec<_> = (0..100).map(|_| c.edge()).collect();
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
        assert!(ea.iter().all(|&(u, v)| u != v && u < 1024 && v < 1024));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
