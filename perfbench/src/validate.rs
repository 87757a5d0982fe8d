//! Result checks and failure accounting. Every check runs outside the
//! timed region; a failed check counts one failed op.

use snap_graph::{Graph, VertexId};
use snap_kernels::{NO_PARENT, UNREACHABLE};

/// Ops attempted and failed, with the first few reasons kept for the
/// report.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Count one attempted op that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted op that failed.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    /// Record a check on an op that was already counted as attempted.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over a stream of 64-bit words: a cheap fingerprint for
/// comparing results bit for bit across passes.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u32s(self, xs: &[u32]) -> Self {
        xs.iter()
            .fold(self.word(xs.len() as u64), |f, &x| f.word(x as u64))
    }

    pub fn u64s(self, xs: &[u64]) -> Self {
        xs.iter()
            .fold(self.word(xs.len() as u64), |f, &x| f.word(x))
    }

    pub fn f64s(self, xs: &[f64]) -> Self {
        xs.iter()
            .fold(self.word(xs.len() as u64), |f, &x| f.word(x.to_bits()))
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Graph500-style BFS check over the public [`Graph`] API:
/// the source is at depth 0 with no parent; every other reached vertex
/// has a reached parent that is a neighbour one level up; and every edge
/// joins two reached vertices at most one level apart, or two unreached
/// ones.
pub fn check_bfs<G: Graph>(
    g: &G,
    source: VertexId,
    dist: &[u32],
    parent: &[VertexId],
) -> Result<(), String> {
    let n = g.num_vertices();
    if dist.len() != n || parent.len() != n {
        return Err(format!("bfs from {source}: result length != n"));
    }
    if dist[source as usize] != 0 || parent[source as usize] != NO_PARENT {
        return Err(format!("bfs from {source}: source not at depth 0"));
    }
    for v in g.vertices() {
        let d = dist[v as usize];
        if v == source || d == UNREACHABLE {
            continue;
        }
        let p = parent[v as usize];
        if p == NO_PARENT || p as usize >= n {
            return Err(format!(
                "bfs from {source}: reached vertex {v} has no parent"
            ));
        }
        if dist[p as usize] == UNREACHABLE || dist[p as usize] + 1 != d {
            return Err(format!(
                "bfs from {source}: parent of {v} is not one level up"
            ));
        }
        if !g.neighbors(v).any(|u| u == p) {
            return Err(format!(
                "bfs from {source}: parent of {v} is not a neighbour"
            ));
        }
    }
    for v in g.vertices() {
        let dv = dist[v as usize];
        for u in g.neighbors(v) {
            let du = dist[u as usize];
            let ok = match (dv == UNREACHABLE, du == UNREACHABLE) {
                (true, true) => true,
                (false, false) => dv.abs_diff(du) <= 1,
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "bfs from {source}: edge {v}-{u} spans levels {dv}/{du}"
                ));
            }
        }
    }
    Ok(())
}

/// Components check: every edge stays inside one label, labels are
/// dense in `0..count`, and `count` matches a sequential sweep (so no
/// two components share a label).
pub fn check_components<G: Graph>(g: &G, comp: &[u32], count: usize) -> Result<(), String> {
    if comp.len() != g.num_vertices() {
        return Err("components: result length != n".into());
    }
    let mut seen = vec![false; count];
    for v in g.vertices() {
        let c = comp[v as usize] as usize;
        if c >= count {
            return Err(format!("components: label {c} of {v} out of range"));
        }
        seen[c] = true;
        if let Some(u) = g.neighbors(v).find(|&u| comp[u as usize] as usize != c) {
            return Err(format!("components: edge {v}-{u} crosses labels"));
        }
    }
    if seen.iter().any(|&s| !s) {
        return Err("components: unused label".into());
    }
    let want = snap_kernels::connected_components(g).count;
    if count != want {
        return Err(format!("components: {count} components, expected {want}"));
    }
    Ok(())
}

/// Sequential Batagelj–Zaversnik core decomposition, `O(n + m)`: an
/// implementation independent of the kernel under test.
pub fn reference_coreness<G: Graph>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    let mut bin = vec![0usize; max_deg + 1];
    for &d in &deg {
        bin[d] += 1;
    }
    let mut start = 0;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0usize; n];
    for v in 0..n {
        pos[v] = bin[deg[v]];
        vert[pos[v]] = v;
        bin[deg[v]] += 1;
    }
    for d in (1..=max_deg).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;
    for i in 0..n {
        let v = vert[i];
        for u in g.neighbors(v as VertexId) {
            let u = u as usize;
            if deg[u] > deg[v] {
                let du = deg[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    pos[u] = pw;
                    vert[pu] = w;
                    pos[w] = pu;
                    vert[pw] = u;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    deg.into_iter().map(|d| d as u32).collect()
}

/// Exact equality of two result vectors.
pub fn check_equal<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[T],
    want: &[T],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} != {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: entry {i} is {:?}, expected {:?}",
            got[i], want[i]
        )),
    }
}

/// Per-op fingerprints of the first pass; later passes (at another
/// thread count) must reproduce them bit for bit.
#[derive(Clone, Debug, Default)]
pub struct PassFingerprints {
    first: Vec<Option<u64>>,
}

impl PassFingerprints {
    pub fn new(ops: usize) -> Self {
        PassFingerprints {
            first: vec![None; ops],
        }
    }

    pub fn check(&mut self, op: usize, label: &str, fp: u64) -> Result<(), String> {
        match self.first[op] {
            None => {
                self.first[op] = Some(fp);
                Ok(())
            }
            Some(want) if want == fp => Ok(()),
            Some(_) => Err(format!("{label}: result differs between passes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    fn path_plus_isolated() -> snap_graph::CsrGraph {
        // 0-1-2-3 and 1-4, vertex 5 isolated.
        from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    #[test]
    fn real_bfs_passes_the_validator() {
        let g = path_plus_isolated();
        let r = snap_kernels::par_bfs_hybrid(&g, 0);
        assert_eq!(check_bfs(&g, 0, &r.dist, &r.parent), Ok(()));
    }

    #[test]
    fn corrupted_bfs_results_raise_the_error_rate() {
        let g = path_plus_isolated();
        let good = snap_kernels::par_bfs_hybrid(&g, 0);
        let mut ledger = Ledger::default();

        ledger.ok();
        ledger.check(check_bfs(&g, 0, &good.dist, &good.parent));
        assert_eq!(ledger.error_rate(), 0.0);

        // A distance off by one.
        let mut dist = good.dist.clone();
        dist[3] += 1;
        ledger.ok();
        ledger.check(check_bfs(&g, 0, &dist, &good.parent));
        // A parent that is not a neighbour.
        let mut parent = good.parent.clone();
        parent[3] = 0;
        ledger.ok();
        ledger.check(check_bfs(&g, 0, &good.dist, &parent));
        // An unreached vertex claimed as reached.
        let mut dist = good.dist.clone();
        dist[5] = 1;
        ledger.ok();
        ledger.check(check_bfs(&g, 0, &dist, &good.parent));

        assert_eq!(ledger.attempted, 4);
        assert_eq!(ledger.failed, 3);
        assert!((ledger.error_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn a_pass_that_disagrees_is_a_failure() {
        let mut fps = PassFingerprints::new(2);
        let a = Fingerprint::default().u32s(&[1, 2, 3]).value();
        let b = Fingerprint::default().u32s(&[1, 2, 4]).value();
        assert_ne!(a, b);
        assert!(fps.check(0, "op", a).is_ok());
        assert!(fps.check(0, "op", a).is_ok());
        assert!(fps.check(0, "op", b).is_err());
        assert!(check_equal("sssp", &[1u64, 2], &[1, 3]).is_err());
        assert!(check_equal("sssp", &[1u64, 2], &[1, 2]).is_ok());
    }

    #[test]
    fn reference_checks_agree_with_the_kernels() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (3, 6),
                (6, 4),
            ],
        );
        let k = snap_kernels::coreness(&g);
        assert_eq!(reference_coreness(&g), k.coreness);
        let c = snap_kernels::par_components_hybrid(&g);
        assert_eq!(check_components(&g, &c.comp, c.count), Ok(()));
        // Vertex 7 is isolated: merging it into component 0 is caught.
        let mut merged = c.comp.clone();
        merged[7] = merged[0];
        assert!(check_components(&g, &merged, c.count).is_err());
    }

    #[test]
    fn float_fingerprint_sees_the_last_bit() {
        let a = Fingerprint::default().f64s(&[0.1 + 0.2]).value();
        let b = Fingerprint::default().f64s(&[0.3]).value();
        assert_ne!(a, b);
    }
}
