//! Readings taken from outside the program: process CPU time and peak
//! memory from `/proc`, and the cost of the parallel runtime's empty
//! fork/join.

use crate::stats::{self, Samples};
use rayon::prelude::*;
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ, which is 100 on
/// every architecture the kernel supports.
const USER_HZ: f64 = 100.0;

/// Cumulative user and system CPU seconds of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }
}

/// `utime` and `stime` are fields 14 and 15; the command name (field 2)
/// may hold spaces, so count from the closing parenthesis.
fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// CPU use over one measured phase.
pub struct CpuPhase {
    start: CpuTimes,
    wall: Instant,
}

/// `(cpu_util, sys_frac)` of a finished phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuUse {
    pub user_s: f64,
    pub sys_s: f64,
    pub wall_s: f64,
}

impl CpuUse {
    pub fn util(&self, threads: usize) -> f64 {
        stats::cpu_util(self.user_s, self.sys_s, self.wall_s, threads)
    }

    pub fn sys_frac(&self) -> f64 {
        stats::sys_frac(self.user_s, self.sys_s)
    }

    pub fn add(&mut self, other: CpuUse) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.wall_s += other.wall_s;
    }
}

impl CpuPhase {
    pub fn start() -> CpuPhase {
        CpuPhase {
            start: CpuTimes::now(),
            wall: Instant::now(),
        }
    }

    pub fn stop(self) -> CpuUse {
        let end = CpuTimes::now();
        CpuUse {
            user_s: end.user_s - self.start.user_s,
            sys_s: end.sys_s - self.start.sys_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median microseconds of an empty `join` and of an empty
/// `par_iter().for_each` over 4096 items, at the ambient thread count.
pub fn runtime_overheads(reps: usize) -> (f64, f64) {
    let items = vec![0u32; 4096];
    let mut join_us = Samples::default();
    let mut region_us = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        rayon::join(|| std::hint::black_box(1), || std::hint::black_box(2));
        join_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        items.par_iter().for_each(|x| {
            std::hint::black_box(x);
        });
        region_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (
        join_us.quantile(0.5).unwrap_or(0.0),
        region_us.quantile(0.5).unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_skips_command_name_with_spaces() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        let t = parse_stat(line).unwrap();
        assert!((t.user_s - 2.5).abs() < 1e-12);
        assert!((t.sys_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn own_process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let phase = CpuPhase::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let used = phase.stop();
        assert!(used.wall_s > 0.0);
        assert!(used.util(1) >= 0.0);
    }
}
