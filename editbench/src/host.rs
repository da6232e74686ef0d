//! Facts about the host recorded with every result.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The commit the benchmark was built from, read from `.git` in the
/// working directory or a parent; `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve_head(&git).unwrap_or_else(|| "unknown".to_string());
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// The type of the filesystem holding `path`, from `/proc/mounts`;
/// `"unknown"` when it cannot be told.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Seconds since the first call in this process: the clock that timing
/// samples and the [`StealMonitor`] share.
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The host's CPU time counters from `/proc/stat`, in clock ticks,
/// summed over CPUs: `(stolen, wanted)`. Steal is time a virtual CPU
/// wanted to run while the hypervisor ran another guest; wanted time is
/// every tick but idle and I/O wait.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    (f.len() == 8).then(|| (f[7], f[0] + f[1] + f[2] + f[5] + f[6] + f[7]))
}

/// A thread that samples the host's stolen CPU time every `period`
/// until [`StealMonitor::finish`].
pub struct StealMonitor {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<(f64, u64, u64)>>,
}

impl StealMonitor {
    /// Starts sampling.
    pub fn start(period: Duration) -> StealMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut points = Vec::new();
            loop {
                if let Some((stolen, wanted)) = cpu_ticks() {
                    points.push((now_s(), stolen, wanted));
                }
                if flag.load(Ordering::Relaxed) {
                    return points;
                }
                std::thread::sleep(period);
            }
        });
        StealMonitor { stop, thread }
    }

    /// Stops sampling and waits for the thread; returns the series.
    pub fn finish(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        Steal::from_points(self.thread.join().unwrap_or_default())
    }
}

/// The host's stolen CPU time over a run.
#[derive(Debug, Clone, Default)]
pub struct Steal {
    /// `(now_s, stolen ticks, wanted ticks)`, in time order.
    points: Vec<(f64, u64, u64)>,
}

impl Steal {
    /// A series from `(now_s, stolen ticks, wanted ticks)` points, in time
    /// order.
    pub fn from_points(points: Vec<(f64, u64, u64)>) -> Steal {
        Steal { points }
    }

    /// The share of wanted CPU time the host stole over the sampling
    /// periods that cover `[t0, t1]` (seconds of [`now_s`]); 0 without
    /// two samples.
    pub fn share(&self, t0: f64, t1: f64) -> f64 {
        let p = &self.points;
        if p.len() < 2 {
            return 0.0;
        }
        let lo = p
            .partition_point(|x| x.0 <= t0)
            .saturating_sub(1)
            .min(p.len() - 2);
        let hi = p.partition_point(|x| x.0 < t1).clamp(lo + 1, p.len() - 1);
        let (stolen, wanted) = (p[hi].1 - p[lo].1, p[hi].2 - p[lo].2);
        if wanted == 0 {
            0.0
        } else {
            stolen as f64 / wanted as f64
        }
    }
}
