//! Shared pieces of the workloads: the run options, the result line,
//! sample statistics, CPU time, heap counting, the calibration kernel and
//! the benchmark's own span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `tiny` shrinks every input so the self-test runs in seconds.
    pub tiny: bool,
    /// Corrupt one compared output on purpose, so the self-test can see
    /// that the correctness check fires.
    pub sabotage: bool,
    /// Workload-private scratch directory (spill files, WAL, datasets),
    /// emptied at start.
    pub scratch: PathBuf,
}

impl Opts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A correctness-check failure: the run prints no result and exits non-zero.
#[derive(Debug)]
pub struct CheckFailed(pub String);

pub type Outcome = Result<Report, CheckFailed>;

/// Fail the run with `msg` unless `cond` holds.
pub fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), CheckFailed> {
    if cond {
        Ok(())
    } else {
        Err(CheckFailed(msg()))
    }
}

/// The result of one run: operation counts plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The last line of the run's output.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Quartiles of a sample, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return Quartiles {
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            n,
        };
    }
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive", n=4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// The `q`-quantile of `sorted` by linear interpolation between ranks.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Print one human-readable row: a metric's per-run quartiles and the
/// number of samples behind them.
pub fn print_quartiles(name: &str, unit: &str, values: &[f64]) {
    let q = quartiles(values);
    println!(
        "# {name:<24} median {:>12.4} {unit:<9} q1 {:>12.4}  q3 {:>12.4}  n={}",
        q.median, q.q1, q.q3, q.n
    );
}

/// Print a scalar metric that has no per-run samples.
pub fn print_value(name: &str, unit: &str, value: f64, note: &str) {
    println!("# {name:<24} value  {value:>12.4} {unit:<9} {note}");
}

/// Run `setup` `reps` times and return its wall times in seconds together
/// with the last result (the one the workload then uses).
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}

/// Median milliseconds of [`calibrate`] on the reference host (two shared
/// vCPUs, the machine the bounds were set on).
pub const CALIBRATION_REF_MS: f64 = 150.0;

/// Time one run of the calibration kernel, in ms.
///
/// The host's speed drifts: on a shared VM a 1M-row fit took 1.5 s in one
/// minute and 2.0 s in another, with CPU time moving alike. The kernel —
/// benchmark-owned code, no call into the program — sorts 4M integers and
/// makes 4M random reads, a mix of branchy compute and cache misses like a
/// fit's. A time scaled by `CALIBRATION_REF_MS / kernel time` reads as on
/// the reference host.
///
/// The kernel runs in a child process (this binary with `--calibrate`),
/// so its memory never shows in the workload's heap count.
pub fn calibrate() -> f64 {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let out = std::process::Command::new(exe)
        .arg("--calibrate")
        .output()
        .expect("run the calibration kernel");
    assert!(out.status.success(), "calibration kernel failed");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("calibration kernel prints its time in ms")
}

/// The calibration kernel; returns the wall time of its compute in ms
/// (filling the buffer, and so faulting its pages in, is not timed).
pub fn calibration_kernel() -> f64 {
    let mut v: Vec<u64> = (0..4_000_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    let t = Instant::now();
    v.sort_unstable();
    let mut acc = 0u64;
    let mut j = 12_345usize;
    for _ in 0..4_000_000 {
        j = j
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            % v.len();
        acc = acc.wrapping_add(v[j]);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The global allocator: the system allocator, counting the heap bytes
/// the process holds. Peak memory is read from these counts rather than
/// from the peak resident set, which moved by 8–10 MB between runs of the
/// same work here, as the allocator kept or returned freed pages.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(by: usize) {
        // Relaxed: the counters are statistics and publish no other data.
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only two atomics and never the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received; `ptr` came from this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most heap the process has held at once so far, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of every thread of the process, from
/// `getrusage(RUSAGE_SELF)`.
pub fn cpu_time() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        ru_utime: zero(),
        ru_stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux (two timevals of two longs, then fourteen longs), and `ru`
    // is a valid, writable value of it for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| {
        Duration::from_secs(t.tv_sec as u64) + Duration::from_micros(t.tv_usec as u64)
    };
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

/// One recorded span of the benchmark's own tracer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The benchmark's span recorder: wraps calls into the program's public
/// functions. Disabled, a span is only the call itself; enabled, it also
/// records name, start, end and parent span in memory.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations in ns of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Write the spans (one JSON object a line) and their self times as
    /// folded stacks (`root;child self_ns`, flamegraph-compatible) into
    /// `dir`.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let mut lines = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                lines,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(dir.join("trace.jsonl"), lines)?;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut folded = std::collections::BTreeMap::<String, u64>::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut path = vec![s.name];
            let mut p = s.parent;
            while let Some(j) = p {
                path.push(self.spans[j].name);
                p = self.spans[j].parent;
            }
            path.reverse();
            *folded.entry(path.join(";")).or_default() += s.ns().saturating_sub(child_ns[i]);
        }
        let mut text = String::new();
        for (stack, ns) in folded {
            let _ = writeln!(text, "{stack} {ns}");
        }
        std::fs::write(dir.join("trace.folded"), text)
    }
}
