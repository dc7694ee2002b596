//! The `dirqd_serve` workload: the real `dirqd` binary as a child
//! process, one `dense_grid_100` deployment with auto-checkpointing,
//! and a two-thread, two-connection load generator (one submitter, one
//! drainer) running a fixed-rate open-loop phase and then a saturation
//! phase.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dirq_sim::json::Json;
use dirqd::protocol::{read_line, write_line};
use dirqd::{Client, ClientError, DeployOptions, QueryReport};

use crate::engine_bench::preset_seed;
use crate::report::{mean, median, peak_rss_mib, proc_status_kib, quantile, Outcome};

/// The served preset.
pub const PRESET: &str = "dense_grid_100";

/// Deployment name inside the daemon.
const DEPLOYMENT: &str = "serve";

/// Auto-checkpoint period, epochs.
const CHECKPOINT_EVERY: u64 = 2_000;

/// Client socket deadline: far above any healthy round trip, far below
/// the harness's own time limit.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Drainer pause between drains in the open-loop phase: short, since
/// it bounds how late a completion is observed.
const DRAIN_PAUSE_OPEN: Duration = Duration::from_micros(200);

/// Drainer pause between drains in the saturation phase, where the
/// drainer must not compete with the daemon for the CPUs.
const DRAIN_PAUSE_SATURATED: Duration = Duration::from_millis(1);

/// Saturation queries submitted per second of the phase's nominal
/// length: the phase submits a fixed count, so the daemon always ends a
/// run having answered the same number of queries (its results log
/// full), whatever the host's speed.
const SATURATION_QUERIES_PER_S: f64 = 6_000.0;

/// Width of the windows the serving figures are taken over: each metric
/// is the median of its per-window values, so a host stall confined to
/// a few windows does not move it.
const WINDOW_S: f64 = 1.0;

/// How long the drainer keeps collecting after the last submission.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// The load a serving run applies.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Daemon spawn + deploy cycles timed for `setup_s`.
    pub setups: usize,
    /// Offered rate of the open-loop phase, queries per second.
    pub open_rate: f64,
    /// Open-loop phase length, seconds.
    pub open_s: f64,
    /// Queries the saturation phase submits back to back.
    pub saturation_queries: u64,
    /// Time limit of the saturation phase, seconds.
    pub saturation_cap_s: f64,
    /// Explicit snapshots timed after the load.
    pub snapshots: usize,
}

impl Shape {
    /// The `dirqd_serve` workload over a measured budget of `seconds`.
    pub fn workload(seconds: f64, smoke: bool) -> Shape {
        Shape::split(seconds, if smoke { 2 } else { 9 }, 5)
    }

    /// The short serving probe every traced engine run includes.
    pub fn probe() -> Shape {
        Shape::split(2.0, 1, 3)
    }

    /// Half the budget open loop at 800 q/s, half saturation.
    fn split(seconds: f64, setups: usize, snapshots: usize) -> Shape {
        let half = seconds * 0.5;
        Shape {
            setups,
            open_rate: 800.0,
            open_s: half,
            saturation_queries: (half * SATURATION_QUERIES_PER_S).round() as u64,
            saturation_cap_s: half * 4.0,
            snapshots,
        }
    }
}

/// A `dirqd` child process. Dropping it kills and reaps the child, so
/// every exit path of the harness (early return, panic unwind) stops
/// the daemon.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(bin: &Path, log: &Path) -> io::Result<Daemon> {
        let log = std::fs::OpenOptions::new().create(true).append(true).open(log)?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--print-addr", "--serving-threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = String::new();
        let read = stdout.read_line(&mut addr);
        let daemon = Daemon { child, addr: addr.trim().to_string(), _stdout: stdout };
        match read {
            Ok(n) if n > 0 => Ok(daemon),
            Ok(_) => Err(io::Error::other("dirqd exited before printing its address")),
            Err(e) => Err(e),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<Client, ClientError> {
        let mut c = Client::connect(self.addr.as_str())?;
        c.set_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(c)
    }

    /// Orderly stop: `shutdown`, then wait up to five seconds before
    /// killing. Returns the exit status when the daemon exited by itself.
    fn stop(mut self) -> Option<ExitStatus> {
        let asked = self.connect().and_then(|mut c| c.shutdown()).is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        while asked && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) => thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One submission as the submitter saw it (times in seconds since the
/// load began).
struct Submitted {
    id: u64,
    saturation: bool,
    due: f64,
    start: f64,
    end: f64,
    epoch: u64,
}

/// One drained result as the drainer saw it.
struct Observed {
    at: f64,
    report: QueryReport,
}

/// Everything the drainer collected.
#[derive(Default)]
struct Drained {
    observed: Vec<Observed>,
    rtt_ms: Vec<f64>,
    per_call: Vec<f64>,
    epochs: Vec<(f64, u64)>,
    aged_out: u64,
    error: Option<String>,
}

/// Deterministic query content for the `k`-th submission under a
/// workload seed: sensor type 0 windows sweeping its value range.
fn query_window(seed: u64, k: u64) -> (f64, f64) {
    let lo = 12.0 + ((seed.wrapping_mul(5).wrapping_add(k)) % 9) as f64;
    (lo, lo + 6.0 + (k % 4) as f64)
}

fn classify(out: &mut Outcome, e: &ClientError) {
    let kind = match e {
        ClientError::Remote { kind, .. } if kind == "queue_full" => "queue_full",
        ClientError::Remote { kind, .. } if kind == "timeout" => "timeout",
        ClientError::Timeout => "timeout",
        _ => "client_error",
    };
    out.fail(kind, 1);
}

fn submitter(
    daemon_addr: &str,
    seed: u64,
    shape: Shape,
    t0: Instant,
    accepted: &AtomicU64,
    saturating: &AtomicBool,
    out: &mut Outcome,
) -> Result<(Vec<Submitted>, (f64, f64)), ClientError> {
    let mut c = Client::connect(daemon_addr)?;
    c.set_timeout(Some(CLIENT_TIMEOUT))?;
    let mut sent = Vec::new();
    let mut k = 0u64;
    let mut submit =
        |c: &mut Client, due: f64, saturation: bool, out: &mut Outcome, k: &mut u64| {
            let (lo, hi) = query_window(seed, *k);
            *k += 1;
            out.attempted += 1;
            let start = t0.elapsed().as_secs_f64();
            match c.query_async(DEPLOYMENT, 0, lo, hi, None, None) {
                Ok((id, epoch)) => {
                    let end = t0.elapsed().as_secs_f64();
                    sent.push(Submitted { id, saturation, due, start, end, epoch });
                    accepted.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }
                Err(e @ ClientError::Timeout) | Err(e @ ClientError::Io(_)) => {
                    // The connection is unusable after these: stop the load.
                    classify(out, &e);
                    Err(e)
                }
                Err(e) => {
                    classify(out, &e);
                    Ok(())
                }
            }
        };
    // Open loop: query n is due at n / rate whether or not earlier ones
    // have returned; a late generator shows up as lateness, not as a
    // lower offered rate.
    let n_open = (shape.open_rate * shape.open_s).round() as u64;
    for n in 0..n_open {
        let due = n as f64 / shape.open_rate;
        let now = t0.elapsed().as_secs_f64();
        if due > now {
            thread::sleep(Duration::from_secs_f64(due - now));
        }
        submit(&mut c, due, false, out, &mut k)?;
    }
    // Saturation: a fixed count back to back, within a time limit.
    saturating.store(true, Ordering::SeqCst);
    let s0 = t0.elapsed().as_secs_f64();
    for _ in 0..shape.saturation_queries {
        let now = t0.elapsed().as_secs_f64();
        if now - s0 >= shape.saturation_cap_s {
            break;
        }
        submit(&mut c, now, true, out, &mut k)?;
    }
    let s1 = t0.elapsed().as_secs_f64();
    Ok((sent, (s0, s1)))
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `SCHED_IDLE`: run only when the CPU would otherwise idle.
const SCHED_IDLE: i32 = 5;

/// Keep one CPU from going idle until `stop` (set when the last query is
/// submitted), at the lowest scheduling class so that any runnable thread
/// of the daemon or the generator preempts it. On a VM an idle vCPU is
/// halted, and on a busy host it can take milliseconds to be scheduled
/// again; without this the latencies and the saturated rate measure the
/// host's wake-up delay more than the daemon.
fn keep_awake(stop: &AtomicBool) {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` only reads `param`, which outlives the
    // call; pid 0 names the calling thread.
    let demoted = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
    while demoted && !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

fn drainer(
    daemon_addr: &str,
    t0: Instant,
    done: &AtomicBool,
    accepted: &AtomicU64,
    saturating: &AtomicBool,
) -> Drained {
    let mut d = Drained::default();
    let mut c = match Client::connect(daemon_addr)
        .and_then(|mut c| c.set_timeout(Some(CLIENT_TIMEOUT)).map(|_| c))
    {
        Ok(c) => c,
        Err(e) => {
            d.error = Some(format!("drainer connect: {e}"));
            return d;
        }
    };
    let mut cursor = 0u64;
    let mut finished_at: Option<Instant> = None;
    loop {
        let start = t0.elapsed().as_secs_f64();
        let r = match c.drain(DEPLOYMENT, cursor) {
            Ok(r) => r,
            Err(e) => {
                d.error = Some(format!("drain: {e}"));
                return d;
            }
        };
        let at = t0.elapsed().as_secs_f64();
        d.rtt_ms.push((at - start) * 1e3);
        d.epochs.push((at, r.epoch));
        if let Some(&(first, _)) = r.results.first() {
            d.aged_out += first.saturating_sub(cursor);
            d.per_call.push(r.results.len() as f64);
            d.observed.extend(r.results.iter().map(|&(_, report)| Observed { at, report }));
        }
        cursor = r.cursor;
        if done.load(Ordering::SeqCst) {
            let finished = *finished_at.get_or_insert_with(Instant::now);
            let all = d.observed.len() as u64 + d.aged_out >= accepted.load(Ordering::SeqCst);
            if (all && r.pending == 0) || finished.elapsed() > DRAIN_GRACE {
                return d;
            }
        }
        let saturated = saturating.load(Ordering::SeqCst);
        thread::sleep(if saturated { DRAIN_PAUSE_SATURATED } else { DRAIN_PAUSE_OPEN });
    }
}

/// Per-call encode/decode cost (µs) of a real `drain` reply through the
/// protocol codec `dirqd` uses (`write_line`/`read_line`).
fn codec_cost(c: &mut Client) -> Result<(f64, f64, usize), ClientError> {
    let mut req = Json::object();
    req.set("cmd", Json::Str("drain".into()));
    req.set("deployment", Json::Str(DEPLOYMENT.into()));
    req.set("cursor", Json::from_u64(0));
    let reply = c.call(&req)?;
    let mut line = Vec::new();
    write_line(&mut line, &reply)?;
    const REPS: usize = 200;
    let mut enc = Vec::with_capacity(REPS);
    let mut dec = Vec::with_capacity(REPS);
    let mut buf = Vec::with_capacity(line.len());
    for _ in 0..REPS {
        buf.clear();
        let t = Instant::now();
        write_line(&mut buf, &reply)?;
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let parsed = read_line(&mut buf.as_slice())?;
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(parsed.is_some(), "codec round trip lost the reply");
    }
    Ok((median(&enc), median(&dec), line.len()))
}

/// Run the serving workload (or the traced-run probe) against the
/// `dirqd` binary at `bin`, with scratch files under `tmp`. Span rows go
/// to `spans_csv` when given.
pub fn run(bin: &Path, tmp: &Path, seed: u64, shape: Shape, spans_csv: Option<&Path>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = serve(bin, tmp, seed, shape, spans_csv, &mut out) {
        out.check(false, || format!("dirqd_serve: {e}"));
    }
    out
}

fn serve(
    bin: &Path,
    tmp: &Path,
    seed: u64,
    shape: Shape,
    spans_csv: Option<&Path>,
    out: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let ckpt_dir = tmp.join("checkpoints");
    std::fs::create_dir_all(&ckpt_dir)?;
    let log = tmp.join("dirqd.log");
    let options = DeployOptions {
        checkpoint_every_epochs: Some(CHECKPOINT_EVERY),
        checkpoint_dir: Some(ckpt_dir.to_string_lossy().into_owned()),
        ..DeployOptions::default()
    };

    // Set-up: daemon start to deployment ready, several times.
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..shape.setups {
        let t = Instant::now();
        let d = Daemon::spawn(bin, &log)?;
        let mut c = d.connect()?;
        c.deploy(DEPLOYMENT, PRESET, &options)?;
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < shape.setups {
            let status = d.stop();
            out.check(status.is_some_and(|s| s.success()), || {
                format!("set-up daemon {i} did not shut down cleanly")
            });
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no set-up cycles")?;
    let pid = daemon.pid();
    let rss_before = proc_status_kib(Some(pid), "VmRSS").unwrap_or(f64::NAN);

    // The load: one submitter and one drainer thread, one connection each,
    // plus one keep-awake thread per CPU while queries are submitted.
    let t0 = Instant::now();
    let done = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicU64::new(0));
    let saturating = Arc::new(AtomicBool::new(false));
    let drain_thread = {
        let addr = daemon.addr.clone();
        let (done, accepted, saturating) =
            (Arc::clone(&done), Arc::clone(&accepted), Arc::clone(&saturating));
        thread::spawn(move || drainer(&addr, t0, &done, &accepted, &saturating))
    };
    let awake: Vec<_> = (0..thread::available_parallelism().map_or(1, |n| n.get()))
        .map(|_| {
            let stop = Arc::clone(&done);
            thread::spawn(move || keep_awake(&stop))
        })
        .collect();
    let submitted = submitter(&daemon.addr, seed, shape, t0, &accepted, &saturating, out);
    done.store(true, Ordering::SeqCst);
    for t in awake {
        t.join().map_err(|_| "keep-awake thread panicked")?;
    }
    let drained = drain_thread.join().map_err(|_| "drainer thread panicked")?;
    let (sent, (s0, s1)) = submitted?;
    if let Some(e) = &drained.error {
        return Err(e.clone().into());
    }
    let rss_after = proc_status_kib(Some(pid), "VmRSS").unwrap_or(f64::NAN);
    let peak_rss = peak_rss_mib(Some(pid));
    out.fail("aged_out", drained.aged_out);

    // Output checks: every accepted id drained exactly once, well formed.
    let mut seen: HashMap<u64, (usize, &Observed)> = HashMap::new();
    for o in &drained.observed {
        seen.entry(o.report.id).or_insert((0, o)).0 += 1;
    }
    let mut missing = 0u64;
    let mut latency_open = Vec::new(); // (due, ms)
    let mut spans = Vec::new();
    for s in &sent {
        match seen.get(&s.id) {
            None => missing += 1,
            Some(&(n, o)) => {
                let r = &o.report;
                out.check(n == 1, || format!("query {} drained {n} times", s.id));
                let well_formed = r.epoch == s.epoch
                    && r.answered_epoch > r.epoch
                    && r.epochs_to_answer == r.answered_epoch - r.epoch
                    && (0.0..=1.0).contains(&r.recall)
                    && r.sources_reached <= r.true_sources;
                out.check(well_formed, || format!("query {} has a malformed outcome {r:?}", s.id));
                if !s.saturation {
                    latency_open.push((s.due, (o.at - s.due) * 1e3));
                }
                spans.push((s, o.at, r.answered_epoch));
            }
        }
    }
    let sent_ids: std::collections::HashSet<u64> = sent.iter().map(|s| s.id).collect();
    out.check(seen.keys().all(|id| sent_ids.contains(id)), || {
        "drained an id that was never submitted".into()
    });
    out.check(missing <= drained.aged_out, || {
        format!("{} submitted ids never drained ({} aged out)", missing, drained.aged_out)
    });

    // Open loop: response-time quantiles per window of due times.
    let open_windows = windows(0.0, s0);
    let in_open = |(lo, hi): (f64, f64)| -> Vec<f64> {
        latency_open.iter().filter(|(due, _)| *due >= lo && *due < hi).map(|&(_, ms)| ms).collect()
    };
    let open_quantile = |q: f64| -> f64 {
        median(
            &open_windows
                .iter()
                .map(|&w| quantile(&in_open(w), q))
                .filter(|x| x.is_finite())
                .collect::<Vec<_>>(),
        )
    };
    let all_open: Vec<f64> = latency_open.iter().map(|&(_, ms)| ms).collect();

    // Saturation: completions and epochs per second per window, skipping
    // the first fifth of the phase while the open-loop backlog clears.
    let saturated = windows(s0 + (s1 - s0) * 0.2, s1);
    let epoch_rate = |(lo, hi): (f64, f64)| {
        let e: Vec<_> = drained.epochs.iter().filter(|(t, _)| *t >= lo && *t <= hi).collect();
        match (e.first(), e.last()) {
            (Some(a), Some(b)) if b.0 > a.0 && b.1 > a.1 => (b.1 - a.1) as f64 / (b.0 - a.0),
            _ => f64::NAN,
        }
    };
    let serve_qps = median(
        &saturated
            .iter()
            .map(|&(lo, hi)| {
                drained.observed.iter().filter(|o| o.at >= lo && o.at < hi).count() as f64
                    / (hi - lo)
            })
            .collect::<Vec<_>>(),
    );
    let saturated_eps = median(
        &saturated.iter().map(|&w| epoch_rate(w)).filter(|x| x.is_finite()).collect::<Vec<_>>(),
    );
    let open_eps = epoch_rate((0.0, s0));

    // After the load: explicit snapshot writes, checkpoint files, codec.
    let mut c = daemon.connect()?;
    let mut snapshot_ms = Vec::new();
    for i in 0..shape.snapshots {
        let path = tmp.join(format!("explicit-{i}.dirqsnap"));
        let t = Instant::now();
        c.snapshot(DEPLOYMENT, &path.to_string_lossy())?;
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let checkpoints = checkpoint_sizes(&ckpt_dir)?;
    out.check(!checkpoints.is_empty(), || "no auto-checkpoint was written".into());
    let (encode_us, decode_us, reply_bytes) = codec_cost(&mut c)?;
    drop(c);
    let status = daemon.stop();
    out.check(status.is_some_and(|s| s.success()), || "dirqd did not shut down cleanly".into());
    let log_text = std::fs::read_to_string(&log).unwrap_or_default();
    out.check(!log_text.contains("failed"), || "dirqd logged a failure (see dirqd.log)".into());

    let open: Vec<&Submitted> = sent.iter().filter(|s| !s.saturation).collect();
    let late: Vec<f64> = open.iter().map(|s| (s.start - s.due) * 1e3).collect();
    let submit_ms: Vec<f64> = open.iter().map(|s| (s.end - s.start) * 1e3).collect();
    let mut per_epoch: HashMap<u64, f64> = HashMap::new();
    for s in &sent {
        *per_epoch.entry(s.epoch).or_default() += 1.0;
    }
    let answer_epochs: Vec<f64> =
        drained.observed.iter().map(|o| o.report.epochs_to_answer as f64).collect();

    out.put("setup_s", median(&setup), "s");
    out.put("epochs_per_s", saturated_eps, "1/s");
    out.put("peak_rss_mib", peak_rss, "MiB");
    out.put("serve_qps", serve_qps, "1/s");
    out.put("serve_p50_ms", open_quantile(0.5), "ms");
    out.put("serve_p90_ms", open_quantile(0.9), "ms");
    out.put("dirqd.submit_ms", median(&submit_ms), "ms");
    out.put("dirqd.batch_size", mean(&per_epoch.values().copied().collect::<Vec<_>>()), "count");
    out.put("dirqd.wire_encode_us", encode_us, "us");
    out.put("dirqd.wire_decode_us", decode_us, "us");
    out.put("dirqd.drain_ms", median(&drained.rtt_ms), "ms");
    out.put("dirqd.drain_results_per_call", mean(&drained.per_call), "count");
    out.put("dirqd.answer_epochs", median(&answer_epochs), "epochs");
    out.put("dirqd.ms_per_epoch_loaded", 1e3 / open_eps, "ms");
    out.put("dirqd.checkpoint_ms", median(&snapshot_ms), "ms");
    out.put("dirqd.checkpoint_bytes", checkpoints.iter().copied().fold(0.0, f64::max), "bytes");
    // The daemon retains at most RESULTS_LOG_CAP results.
    let retained = drained.observed.len().clamp(1, dirqd::daemon::RESULTS_LOG_CAP);
    out.put("dirqd.rss_per_result_kib", (rss_after - rss_before) / retained as f64, "KiB");
    out.put("gen.late_max_ms", late.iter().copied().fold(f64::NAN, f64::max), "ms");
    out.put("gen.late_p99_ms", quantile(&late, 0.99), "ms");
    out.put("serve_p99_ms", quantile(&all_open, 0.99), "ms");
    out.note(format!(
        "preset={PRESET} engine_seed={} submitted={} drained={} open_rate={} drain_reply_bytes={reply_bytes}",
        preset_seed(PRESET),
        sent.len(),
        drained.observed.len(),
        shape.open_rate
    ));
    if let Some(path) = spans_csv {
        write_spans(path, &spans)?;
        out.note(format!("spans_csv={}", path.display()));
    }
    Ok(())
}

/// Split `[lo, hi)` into equal windows of about [`WINDOW_S`] (at least
/// one).
fn windows(lo: f64, hi: f64) -> Vec<(f64, f64)> {
    let n = ((hi - lo) / WINDOW_S).floor().max(1.0) as usize;
    let width = (hi - lo) / n as f64;
    (0..n).map(|i| (lo + width * i as f64, lo + width * (i + 1) as f64)).collect()
}

/// Sizes of the rotating auto-checkpoint images in `dir`.
fn checkpoint_sizes(dir: &Path) -> io::Result<Vec<f64>> {
    let mut sizes = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(DEPLOYMENT) && name.ends_with(".dirqsnap") {
            sizes.push(entry.metadata()?.len() as f64);
        }
    }
    Ok(sizes)
}

/// Per-query spans: due, submit start/end and drain observation (ms
/// since the load began), injection and answer epochs.
fn write_spans(path: &Path, spans: &[(&Submitted, f64, u64)]) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id,phase,due_ms,submit_ms,submitted_ms,observed_ms,epoch,answered_epoch")?;
    for (s, at, answered) in spans {
        let phase = if s.saturation { "saturation" } else { "open" };
        writeln!(
            f,
            "{},{phase},{:.4},{:.4},{:.4},{:.4},{},{answered}",
            s.id,
            s.due * 1e3,
            s.start * 1e3,
            s.end * 1e3,
            at * 1e3,
            s.epoch
        )?;
    }
    f.flush()
}

/// Scratch directory of one serving run.
pub fn scratch_dir(root: &Path, tag: &str) -> io::Result<PathBuf> {
    let dir = root.join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
