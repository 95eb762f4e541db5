//! `service_mix`: an in-process server with its WAL, driven open-loop on
//! a seeded schedule in two phases, `lo` (mostly empty queue) and `hi`
//! (near capacity, no growing backlog).
//!
//! Two connections, one client thread each. The submit connection
//! carries small-scale artifact jobs (most reuse a few `(job,
//! scale_seed)` keys and hit the warm memo, some use fresh seeds and run
//! cold) and resends of earlier idempotency keys (answered by dedup).
//! The read connection carries `status` and `metrics` reads. Every
//! request is timed from when it was due to be sent, so a stall in the
//! generator counts against the requests it delays.
//!
//! Set-up is CPU work (the offline texts and the prewarm), so each
//! repetition is scaled by the host-speed canary bursts that bracket it;
//! the latencies, set mostly by the scheduler's timer and the WAL, are
//! reported unscaled.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vsnoop::experiments::{clear_warm_pool, set_warm_reuse, RunScale};
use vsnoop::runner::json::Value;
use vsnoop::runner::{CancelToken, JobCtx};
use vsnoop::service::{serve, Response, Server, ServiceConfig, TenantQuota};
use vsnoop_bench::campaign::{campaign_jobs, CampaignOptions};
use vsnoop_bench::service_jobs::registry_factory;

use crate::canary::{self, Canary};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Submits answered within this limit count towards `hi` goodput.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Run length of every submitted artifact job (warm-up and measured
/// rounds).
const JOB_ROUNDS: u64 = 500;
/// Artifact jobs the mix submits: pinned-machine and content-sharing
/// cells, each a few tens of ms cold and well under a ms from the memo.
const JOBS: [&str; 2] = ["table4", "table5"];
/// Reused scale seeds per job (the warm keys).
const WARM_SEEDS: u64 = 3;
/// Set-ups timed per run; the last one's server is measured.
const SETUP_REPS: usize = 5;
const TENANTS: u64 = 4;

/// Offered load of the two phases, which share the time budget equally,
/// and the submit mix. The shares are assumptions, not measurements (the
/// repository records no production traffic); `perfbench/README.md`
/// gives the reason for each and how the headline figures move with
/// them.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub lo_rate: f64,
    pub hi_rate: f64,
    pub read_rate: f64,
    /// Percent of submits that use a fresh scale seed and run cold.
    pub fresh_pct: u32,
    /// Percent of submits that resend an earlier idempotency key.
    pub resend_pct: u32,
}

pub const FULL: Size = Size {
    lo_rate: 70.0,
    hi_rate: 120.0,
    read_rate: 60.0,
    fresh_pct: 5,
    resend_pct: 12,
};
pub const PROBE: Size = Size {
    lo_rate: 40.0,
    hi_rate: 80.0,
    read_rate: 40.0,
    ..FULL
};

/// What a scheduled request is.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// A first-time submit of `job` at `scale_seed`; `warm` marks the
    /// reused keys.
    Submit {
        job: &'static str,
        scale_seed: u64,
        warm: bool,
    },
    /// A resend of the submit with schedule index `of`.
    Resend {
        of: usize,
    },
    Status,
    Metrics,
}

/// One scheduled request: due `due` after the phase starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    pub due: Duration,
    pub kind: Kind,
}

/// Reused scale seeds of a workload seed.
fn warm_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

/// The seeded schedule of one phase: `n` arrivals placed uniformly over
/// `secs` (a Poisson process conditioned on its count) for each stream.
/// Returns `(submits, reads)`, each in due order. Submit kinds, in the
/// shares of `mix`: resends of a submit due at least one second earlier
/// (a warm submit stands in while none is old enough), fresh seeds, and
/// warm keys for the rest.
pub fn schedule(seed: u64, phase: u64, secs: f64, rate: f64, mix: Size) -> (Vec<Item>, Vec<Item>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let times = |n: usize, rng: &mut SmallRng| {
        let mut t: Vec<Duration> = (0..n)
            .map(|_| Duration::from_secs_f64(rng.gen_range(0.0..secs)))
            .collect();
        t.sort();
        t
    };
    let submit_times = times((rate * secs).round() as usize, &mut rng);
    let read_times = times((mix.read_rate * secs).round() as usize, &mut rng);
    let mut submits: Vec<Item> = Vec::with_capacity(submit_times.len());
    // Submits due at least a second before the current arrival, in due
    // order: the candidates for a resend.
    let (mut old, mut scanned) = (Vec::new(), 0usize);
    let mut fresh = 0u64;
    for due in submit_times {
        let roll = rng.gen_range(0..100u32);
        let job = JOBS[rng.gen_range(0..JOBS.len())];
        while scanned < submits.len() && submits[scanned].due + Duration::from_secs(1) <= due {
            if matches!(submits[scanned].kind, Kind::Submit { .. }) {
                old.push(scanned);
            }
            scanned += 1;
        }
        let kind = if roll < mix.resend_pct && !old.is_empty() {
            Kind::Resend {
                of: old[rng.gen_range(0..old.len())],
            }
        } else if (mix.resend_pct..mix.resend_pct + mix.fresh_pct).contains(&roll) {
            fresh += 1;
            Kind::Submit {
                job,
                scale_seed: seed
                    .wrapping_mul(1_000_000)
                    .wrapping_add(phase * 100_000 + 1000 + fresh),
                warm: false,
            }
        } else {
            Kind::Submit {
                job,
                scale_seed: warm_seed(seed, rng.gen_range(0..WARM_SEEDS)),
                warm: true,
            }
        };
        submits.push(Item { due, kind });
    }
    let reads = read_times
        .into_iter()
        .map(|due| Item {
            due,
            kind: if rng.gen_bool(0.5) {
                Kind::Status
            } else {
                Kind::Metrics
            },
        })
        .collect();
    (submits, reads)
}

/// Client-side timing of one request. Latency runs from when the
/// request was *due*, not from when the generator got round to sending
/// it, so generator lateness is charged to the request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub due: Option<Instant>,
    pub sent: Option<Instant>,
    pub acked: Option<Instant>,
    pub done: Option<Instant>,
}

impl Timing {
    /// Due-to-answer latency in ms (`None` while unanswered).
    pub fn latency_ms(&self) -> Option<f64> {
        Some(ms(self.done?.saturating_duration_since(self.due?)))
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> Option<f64> {
        Some(ms(self.sent?.saturating_duration_since(self.due?)))
    }

    /// Due-to-`accepted` latency in ms.
    pub fn ack_ms(&self) -> Option<f64> {
        Some(ms(self.acked?.saturating_duration_since(self.due?)))
    }

    /// `accepted`-to-`done` time in ms.
    pub fn done_after_ack_ms(&self) -> Option<f64> {
        Some(ms(self.done?.saturating_duration_since(self.acked?)))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What came back for one request.
#[derive(Clone, Debug, Default)]
struct Answer {
    timing: Timing,
    /// `Ok(output)` for a `done ok`, `Err(reason)` otherwise.
    result: Option<Result<String, String>>,
    job_id: Option<u64>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 1;

/// One connection driven open-loop: sends every item at its due time and
/// reads answers until each is settled or `give_up` passes. The socket
/// is nonblocking and waits use `ppoll(2)`, whose timeout is precise to
/// microseconds (a socket read timeout rounds up to the kernel tick and
/// would make the generator late by milliseconds).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Reads one complete line, waiting at most `wait`; `Ok(None)` on
    /// timeout (a partial line stays buffered for the next call).
    fn read_line(&mut self, wait: Duration) -> std::io::Result<Option<String>> {
        if self.reader.buffer().is_empty() {
            let mut fd = PollFd {
                fd: self.reader.get_ref().as_raw_fd(),
                events: POLLIN,
                revents: 0,
            };
            let timeout = Timespec {
                tv_sec: wait.as_secs() as i64,
                tv_nsec: i64::from(wait.subsec_nanos()),
            };
            // SAFETY: one valid pollfd for an open socket, a valid
            // timespec, and no signal mask. An interrupted or timed-out
            // wait simply falls through to a nonblocking read.
            unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        }
        match self.reader.read_until(b'\n', &mut self.buf) {
            Ok(0) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) if self.buf.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(&self.buf).trim().to_string();
                self.buf.clear();
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut off = 0;
        while off < bytes.len() {
            match self.writer.write(&bytes[off..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One synchronous request (used for pings and metric scrapes
    /// outside the measured schedule).
    fn call(&mut self, line: &str) -> Option<Value> {
        self.send(line).ok()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(l) = self.read_line(Duration::from_millis(100)).ok()? {
                return Value::parse(&l).ok();
            }
        }
        None
    }
}

fn submit_line(id: usize, tenant: u64, job: &str, scale_seed: u64, idem: &str) -> String {
    Value::obj([
        ("op", Value::Str("submit".into())),
        ("tenant", Value::Str(format!("t{tenant}"))),
        ("job", Value::Str(job.into())),
        (
            "params",
            Value::obj([
                ("warmup", Value::UInt(JOB_ROUNDS)),
                ("measure", Value::UInt(JOB_ROUNDS)),
                ("scale_seed", Value::UInt(scale_seed)),
            ]),
        ),
        ("deadline_ms", Value::UInt(60_000)),
        ("tag", Value::Str(id.to_string())),
        ("idem_key", Value::Str(idem.into())),
    ])
    .to_json()
}

/// Drives the submit stream of one phase. `idem_prefix` scopes the
/// idempotency keys to the phase.
fn drive_submits(
    d: &mut Conn,
    items: &[Item],
    start: Instant,
    idem_prefix: &str,
    give_up: Duration,
) -> Vec<Answer> {
    let mut answers = vec![Answer::default(); items.len()];
    let mut next = 0;
    let mut open = 0usize;
    let mut broken = false;
    loop {
        let now = Instant::now();
        while !broken && next < items.len() && start + items[next].due <= now {
            let it = &items[next];
            let (job, scale_seed, key) = match it.kind {
                Kind::Submit {
                    job, scale_seed, ..
                } => (job, scale_seed, next),
                Kind::Resend { of } => match items[of].kind {
                    Kind::Submit {
                        job, scale_seed, ..
                    } => (job, scale_seed, of),
                    _ => unreachable!("resends point at submits"),
                },
                _ => unreachable!("reads travel on the read connection"),
            };
            let line = submit_line(
                next,
                key as u64 % TENANTS,
                job,
                scale_seed,
                &format!("{idem_prefix}-{key}"),
            );
            answers[next].timing.due = Some(start + it.due);
            answers[next].timing.sent = Some(Instant::now());
            if d.send(&line).is_err() {
                broken = true;
            } else {
                open += 1;
            }
            next += 1;
        }
        if broken || (next == items.len() && open == 0) {
            break;
        }
        if start.elapsed() > give_up {
            break;
        }
        let wait = if next < items.len() {
            (start + items[next].due).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        let line = match d.read_line(wait) {
            Ok(Some(l)) => l,
            Ok(None) => continue,
            Err(_) => break,
        };
        let at = Instant::now();
        let Ok(resp) = Response::parse(&line) else {
            continue;
        };
        let (tag, terminal): (Option<String>, Option<Result<String, String>>) = match resp {
            Response::Accepted { tag, job_id } => {
                if let Some(a) = tag.as_deref().and_then(|t| t.parse::<usize>().ok()) {
                    if let Some(ans) = answers.get_mut(a) {
                        ans.timing.acked.get_or_insert(at);
                        ans.job_id = Some(job_id);
                    }
                }
                (None, None)
            }
            Response::Done {
                tag,
                outcome,
                job_id,
                ..
            } => {
                if let Some(a) = tag.as_deref().and_then(|t| t.parse::<usize>().ok()) {
                    if let Some(ans) = answers.get_mut(a) {
                        ans.job_id.get_or_insert(job_id);
                    }
                }
                (tag, Some(outcome.map_err(|(k, e)| format!("{k}: {e}"))))
            }
            Response::Shed { tag, reason, .. } => (tag, Some(Err(format!("shed: {reason}")))),
            Response::Error { tag, message, .. } => (tag, Some(Err(format!("error: {message}")))),
            _ => (None, None),
        };
        let (Some(tag), Some(result)) = (tag, terminal) else {
            continue;
        };
        if let Some(ans) = tag.parse::<usize>().ok().and_then(|i| answers.get_mut(i)) {
            if ans.result.is_none() {
                ans.timing.done = Some(at);
                ans.result = Some(result);
                open -= 1;
            }
        }
    }
    answers
}

/// Drives the read stream of one phase. Reads carry no tag, and one
/// connection answers them in order.
fn drive_reads(d: &mut Conn, items: &[Item], start: Instant, give_up: Duration) -> Vec<Answer> {
    let mut answers = vec![Answer::default(); items.len()];
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < items.len() && start + items[next].due <= now {
            let op = if items[next].kind == Kind::Status {
                "{\"op\":\"status\"}"
            } else {
                "{\"op\":\"metrics\"}"
            };
            answers[next].timing.due = Some(start + items[next].due);
            answers[next].timing.sent = Some(Instant::now());
            if d.send(op).is_err() {
                return answers;
            }
            waiting.push_back(next);
            next += 1;
        }
        if (next == items.len() && waiting.is_empty()) || start.elapsed() > give_up {
            return answers;
        }
        let wait = if next < items.len() {
            (start + items[next].due).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        let line = match d.read_line(wait) {
            Ok(Some(l)) => l,
            Ok(None) => continue,
            Err(_) => return answers,
        };
        let at = Instant::now();
        let Some(i) = waiting.pop_front() else {
            continue;
        };
        let want = if items[i].kind == Kind::Status {
            "status"
        } else {
            "metrics"
        };
        let ok = Value::parse(&line)
            .ok()
            .and_then(|v| v.get("type").and_then(Value::as_str).map(|t| t == want))
            .unwrap_or(false);
        answers[i].timing.done = Some(at);
        answers[i].result = Some(if ok {
            Ok(String::new())
        } else {
            Err(format!("expected a {want} answer, got {line}"))
        });
    }
}

/// The server's cumulative counters and histogram sums at one instant.
#[derive(Clone, Debug, Default)]
struct Scrape {
    /// histogram name -> (count, sum in ms)
    hist: HashMap<String, (f64, f64)>,
    events_per_wake_p50: f64,
    shed: f64,
    warm_hits: f64,
    warm_misses: f64,
}

fn scrape(d: &mut Conn) -> Option<Scrape> {
    let v = d.call("{\"op\":\"metrics\"}")?;
    let m = v.get("metrics")?;
    let hists = m.get("histograms")?;
    let mut s = Scrape::default();
    if let Value::Obj(pairs) = hists {
        for (name, h) in pairs {
            let count = h.get("count").and_then(Value::as_f64).unwrap_or(0.0);
            let mean = h.get("mean_ms").and_then(Value::as_f64).unwrap_or(0.0);
            s.hist.insert(name.clone(), (count, count * mean));
        }
    }
    s.events_per_wake_p50 = hists
        .get("reactor_events_per_wake")
        .and_then(|h| h.get("p50"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let c = m.get("counters")?;
    let get = |k: &str| c.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    s.shed = get("shed");
    s.warm_hits = get("warm_hits");
    s.warm_misses = get("warm_misses");
    Some(s)
}

/// Mean of histogram `name` over the interval between two scrapes, ms.
fn delta_mean(a: &Scrape, b: &Scrape, name: &str) -> f64 {
    let (c0, s0) = a.hist.get(name).copied().unwrap_or_default();
    let (c1, s1) = b.hist.get(name).copied().unwrap_or_default();
    if c1 > c0 {
        (s1 - s0) / (c1 - c0)
    } else {
        0.0
    }
}

/// Offline reference texts of the warm keys, by `(job, scale_seed)`.
type Offline = HashMap<(&'static str, u64), String>;

/// The server's per-request stage histograms, in request order.
const STAGES: [&str; 4] = [
    "service_admission_wait_us",
    "service_wal_fsync_us",
    "service_queue_wait_us",
    "service_run_us",
];

struct Running {
    server: Server,
    addr: SocketAddr,
    dir: PathBuf,
}

/// Starts a server with a fresh WAL under `dir` and waits for its first
/// `pong`.
fn start_server(dir: &Path) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = ServiceConfig {
        workers: nproc,
        queue_cap: 4096,
        quota: TenantQuota {
            max_inflight: nproc,
            max_queued: 4096,
            max_queued_bytes: 64 << 20,
        },
        wal_path: Some(dir.join("wal.jsonl")),
        pipeline_limit: 1 << 16,
        idem_cap: 1 << 16,
        progress_interval: Duration::ZERO,
        ..ServiceConfig::default()
    };
    let server = serve(listener, registry_factory(), cfg).map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr();
    let mut d = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let pong = d.call("{\"op\":\"ping\"}");
    if pong.and_then(|v| v.get("type").and_then(Value::as_str).map(|t| t == "pong")) != Some(true) {
        return Err("server did not answer ping".into());
    }
    Ok(Running {
        server,
        addr,
        dir: dir.to_path_buf(),
    })
}

fn stop_server(r: Running) {
    r.server.shutdown();
    let _ = r.server.wait();
    let _ = std::fs::remove_dir_all(&r.dir);
}

/// The offline report text of `job` at `scale_seed`, computed directly
/// (not through the service) with warm reuse off.
fn offline_text(job: &str, scale_seed: u64) -> Result<String, String> {
    let scale = RunScale {
        warmup_rounds: JOB_ROUNDS,
        measure_rounds: JOB_ROUNDS,
        seed: scale_seed,
    };
    let jobs = campaign_jobs(
        scale,
        &CampaignOptions {
            only: vec![job.to_string()],
            ..Default::default()
        },
    )?;
    let ctx = JobCtx {
        token: CancelToken::new(),
        attempt: 1,
    };
    (jobs[0].run)(&ctx)
}

/// Per-phase summary and checks.
struct PhaseResult {
    latencies: Vec<f64>,
    ack: Vec<f64>,
    after_ack: Vec<f64>,
    late: Vec<f64>,
    reads: Vec<f64>,
    wall_s: f64,
    within_limit: usize,
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &str,
    seed: u64,
    phase: u64,
    secs: f64,
    rate: f64,
    size: Size,
    addr: SocketAddr,
    reader: &mut Conn,
    offline: &Offline,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<PhaseResult> {
    let (submits, reads) = schedule(seed, phase, secs, rate, size);
    let give_up = Duration::from_secs_f64(secs + 20.0);
    let mut writer = match Conn::connect(addr) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("service_mix {name}: connect: {e}"));
            return None;
        }
    };
    let before = scrape(reader);
    let start = Instant::now();
    let idem_prefix = format!("s{seed}-{name}");
    let (sub_answers, read_answers) = std::thread::scope(|s| {
        let h = s.spawn(|| drive_submits(&mut writer, &submits, start, &idem_prefix, give_up));
        let r = drive_reads(reader, &reads, start, give_up);
        (h.join().unwrap_or_default(), r)
    });
    let end = Instant::now();
    let after = scrape(reader);

    // Output checks: every request answered; warm keys equal the offline
    // text; resends equal their original's answer; cold runs succeed.
    let mut res = PhaseResult {
        latencies: Vec::new(),
        ack: Vec::new(),
        after_ack: Vec::new(),
        late: Vec::new(),
        reads: Vec::new(),
        wall_s: (end - start).as_secs_f64(),
        within_limit: 0,
    };
    let phase_span = tracer.record("service_mix.phase", start, end, None, None);
    for (i, (it, a)) in submits.iter().zip(&sub_answers).enumerate() {
        let ok = match (&it.kind, &a.result) {
            (_, None) => false,
            (_, Some(Err(_))) => false,
            (
                Kind::Submit {
                    job,
                    scale_seed,
                    warm: true,
                },
                Some(Ok(text)),
            ) => offline.get(&(*job, *scale_seed)) == Some(text),
            (Kind::Submit { .. }, Some(Ok(text))) => text.contains("\n=== "),
            (Kind::Resend { of }, Some(Ok(text))) => {
                matches!(&sub_answers[*of].result, Some(Ok(orig)) if orig == text)
                    && sub_answers[*of].job_id == a.job_id
            }
            _ => false,
        };
        out.check(ok, || {
            format!(
                "service_mix {name} submit {i} ({:?}): answer {:?}",
                it.kind,
                a.result.as_ref().map(|r| r.as_ref().map(String::len))
            )
        });
        let t = &a.timing;
        if let Some(l) = t.latency_ms() {
            if ok && l <= LATENCY_LIMIT_MS {
                res.within_limit += 1;
            }
            if matches!(it.kind, Kind::Submit { .. }) {
                res.latencies.push(l);
            }
        }
        res.ack.extend(t.ack_ms());
        res.after_ack.extend(t.done_after_ack_ms());
        res.late.extend(t.late_ms());
        if let (Some(due), Some(done)) = (t.due, t.done) {
            let req = Some(phase * 1_000_000 + i as u64);
            let root = tracer.record("client.request", due, done, phase_span, req);
            if let Some(acked) = t.acked {
                tracer.record("client.ack", due, acked, root, req);
                tracer.record("client.done_after_ack", acked, done, root, req);
            }
        }
    }
    for (i, a) in read_answers.iter().enumerate() {
        out.check(matches!(a.result, Some(Ok(_))), || {
            format!("service_mix {name} read {i}: {:?}", a.result)
        });
        res.reads.extend(a.timing.latency_ms());
        res.late.extend(a.timing.late_ms());
    }

    if tracer.on() {
        let p = format!("svc_{name}");
        if let (Some(b), Some(e)) = (&before, &after) {
            let stage = |h: &str| delta_mean(b, e, h);
            let request = stage("service_request_us");
            let [adm, wal, queue, run] = STAGES.map(stage);
            out.layer(&format!("{p}.service.admission_wait_ms"), adm, "ms");
            out.layer(&format!("{p}.service.wal_fsync_ms"), wal, "ms");
            out.layer(&format!("{p}.service.queue_wait_ms"), queue, "ms");
            out.layer(&format!("{p}.service.run_ms"), run, "ms");
            out.layer(&format!("{p}.service.request_ms"), request, "ms");
            // Request time no stage accounts for.
            out.layer(
                &format!("{p}.service.unattributed_ms"),
                request - (adm + wal + queue + run),
                "ms",
            );
            out.layer(
                &format!("{p}.reactor.poll_wait_ms"),
                stage("reactor_poll_wait_us"),
                "ms",
            );
            out.layer(
                &format!("{p}.reactor.dispatch_ms"),
                stage("reactor_dispatch_us"),
                "ms",
            );
            out.layer(
                &format!("{p}.reactor.flush_ms"),
                stage("reactor_flush_us"),
                "ms",
            );
            out.layer(
                &format!("{p}.reactor.events_per_wake"),
                e.events_per_wake_p50,
                "count",
            );
            out.layer(&format!("{p}.service.shed"), e.shed - b.shed, "count");
            let lookups = (e.warm_hits - b.warm_hits) + (e.warm_misses - b.warm_misses);
            out.layer(
                &format!("{p}.warm.hit_ratio"),
                if lookups > 0.0 {
                    (e.warm_hits - b.warm_hits) / lookups
                } else {
                    0.0
                },
                "ratio",
            );
        } else {
            out.check(false, || {
                format!("service_mix {name}: metrics scrape failed")
            });
        }
        out.layer(&format!("{p}.client.ack_ms"), mean(&res.ack), "ms");
        out.layer(
            &format!("{p}.client.done_after_ack_ms"),
            mean(&res.after_ack),
            "ms",
        );
        out.layer(&format!("{p}.loadgen.late_ms"), mean(&res.late), "ms");
    }
    Some(res)
}

/// Submits each warm key once through the service (not measured), so
/// `lo` starts with the memo filled, and checks the answers.
fn prewarm(addr: SocketAddr, seed: u64, offline: &Offline, out: &mut Outcome) {
    let warm: Vec<Item> = JOBS
        .iter()
        .flat_map(|&job| {
            (0..WARM_SEEDS).map(move |k| Item {
                due: Duration::ZERO,
                kind: Kind::Submit {
                    job,
                    scale_seed: warm_seed(seed, k),
                    warm: true,
                },
            })
        })
        .collect();
    let mut d = match Conn::connect(addr) {
        Ok(d) => d,
        Err(e) => return out.check(false, || format!("service_mix: connect: {e}")),
    };
    let prefix = format!("s{seed}-warm");
    let answers = drive_submits(
        &mut d,
        &warm,
        Instant::now(),
        &prefix,
        Duration::from_secs(60),
    );
    for (it, a) in warm.iter().zip(&answers) {
        if let Kind::Submit {
            job, scale_seed, ..
        } = it.kind
        {
            let ok = matches!(&a.result, Some(Ok(t)) if offline.get(&(job, scale_seed)) == Some(t));
            out.check(ok, || {
                format!("service_mix warm {job}/{scale_seed}: {:?}", a.result)
            });
        }
    }
}

/// Set-up, timed: an empty warm pool, a server with a fresh WAL up to
/// its first answered ping, the offline reference texts of the warm keys
/// (with warm reuse off, so they come from a path independent of the
/// memo the service serves), and the memo warmed through the service.
fn set_up(dir: &Path, seed: u64, out: &mut Outcome) -> Option<(f64, Running, Offline)> {
    clear_warm_pool();
    let t = Instant::now();
    let running = match start_server(dir) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("service_mix set-up: {e}"));
            return None;
        }
    };
    set_warm_reuse(false);
    let mut offline = HashMap::new();
    for job in JOBS {
        for k in 0..WARM_SEEDS {
            let s = warm_seed(seed, k);
            match offline_text(job, s) {
                Ok(text) => {
                    offline.insert((job, s), text);
                }
                Err(e) => out.check(false, || format!("service_mix offline {job}/{s}: {e}")),
            }
        }
    }
    set_warm_reuse(true);
    prewarm(running.addr, seed, &offline, out);
    Some((t.elapsed().as_secs_f64(), running, offline))
}

/// Runs the two phases inside a `seconds` budget.
pub fn run(
    seed: u64,
    seconds: f64,
    size: Size,
    work_dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut setups = Vec::new();
    let mut last = None;
    let mut canary = Canary::new();
    for i in 0..SETUP_REPS {
        if let Some((_, r, _)) = last.take() {
            stop_server(r);
        }
        let before = canary.burst();
        last = set_up(&work_dir.join(format!("serve-{i}")), seed, out);
        let after = canary.burst();
        if let Some((t, ..)) = &last {
            setups.push(t / canary::slowdown((before + after, 2)));
        }
    }
    out.e2e("setup_s", median(&setups), "s");
    let Some((_, running, offline)) = last else {
        return;
    };
    let mut reader = match Conn::connect(running.addr) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("service_mix: connect: {e}"));
            stop_server(running);
            return;
        }
    };

    let (lo_secs, hi_secs) = (seconds / 2.0, seconds / 2.0);
    let lo = run_phase(
        "lo",
        seed,
        1,
        lo_secs,
        size.lo_rate,
        size,
        running.addr,
        &mut reader,
        &offline,
        tracer,
        out,
    );
    let hi = run_phase(
        "hi",
        seed,
        2,
        hi_secs,
        size.hi_rate,
        size,
        running.addr,
        &mut reader,
        &offline,
        tracer,
        out,
    );
    drop(reader);
    stop_server(running);
    let _ = std::fs::remove_dir_all(work_dir);

    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return;
    };
    let goodput = hi.within_limit as f64 / hi.wall_s;
    out.e2e("throughput_per_s", goodput, "1/s");
    let lo_p50 = percentile(&lo.latencies, 50.0);
    out.check(lo_p50.is_some(), || {
        format!(
            "service_mix: {} lo submits are too few for a p50",
            lo.latencies.len()
        )
    });
    out.e2e(
        "latency_ms",
        lo_p50.unwrap_or_else(|| median(&lo.latencies)),
        "ms",
    );
    out.detail("svc_hi.goodput_per_s", goodput, "1/s");
    out.detail("latency_limit_ms", LATENCY_LIMIT_MS, "ms");
    out.detail("mix.fresh_pct", f64::from(size.fresh_pct), "%");
    out.detail("mix.resend_pct", f64::from(size.resend_pct), "%");
    for (p, r) in [("svc_lo", &lo), ("svc_hi", &hi)] {
        for q in [50.0, 99.0] {
            if let Some(v) = percentile(&r.latencies, q) {
                out.detail(&format!("{p}.p{q}_ms"), v, "ms");
            }
        }
        out.detail(&format!("{p}.submits"), r.latencies.len() as f64, "count");
    }
    let reads: Vec<f64> = lo.reads.iter().chain(&hi.reads).copied().collect();
    if let Some(v) = percentile(&reads, 99.0) {
        out.detail("svc_read.p99_ms", v, "ms");
    }
    out.detail("svc_read.reads", reads.len() as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Size = Size {
        read_rate: 50.0,
        ..FULL
    };

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(7, 1, 2.0, 100.0, MIX);
        let b = schedule(7, 1, 2.0, 100.0, MIX);
        assert_eq!(a, b);
        let c = schedule(8, 1, 2.0, 100.0, MIX);
        assert_ne!(a, c, "another seed gives another schedule");
        assert_eq!(a.0.len(), 200);
        assert_eq!(a.1.len(), 100);
        assert!(a.0.windows(2).all(|w| w[0].due <= w[1].due), "due order");
    }

    #[test]
    fn schedule_mixes_every_kind() {
        let (submits, reads) = schedule(3, 2, 10.0, 200.0, MIX);
        let count = |f: &dyn Fn(&Kind) -> bool| submits.iter().filter(|i| f(&i.kind)).count();
        let warm = count(&|k| matches!(k, Kind::Submit { warm: true, .. }));
        let cold = count(&|k| matches!(k, Kind::Submit { warm: false, .. }));
        let resend = count(&|k| matches!(k, Kind::Resend { .. }));
        assert!(
            warm > cold && cold > 0 && resend > 0,
            "{warm} {cold} {resend}"
        );
        // Every resend points at an earlier submit due at least 1 s before.
        for it in &submits {
            if let Kind::Resend { of } = it.kind {
                assert!(matches!(submits[of].kind, Kind::Submit { .. }));
                assert!(submits[of].due + Duration::from_secs(1) <= it.due);
            }
        }
        assert!(reads.iter().any(|r| r.kind == Kind::Status));
        assert!(reads.iter().any(|r| r.kind == Kind::Metrics));
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        let due = Instant::now();
        // The generator stalled 50 ms before sending; the server answered
        // 10 ms after the send.
        let t = Timing {
            due: Some(due),
            sent: Some(due + Duration::from_millis(50)),
            acked: Some(due + Duration::from_millis(55)),
            done: Some(due + Duration::from_millis(60)),
        };
        assert!((t.latency_ms().unwrap() - 60.0).abs() < 1e-9);
        assert!((t.late_ms().unwrap() - 50.0).abs() < 1e-9);
        assert!((t.ack_ms().unwrap() - 55.0).abs() < 1e-9);
        assert!((t.done_after_ack_ms().unwrap() - 5.0).abs() < 1e-9);
        let unanswered = Timing { done: None, ..t };
        assert_eq!(unanswered.latency_ms(), None);
    }
}
