//! `serve-edits`: editing sessions against a `riot-serve serve` child
//! process started with only `--socket` and `--root`, so the server
//! runs at its defaults and its telemetry registry belongs to this run
//! alone.
//!
//! [`SESSIONS`] sessions, four times the two connections that carry
//! them, receive the "growing row of gates" traffic — `create nand2 Gk`
//! then `translate Gk …` — with about one request in ten a
//! `stats --session` read. Each session is a designer who waits for
//! every reply: the loop is closed, with one request in flight per
//! session, and a session's next request is due the moment the reply
//! to its previous one arrives. A run sends a fixed number of requests
//! (see [`SIZING_RATE`]). Every request is timed from the moment
//! it was due; a write counts only once its durable `ok` arrives;
//! `busy` counts as refused and is never retried. After the run, each
//! session's WAL is recovered in-process and must hold exactly the
//! acknowledged commands.
//!
//! The traced run replays the requests the timed server received, at
//! the offsets they were sent, in-process through serve's public
//! functions — `RequestRef::decode`, then `Editor::resume`,
//! `execute_line` and `suspend`, then `stage_journal` and
//! `flush_staged`, then `maybe_snapshot` or `snapshot_now` — timing
//! each call, and reads the timed server's counters over the
//! `telemetry` verb.

use crate::metrics::{mean, median, peak_rss_mb, percentile, Report, Rng};
use crate::Args;
use riot::core::{parse_command_line, Command, Editor};
use riot::serve::session::execute_line;
use riot::serve::{
    encode_frame, handshake_client_v2, scan_frame_ref, standard_library, Client, FrameScanRef,
    ProtoVersion, Reply, ReplyBody, Request, RequestBody, RequestBodyRef, RequestRef, ServeConfig,
    ServeFaults, SessionEntry, TelemetryFormat,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

/// Sessions, spread over [`CONNECTIONS`] connections.
const SESSIONS: usize = 8;
/// Connections, and load-generator threads: one each.
const CONNECTIONS: usize = 2;
/// Share of requests that are `stats --session` reads.
const READ_SHARE: f64 = 0.1;
/// Set-ups (server start, handshakes, session opens) per run;
/// `setup_s` is their median.
const SETUPS: usize = 21;
/// A run whose generator sent its 99th-percentile request later than
/// this after it was due fell behind: the server did not see the load
/// the run claims, and the run is invalid. Lateness below the limit
/// still counts, because every request is timed from its due time.
const GEN_LAG_LIMIT_US: f64 = 25_000.0;
/// A run's size: each session sends `--seconds` × `SIZING_RATE` /
/// [`SESSIONS`] requests. Fixing the work rather than the time keeps
/// the sessions' final size, and so the server's memory and snapshot
/// cost, the same whatever the server's speed; a faster server ends
/// the run sooner. On a 2-CPU host the server answers about this many
/// requests per second, so a run lasts about `--seconds`.
const SIZING_RATE: f64 = 5000.0;
/// If no reply arrives for this long, the requests in flight count as
/// unanswered and the run ends.
const NO_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What a request does.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Read,
}

/// One request sent.
struct Planned {
    /// Offset from the start of the load phase at which it was due.
    due: Duration,
    session: usize,
    kind: Kind,
    /// The command line (writes only).
    line: String,
}

fn session_name(s: usize) -> String {
    format!("s{s}")
}

/// One session's seeded request stream: the same seed gives the same
/// sequence, of which a run sends as much as its time allows.
struct Stream {
    rng: Rng,
    writes: usize,
}

impl Stream {
    fn new(seed: u64, session: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, 0x5E7E + session as u64),
            writes: 0,
        }
    }

    fn next(&mut self) -> (Kind, String) {
        if self.rng.unit() < READ_SHARE {
            return (Kind::Read, String::new());
        }
        let j = self.writes;
        self.writes += 1;
        let gate = j / 2;
        let line = if j.is_multiple_of(2) {
            format!("create nand2 G{gate}")
        } else {
            format!("translate G{gate} {} 0", 4000 * (gate + 1))
        };
        (Kind::Write, line)
    }
}

fn body(p: &Planned) -> RequestBody {
    let session = session_name(p.session);
    match p.kind {
        Kind::Write => RequestBody::Cmd {
            session,
            line: p.line.clone(),
        },
        Kind::Read => RequestBody::Stats {
            session: Some(session),
        },
    }
}

/// The server child process; killed and reaped if dropped while still
/// running.
struct Server {
    child: Child,
    socket: PathBuf,
    root: PathBuf,
}

impl Server {
    fn start(bin: &Path, dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let root = dir.join("wal");
        let log = std::fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let child = std::process::Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--root")
            .arg(&root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let server = Server {
            child,
            socket,
            root,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(&server.socket).is_err() {
            if Instant::now() > deadline {
                return Err("server socket never came up".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(server)
    }

    fn client(&self) -> Result<Client, String> {
        let c = Client::connect_unix(&self.socket).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("connect: {e}"))?;
        Ok(c)
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.client()?
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One load-generator connection: a raw socket speaking the wire
/// protocol, so one thread can keep several sessions' requests in
/// flight and collect their replies as they come.
struct Conn {
    stream: UnixStream,
    version: ProtoVersion,
    buf: Vec<u8>,
    next_id: u64,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let version = handshake_client_v2(&mut stream).map_err(|e| format!("handshake: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(5)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            version,
            buf: Vec::with_capacity(1 << 16),
            next_id: 1,
        })
    }

    fn send(&mut self, body: RequestBody) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = Request { id, body }.encode_versioned(self.version, None);
        self.stream
            .write_all(&encode_frame(&payload))
            .map_err(|e| format!("send: {e}"))?;
        Ok(id)
    }

    /// Reads what has arrived, waiting up to the read timeout for it,
    /// and returns every complete reply received so far.
    fn poll(&mut self) -> Result<Vec<Reply>, String> {
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
        let mut replies = Vec::new();
        let mut at = 0;
        loop {
            match scan_frame_ref(&self.buf[at..]) {
                FrameScanRef::Complete { payload, consumed } => {
                    replies.push(Reply::decode(payload).map_err(|e| format!("reply: {e}"))?);
                    at += consumed;
                }
                FrameScanRef::Incomplete => break,
                FrameScanRef::Corrupt(c) => return Err(format!("corrupt reply frame: {c:?}")),
            }
        }
        self.buf.drain(..at);
        Ok(replies)
    }

    /// Sends one request and waits for its reply.
    fn call(&mut self, body: RequestBody) -> Result<ReplyBody, String> {
        let id = self.send(body)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(r) = self.poll()?.into_iter().next() {
                if r.id != id {
                    return Err(format!("reply {} does not answer request {id}", r.id));
                }
                return Ok(r.body);
            }
        }
        Err("no reply".into())
    }
}

/// Starts a server and opens every session over the load connections.
fn setup(args: &Args, dir: &Path) -> Result<(Server, Vec<Conn>), String> {
    let server = Server::start(&args.serve_bin, dir)?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        conns.push(Conn::open(&server.socket)?);
    }
    for s in 0..SESSIONS {
        let reply = conns[s % CONNECTIONS].call(RequestBody::Open {
            session: session_name(s),
            cell: "TOP".into(),
        })?;
        if reply != ReplyBody::Ok("created".into()) {
            return Err(format!("open {}: {reply:?}", session_name(s)));
        }
    }
    Ok((server, conns))
}

/// Answers per second: the median over equal windows of about a
/// second each that together span the load phase. A stall of the host
/// lowers the windows it falls in, not the whole figure.
fn windowed_rate(answered_at: &[f64], span: Duration) -> f64 {
    let span = span.as_secs_f64();
    let windows = (span.floor() as usize).max(1);
    let width = span / windows as f64;
    let mut counts = vec![0.0; windows];
    for &t in answered_at {
        counts[((t / width) as usize).min(windows - 1)] += 1.0;
    }
    median(&mut counts) / width
}

/// What one connection observed.
#[derive(Default)]
struct Observed {
    /// Latency from due time to reply, µs, of acknowledged `create`
    /// writes.
    create_us: Vec<f64>,
    /// The same for `translate` writes.
    translate_us: Vec<f64>,
    /// The same for reads.
    read_us: Vec<f64>,
    /// How late each request was sent, µs.
    lag_us: Vec<f64>,
    /// Acknowledged write lines per session, in send order.
    acked: HashMap<usize, Vec<String>>,
    /// Every request sent, in send order.
    sent: Vec<Planned>,
    busy: u64,
    errors: u64,
    no_reply: u64,
    /// Offset from the start of the load phase of the last reply.
    last_reply: Duration,
    /// Offsets from the start of the load phase of the `ok` replies, s.
    answered_at: Vec<f64>,
}

/// Drives one connection's `sessions` from `start`: each session sends
/// its first request at `start` and each of its `per_session - 1`
/// later ones as soon as the reply to the previous one arrives.
fn drive(
    conn: &mut Conn,
    sessions: &[usize],
    seed: u64,
    start: Instant,
    per_session: usize,
) -> Result<Observed, String> {
    // Each session's stream and how many requests it has left to send.
    let mut streams: HashMap<usize, (Stream, usize)> = sessions
        .iter()
        .map(|&s| (s, (Stream::new(seed, s), per_session)))
        .collect();
    let mut obs = Observed::default();
    // Request id → (index into `obs.sent`, when it was due).
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut send = |conn: &mut Conn,
                    obs: &mut Observed,
                    in_flight: &mut HashMap<u64, (usize, Instant)>,
                    session: usize,
                    due: Instant|
     -> Result<(), String> {
        let (stream, left) = streams.get_mut(&session).expect("own session");
        if *left == 0 {
            return Ok(());
        }
        *left -= 1;
        let (kind, line) = stream.next();
        let p = Planned {
            due: due - start,
            session,
            kind,
            line,
        };
        let id = conn.send(body(&p))?;
        obs.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        in_flight.insert(id, (obs.sent.len(), due));
        obs.sent.push(p);
        Ok(())
    };
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    for &s in sessions {
        send(conn, &mut obs, &mut in_flight, s, start)?;
    }
    let mut progress = Instant::now();
    while !in_flight.is_empty() {
        if progress.elapsed() > NO_REPLY_TIMEOUT {
            obs.no_reply += in_flight.len() as u64;
            break;
        }
        for reply in conn.poll()? {
            let at = Instant::now();
            progress = at;
            let (i, due) = in_flight
                .remove(&reply.id)
                .ok_or_else(|| format!("reply {} answers nothing in flight", reply.id))?;
            let us = (at - due).as_secs_f64() * 1e6;
            obs.last_reply = obs.last_reply.max(at - start);
            let p = &obs.sent[i];
            let session = p.session;
            match (reply.body, p.kind) {
                (ReplyBody::Ok(_), Kind::Write) => {
                    let line = p.line.clone();
                    if line.starts_with("create") {
                        obs.create_us.push(us);
                    } else {
                        obs.translate_us.push(us);
                    }
                    obs.answered_at.push((at - start).as_secs_f64());
                    obs.acked.entry(session).or_default().push(line);
                }
                (ReplyBody::Ok(_), Kind::Read) => {
                    obs.read_us.push(us);
                    obs.answered_at.push((at - start).as_secs_f64());
                }
                (ReplyBody::Busy, _) => obs.busy += 1,
                (ReplyBody::Err(m), _) => {
                    obs.errors += 1;
                    eprintln!("{} `{}`: {m}", session_name(session), p.line);
                }
            }
            send(conn, &mut obs, &mut in_flight, session, at)?;
        }
    }
    Ok(obs)
}

/// Counters read from the server's telemetry registry.
struct Telemetry {
    fsyncs: u64,
    wal_bytes: u64,
    snapshots: u64,
    fsync_ns: Option<riot::trace::expose::HistogramSnapshot>,
}

fn telemetry(server: &Server) -> Result<Telemetry, String> {
    let text = server
        .client()?
        .telemetry(TelemetryFormat::Json)
        .map_err(|e| format!("telemetry: {e}"))?;
    let snap = riot::trace::Snapshot::parse(&text).map_err(|e| format!("telemetry: {e}"))?;
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    Ok(Telemetry {
        fsyncs: counter("serve.wal.fsyncs"),
        wal_bytes: counter("serve.wal.bytes"),
        snapshots: counter("serve.snapshot.written"),
        fsync_ns: snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.wal.fsync_ns")
            .map(|(_, h)| h.clone()),
    })
}

/// The median of a log-bucketed histogram, interpolated within its
/// bucket.
fn histogram_p50(h: &riot::trace::expose::HistogramSnapshot) -> f64 {
    let half = h.count as f64 / 2.0;
    let mut seen = 0.0;
    for &(lo, hi, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= half {
            return lo as f64 + (hi - lo) as f64 * ((half - seen) / n);
        }
        seen += n;
    }
    h.max as f64
}

/// Every session's WAL (and snapshot) recovers to exactly the
/// acknowledged writes.
fn check_wals(root: &Path, acked: &HashMap<usize, Vec<String>>) -> Result<(), String> {
    for s in 0..SESSIONS {
        let name = session_name(s);
        let (entry, _) = SessionEntry::recover(root, &name, standard_library())
            .map_err(|e| format!("recover {name}: {e}"))?;
        let cp = entry
            .cp
            .as_ref()
            .ok_or("recovered session is not suspended")?;
        let journal = cp.journal().commands();
        if journal.first() != Some(&Command::Edit { cell: "TOP".into() }) {
            return Err(format!(
                "{name}: recovered journal lacks its `edit TOP` head"
            ));
        }
        let want = acked.get(&s).map(Vec::as_slice).unwrap_or_default();
        if journal.len() - 1 != want.len() {
            return Err(format!(
                "{name}: recovered {} commands, {} were acknowledged",
                journal.len() - 1,
                want.len()
            ));
        }
        for (i, (got, line)) in journal[1..].iter().zip(want).enumerate() {
            let expect = parse_command_line(line, i).map_err(|e| e.to_string())?;
            if *got != expect {
                return Err(format!(
                    "{name}: record {i} is {got:?}, acknowledged `{line}`"
                ));
            }
        }
    }
    Ok(())
}

/// One load phase against a fresh server: set-ups, the closed loop, the
/// server's counters and peak memory, a clean shutdown and the WAL
/// check.
struct Timed {
    setup_s: Vec<f64>,
    obs: Observed,
    attempted: u64,
    before: Telemetry,
    after: Telemetry,
    peak_rss_mb: f64,
}

fn timed_run(args: &Args) -> Result<Timed, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = args.work_dir.join(format!("serve-{i}"));
        let t = Instant::now();
        let (server, conns) = setup(args, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, old_conns, old_dir)) = kept.replace((server, conns, dir)) {
            drop(old_conns);
            Server::shutdown(old)?;
            let _ = std::fs::remove_dir_all::<PathBuf>(old_dir);
        }
    }
    let (server, mut conns, dir) = kept.expect("at least one set-up");
    let before = telemetry(&server)?;

    // Session s was opened on connection s % CONNECTIONS.
    let shares: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| (c..SESSIONS).step_by(CONNECTIONS).collect())
        .collect();
    // Give both generator threads a moment to start before the first
    // requests are due.
    let start = Instant::now() + Duration::from_millis(20);
    let seed = args.seed;
    let per_session = (args.seconds * SIZING_RATE / SESSIONS as f64).ceil() as usize;
    let (first, rest) = conns.split_at_mut(1);
    let results: Vec<Result<Observed, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(&shares[1..])
            .map(|(c, share)| scope.spawn(move || drive(c, share, seed, start, per_session)))
            .collect();
        let mut out = vec![drive(&mut first[0], &shares[0], seed, start, per_session)];
        out.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("generator panicked".into()))
        }));
        out
    });
    drop(conns);
    let mut obs = Observed::default();
    for r in results {
        let o = r?;
        obs.create_us.extend(o.create_us);
        obs.translate_us.extend(o.translate_us);
        obs.read_us.extend(o.read_us);
        obs.lag_us.extend(o.lag_us);
        obs.acked.extend(o.acked);
        obs.busy += o.busy;
        obs.errors += o.errors;
        obs.no_reply += o.no_reply;
        obs.last_reply = obs.last_reply.max(o.last_reply);
        obs.answered_at.extend(o.answered_at);
        obs.sent.extend(o.sent);
    }
    obs.sent.sort_by_key(|p| p.due);
    let after = telemetry(&server)?;
    let peak_rss_mb = peak_rss_mb(&server.child.id().to_string())?;
    let root = server.root.clone();
    server.shutdown()?;
    check_wals(&root, &obs.acked)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Timed {
        setup_s,
        attempted: obs.sent.len() as u64,
        obs,
        before,
        after,
        peak_rss_mb,
    })
}

/// Per-request layer times of the in-process replay.
#[derive(Default)]
struct Replay {
    decode_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    flush_ns: f64,
    snapshot_ns: f64,
    /// Decode plus apply of each write, with and without the layer
    /// timers, for the tracing overhead.
    traced_op_ns: Vec<f64>,
    untraced_op_ns: Vec<f64>,
    snapshot_write_ms: Vec<f64>,
}

/// Stages and flushes every session with staged records, then cuts the
/// snapshots the server would cut; returns (flush ns, snapshot ns).
fn flush_all(
    entries: &mut [SessionEntry],
    dirty: &mut [bool],
    root: &Path,
    every: usize,
) -> Result<(f64, f64), String> {
    let faults = ServeFaults::none();
    let t = Instant::now();
    for (e, d) in entries.iter_mut().zip(dirty.iter()) {
        if *d {
            e.stage_journal();
            e.flush_staged().map_err(|err| format!("flush: {err}"))?;
        }
    }
    let flush = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for (e, d) in entries.iter_mut().zip(dirty.iter_mut()) {
        if std::mem::take(d) {
            e.maybe_snapshot(root, every, &faults);
        }
    }
    Ok((flush, t.elapsed().as_nanos() as f64))
}

/// Replays `plan`, in due order, in-process through serve's public
/// functions, with the group-commit window and snapshot interval of a
/// default server.
fn replay(args: &Args, plan: &[Planned]) -> Result<Replay, String> {
    let defaults = ServeConfig::new(".");
    let window = defaults.group_commit.unwrap_or(Duration::ZERO);
    let every = defaults.snapshot_every;
    let root = args.work_dir.join("replay");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let mut entries: Vec<SessionEntry> = (0..SESSIONS)
        .map(|s| SessionEntry::create(&root, &session_name(s), "TOP", standard_library()))
        .collect::<Result<_, _>>()?;
    let mut dirty = vec![false; SESSIONS];
    let mut out = Replay::default();
    let mut window_start = Duration::ZERO;
    for (i, p) in plan.iter().enumerate() {
        if p.due >= window_start + window {
            let (f, s) = flush_all(&mut entries, &mut dirty, &root, every)?;
            out.flush_ns += f;
            out.snapshot_ns += s;
            window_start = p.due;
        }
        let payload = Request {
            id: i as u64 + 1,
            body: body(p),
        }
        .encode();
        let traced = i % 2 == 0;
        let entry = &mut entries[p.session];
        let start = Instant::now();
        let req = RequestRef::decode(&payload).map_err(|e| format!("decode: {e}"))?;
        // The untraced requests take only the start and end stamps, so
        // that the traced-minus-untraced difference is the layer timer.
        let decoded = traced.then(Instant::now);
        match req.body {
            RequestBodyRef::Cmd { line, .. } => {
                let cp = entry.cp.take().ok_or("session is not suspended")?;
                let mut ed = Editor::resume(&mut entry.lib, cp).map_err(|e| e.to_string())?;
                execute_line(&mut ed, line).map_err(|e| format!("`{line}`: {e}"))?;
                entry.cp = Some(ed.suspend());
                dirty[p.session] = true;
            }
            RequestBodyRef::Stats { .. } => {
                // A read flushes the worker's staged records first.
                let t = Instant::now();
                let (f, s) = flush_all(&mut entries, &mut dirty, &root, every)?;
                out.flush_ns += f;
                out.snapshot_ns += s;
                let excluded = t.elapsed().as_nanos() as f64;
                let cp = entries[p.session]
                    .cp
                    .as_ref()
                    .ok_or("session is not suspended")?;
                std::hint::black_box(cp.stats());
                if let Some(decoded) = decoded {
                    out.decode_ns.push((decoded - start).as_nanos() as f64);
                    out.apply_ns
                        .push((Instant::now() - decoded).as_nanos() as f64 - excluded);
                }
                continue;
            }
            _ => return Err("unexpected request kind".into()),
        }
        let end = Instant::now();
        if let Some(decoded) = decoded {
            out.decode_ns.push((decoded - start).as_nanos() as f64);
            out.apply_ns.push((end - decoded).as_nanos() as f64);
            out.traced_op_ns.push((end - start).as_nanos() as f64);
        } else {
            out.untraced_op_ns.push((end - start).as_nanos() as f64);
        }
    }
    let (f, s) = flush_all(&mut entries, &mut dirty, &root, every)?;
    out.flush_ns += f;
    out.snapshot_ns += s;
    let faults = ServeFaults::none();
    for e in &mut entries {
        let t = Instant::now();
        if !e.snapshot_now(&root, &faults) {
            return Err(format!("{}: snapshot failed", e.name));
        }
        out.snapshot_write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(entries);
    let _ = std::fs::remove_dir_all(&root);
    Ok(out)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let t = timed_run(args)?;
    let obs = &t.obs;
    let mut lag = obs.lag_us.clone();
    let lag_p99 = percentile(&mut lag, 0.99);
    if lag_p99 > GEN_LAG_LIMIT_US {
        return Err(format!(
            "invalid run: the generator sent its p99 request {lag_p99:.0} us late"
        ));
    }
    let failed = obs.busy + obs.errors + obs.no_reply;
    let acked_writes = (obs.create_us.len() + obs.translate_us.len()) as f64;
    if obs.create_us.is_empty() || obs.translate_us.is_empty() || obs.read_us.is_empty() {
        return Err("the run is too short to time each kind of request".into());
    }
    let mut rep = Report::new(t.attempted, failed);
    if args.trace {
        let r = replay(args, &obs.sent)?;
        let requests = obs.sent.len() as f64;
        let decode = mean(&r.decode_ns) / 1e3;
        let apply = mean(&r.apply_ns) / 1e3;
        let flush = r.flush_ns / requests / 1e3;
        let snapshot = r.snapshot_ns / requests / 1e3;
        let total = mean(
            &obs.create_us
                .iter()
                .chain(&obs.translate_us)
                .chain(&obs.read_us)
                .copied()
                .collect::<Vec<_>>(),
        );
        let unattributed = total - (decode + apply + flush + snapshot);
        rep.set("serve.proto.decode_us", decode);
        rep.set("serve.session.apply_us", apply);
        rep.set("serve.session.flush_us", flush);
        rep.set("serve.snapshot.amortized_us", snapshot);
        rep.set("serve.snapshot.write_ms", mean(&r.snapshot_write_ms));
        rep.set("serve.op_total_us", total);
        rep.set("serve.unattributed_us", unattributed);
        rep.set("serve.unattributed_share", unattributed / total);
        let (mut traced, mut untraced) = (r.traced_op_ns, r.untraced_op_ns);
        rep.set(
            "serve.trace_overhead_us",
            (median(&mut traced) - median(&mut untraced)) / 1e3,
        );
        let (b, a) = (&t.before, &t.after);
        rep.set(
            "serve.wal.fsyncs_per_cmd",
            (a.fsyncs - b.fsyncs) as f64 / acked_writes,
        );
        rep.set(
            "serve.wal.bytes_per_cmd",
            (a.wal_bytes - b.wal_bytes) as f64 / acked_writes,
        );
        rep.set(
            "serve.snapshots_per_kcmd",
            (a.snapshots - b.snapshots) as f64 * 1e3 / acked_writes,
        );
        let fsync = a.fsync_ns.as_ref().ok_or("server recorded no fsync")?;
        rep.set("serve.fsync_p50_us", histogram_p50(fsync) / 1e3);
        rep.set("serve.busy_ratio", obs.busy as f64 / t.attempted as f64);
        rep.set("bench.gen_lag_p99_us", lag_p99);
        rep.set(
            "e2e.work_per_s",
            windowed_rate(&obs.answered_at, obs.last_reply),
        );
        let mut reads = obs.read_us.clone();
        rep.set("serve.read_p50_us", percentile(&mut reads, 0.50));
        rep.set("serve.read_p99_us", percentile(&mut reads, 0.99));
        let mut translates = obs.translate_us.clone();
        let mut creates = obs.create_us.clone();
        crate::metrics::set_tails(&mut rep, &mut translates, &mut creates);
    } else {
        let mut translates = obs.translate_us.clone();
        let mut creates = obs.create_us.clone();
        let mut setup = t.setup_s.clone();
        rep.set("setup_s", median(&mut setup));
        rep.set("op_p50_us", percentile(&mut translates, 0.50));
        rep.set("minor_p50_us", percentile(&mut creates, 0.50));
        rep.set(
            "ok_ratio",
            (t.attempted - failed) as f64 / t.attempted as f64,
        );
        rep.set("peak_rss_mb", t.peak_rss_mb);
    }
    Ok(rep)
}
