//! End-to-end tests of the `xp serve` daemon: the server is bound on an
//! ephemeral port and driven over real TCP with the repo's own
//! `dcn_serve::client` helper — submit, poll, stream events, download
//! reports, and drain a graceful shutdown.
//!
//! The load-bearing assertion is the reports-never-differ invariant: a
//! `report.json` fetched from the daemon is **byte-identical** to the
//! committed `fig6-small` baseline (the same bytes `xp run --json`
//! writes), cold cache and warm.

use dcn_scenarios::json::{parse_json, Json};
use dcn_scenarios::{
    builtin, diff_reports, run_scenario_observed, work_items, Compute, Outcome, PointObs,
    PointSource, ScenarioSpec, WorkItem,
};
use dcn_serve::client;
use dcn_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

/// The committed cross-PR baseline: exactly `xp run fig6-small --json`.
const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../scenarios/tests/fig6_small_baseline.json"
);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

type Daemon = (
    String,
    dcn_serve::server::ShutdownHandle,
    std::thread::JoinHandle<Result<(), String>>,
);

/// Bind a daemon on an ephemeral port with the production runner glue;
/// returns its address, a shutdown handle, and the serve-loop thread.
fn start_daemon(cache_dir: Option<PathBuf>, workers: usize) -> Daemon {
    start_daemon_with(
        dcn_runner::serve_run_fn(cache_dir.clone(), 2),
        cache_dir,
        workers,
    )
}

/// [`start_daemon`] around any run function.
fn start_daemon_with(run: dcn_serve::RunFn, cache_dir: Option<PathBuf>, workers: usize) -> Daemon {
    let cfg = ServeConfig {
        workers,
        queue_cap: 16,
        run,
        cache_stat: cache_dir.map(dcn_runner::serve_stat_fn),
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// Poll `GET /jobs/<id>` until the job is terminal. The ~2-minute
/// budget is counted in poll attempts, not wall clock (no clock reads —
/// rule R2 in `clippy.toml` applies to tests too).
fn wait_done(addr: &str, id: u64) -> String {
    let mut last = String::new();
    for _ in 0..2400 {
        let status = client::get(addr, &format!("/jobs/{id}")).expect("poll status");
        assert_eq!(status.status, 200);
        last = status.text();
        if last.contains("\"state\":\"done\"") || last.contains("\"state\":\"failed\"") {
            return last;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {id} never finished: {last}");
}

#[test]
fn served_reports_match_committed_baseline_cold_and_warm() {
    let cache = scratch("bytes");
    let (addr, shutdown, join) = start_daemon(Some(cache.clone()), 1);
    let spec_toml = builtin("fig6-small").unwrap().to_toml();
    let baseline = std::fs::read_to_string(BASELINE).expect("committed fig6-small baseline");

    // Two identical submissions through one worker: the first computes
    // cold, the second must be served entirely from the shared cache.
    let first = client::post(&addr, "/jobs", spec_toml.as_bytes()).expect("submit cold");
    assert_eq!(first.status, 201, "{}", first.text());
    assert!(
        first.text().contains("\"record\":\"job\""),
        "{}",
        first.text()
    );
    let second = client::post(&addr, "/jobs", spec_toml.as_bytes()).expect("submit warm");
    assert_eq!(second.status, 201, "{}", second.text());

    for id in [1u64, 2] {
        let status = wait_done(&addr, id);
        assert!(status.contains("\"state\":\"done\""), "job {id}: {status}");

        // The invariant: served bytes == committed baseline, exactly.
        let report = client::get(&addr, &format!("/jobs/{id}/report.json")).unwrap();
        assert_eq!(report.status, 200);
        assert_eq!(
            report.text(),
            baseline,
            "job {id} report.json must be byte-identical to the committed baseline"
        );
        // Belt and braces: the repo's own differ at zero tolerance.
        let d = diff_reports(&report.text(), &baseline, 0.0).expect("diffable");
        assert!(d.is_match(), "{:?}", d.differences);

        let csv = client::get(&addr, &format!("/jobs/{id}/report.csv")).unwrap();
        assert_eq!(csv.status, 200);
        assert!(csv.text().lines().count() > 1, "CSV has header + rows");
    }

    // Event streams: well-formed NDJSON, spans then exactly one summary;
    // job 1 all misses (cold), job 2 all hits (concurrent-submission
    // dedup through the shared cache).
    for (id, disposition) in [(1u64, "miss"), (2, "hit")] {
        let events = client::get(&addr, &format!("/jobs/{id}/events")).unwrap();
        assert_eq!(events.status, 200);
        let text = events.text();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let points = builtin("fig6-small").unwrap().num_points();
        assert_eq!(lines.len(), points + 1, "spans + summary: {lines:#?}");
        for span_line in &lines[..points] {
            let span = parse_json(span_line).expect("span parses");
            assert_eq!(span.field("record", Json::as_str), Ok("span"));
            assert_eq!(
                span.field("cache", Json::as_str),
                Ok(disposition),
                "job {id}: {span_line}"
            );
        }
        let sum = parse_json(lines[points]).expect("summary parses");
        assert_eq!(sum.field("record", Json::as_str), Ok("summary"));
        assert_eq!(sum.field("points", Json::as_usize), Ok(points));
        let cached = if id == 1 { 0 } else { points };
        assert_eq!(sum.field("cached", Json::as_usize), Ok(cached));
    }

    // The job list is one NDJSON record per job; the cache endpoint
    // serves the per-engine stat record.
    let list = client::get(&addr, "/jobs").unwrap();
    assert_eq!(list.text().lines().count(), 2);
    let stat = client::get(&addr, "/cache").unwrap();
    assert_eq!(stat.status, 200);
    assert!(
        stat.text().contains("\"record\":\"cache\""),
        "{}",
        stat.text()
    );

    // The records are the one rendering: there is no HTML dashboard.
    assert_eq!(client::get(&addr, "/").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/jobs/1/html").unwrap().status, 404);

    shutdown.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
}

/// One exchange framed by hand, for requests `client` cannot produce:
/// write `request`, read the response to EOF.
fn raw(addr: &str, request: &[u8]) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn malformed_and_missing_requests_get_4xx() {
    let (addr, shutdown, join) = start_daemon(None, 1);

    // Malformed spec body → 400 with a diagnostic.
    let bad = client::post(&addr, "/jobs", b"this is not = [valid [toml").unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("\"error\""), "{}", bad.text());

    // A spec that parses but validates empty is also a 400.
    let empty = client::post(&addr, "/jobs", b"name = \"x\"\n").unwrap();
    assert_eq!(empty.status, 400, "{}", empty.text());

    // Unknown job, unknown route, wrong method.
    assert_eq!(client::get(&addr, "/jobs/99").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/no/such/thing").unwrap().status, 404);
    // ... also under /jobs, where it used to read "method GET not allowed".
    assert_eq!(client::get(&addr, "/jobs/1/bogus").unwrap().status, 404);
    assert_eq!(client::post(&addr, "/jobs/1", b"x").unwrap().status, 405);
    assert_eq!(client::get(&addr, "/shutdown").unwrap().status, 405);

    // Report for a job that never existed.
    assert_eq!(
        client::get(&addr, "/jobs/7/report.json").unwrap().status,
        404
    );

    // No cache configured → /cache is a 404.
    assert_eq!(client::get(&addr, "/cache").unwrap().status, 404);

    // A declared body over the cap is refused as too large on the head
    // alone; it used to be a 400.
    let head = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        dcn_serve::http::MAX_BODY + 1
    );
    let too_large = raw(&addr, head.as_bytes());
    assert!(too_large.starts_with("HTTP/1.1 413 "), "{too_large}");
    // A chunked upload is refused by name; read as an empty body it used
    // to answer `missing key "name"`.
    let chunked = raw(
        &addr,
        b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert!(chunked.starts_with("HTTP/1.1 400 "), "{chunked}");
    assert!(chunked.contains("Transfer-Encoding: chunked"), "{chunked}");

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// `ScenarioSpec::from_toml` validates, so a spec that would fail at
/// execution is refused at submission — the daemon never queues a job
/// doomed by its spec (runtime failure capture is covered by the
/// `dcn-serve` job lifecycle unit tests).
#[test]
fn invalid_specs_are_rejected_at_submission() {
    let (addr, shutdown, join) = start_daemon(None, 1);
    let good = builtin("fig6-small").unwrap().to_toml();

    // Unknown key → parse error → 400.
    let unknown_key = good.replace("horizon_ms", "horizon_zz");
    let resp = client::post(&addr, "/jobs", unknown_key.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // Parses but fails validation (negative horizon) → 400 too.
    let bad_value = good.replace("horizon_ms = ", "horizon_ms = -");
    let resp = client::post(&addr, "/jobs", bad_value.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("horizon"), "{}", resp.text());

    // A non-finite horizon parses as a TOML float; it used to be queued
    // and then panic the worker thread that ran it.
    for bad in ["inf", "1e999"] {
        let non_finite = good.replace("horizon_ms = 4.0", &format!("horizon_ms = {bad}"));
        assert_ne!(non_finite, good);
        let resp = client::post(&addr, "/jobs", non_finite.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(resp.text().contains("horizon_ms"), "{}", resp.text());
    }
    // So is a misspelt key inside a table, which used to be ignored.
    let typo = good.replace("host_gbps", "host_gpbs");
    let resp = client::post(&addr, "/jobs", typo.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("host_gpbs"), "{}", resp.text());
    // A run of 4e9 rotor weeks is more picoseconds than simulator time
    // holds; it used to be queued and run a wrapped horizon (a debug
    // worker panicked on the multiply).
    let fig8 = builtin("fig8").unwrap().to_toml();
    let too_long = fig8.replace("weeks = 2", "weeks = 4000000000");
    assert_ne!(too_long, fig8);
    let resp = client::post(&addr, "/jobs", too_long.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("weeks"), "{}", resp.text());

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// [`Compute`], except that point 1 panics.
struct Poisoned;

impl PointSource for Poisoned {
    fn produce(&self, spec: &ScenarioSpec, item: &WorkItem) -> (Outcome, PointObs) {
        if item.index() == 1 {
            panic!("buffer underflow at switch 3");
        }
        Compute.produce(spec, item)
    }
}

/// A panicking job costs the daemon that job, not a worker: with a
/// single worker, job 1 panics in point 1 on an executor thread
/// (→ `failed`, naming the point and keeping its message — a scoped
/// thread used to swap it for "a scoped thread panicked" — and an event
/// stream that ends), and job 2, queued behind it, still runs to the
/// baseline bytes. Before the `catch_unwind` in `Job::execute` the lone
/// worker died with job 1: job 2 was accepted (201) and never started.
#[test]
fn a_panicking_job_fails_alone_and_the_daemon_runs_the_next() {
    let real = dcn_runner::serve_run_fn(None, 2);
    let run: dcn_serve::RunFn = std::sync::Arc::new(move |spec, obs| {
        if spec.name == "poison" {
            return run_scenario_observed(spec, 2, &Poisoned, obs);
        }
        real(spec, obs)
    });
    let (addr, shutdown, join) = start_daemon_with(run, None, 1);
    let good = builtin("fig6-small").unwrap().to_toml();
    let poison = good.replace("name = \"fig6-small\"", "name = \"poison\"");
    assert_ne!(poison, good);
    for body in [&poison, &good] {
        let resp = client::post(&addr, "/jobs", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
    }

    let status = wait_done(&addr, 1);
    assert!(status.contains("\"state\":\"failed\""), "{status}");
    let label = work_items(&builtin("fig6-small").unwrap())[1].label();
    assert!(
        status.contains(&format!(
            "job panicked: point 1 ({label}): buffer underflow at switch 3"
        )),
        "{status}"
    );
    // The long-poll ends (it used to wait on a `running` job for ever)
    // and a failed job has no report.
    let events = client::get(&addr, "/jobs/1/events").unwrap();
    assert_eq!(events.status, 200);
    assert!(!events.text().contains("\"record\":\"summary\""));
    assert_ne!(
        client::get(&addr, "/jobs/1/report.json").unwrap().status,
        200
    );

    let status = wait_done(&addr, 2);
    assert!(status.contains("\"state\":\"done\""), "{status}");
    let report = client::get(&addr, "/jobs/2/report.json").unwrap();
    let baseline = std::fs::read_to_string(BASELINE).unwrap();
    assert_eq!(report.text(), baseline, "the surviving worker serves it");

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// The daemon keeps the newest `queue_cap` (16) finished jobs. Twenty
/// jobs run one at a time, each done before the next is submitted, so
/// the submissions of jobs 18, 19 and 20 each find 17 finished and drop
/// the oldest: jobs 1–3 are gone and 4–20 are kept. An evicted id
/// answers 410 on every path and names the bound; an id never issued is
/// still a 404.
#[test]
fn evicted_jobs_answer_410_and_the_newest_are_kept() {
    let spec = builtin("fig6-small").unwrap();
    let output = dcn_scenarios::run_scenario(&spec, 2).expect("fig6-small runs");
    let run: dcn_serve::RunFn = std::sync::Arc::new(move |_, _| Ok(output.clone()));
    let (addr, shutdown, join) = start_daemon_with(run, None, 1);
    let body = spec.to_toml();
    for id in 1..=20u64 {
        let resp = client::post(&addr, "/jobs", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        assert!(
            resp.text().contains(&format!("\"id\":{id},")),
            "{}",
            resp.text()
        );
        wait_done(&addr, id);
    }

    for path in ["/jobs/1", "/jobs/1/events", "/jobs/1/report.json"] {
        let resp = client::get(&addr, path).unwrap();
        assert_eq!(resp.status, 410, "{path}: {}", resp.text());
        assert!(
            resp.text().contains("keeps the newest 16 finished jobs"),
            "{path}: {}",
            resp.text()
        );
    }
    assert_eq!(client::get(&addr, "/jobs/3").unwrap().status, 410);
    assert_eq!(client::get(&addr, "/jobs/999").unwrap().status, 404);

    let list = client::get(&addr, "/jobs").unwrap().text();
    let ids: Vec<usize> = list
        .lines()
        .map(|line| {
            parse_json(line)
                .unwrap()
                .field("id", Json::as_usize)
                .unwrap()
        })
        .collect();
    assert_eq!(ids, (4..=20).collect::<Vec<_>>());

    let report = client::get(&addr, "/jobs/20/report.json").unwrap();
    assert_eq!(report.status, 200);
    let baseline = std::fs::read_to_string(BASELINE).unwrap();
    assert_eq!(report.text(), baseline, "the newest job's report is served");

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// Idle peers cannot make the daemon start threads without bound: past
/// `MAX_CONNECTIONS` open connections the accept thread answers 503
/// itself, and once they close, requests are served again.
#[test]
fn a_connection_past_the_cap_gets_503_until_the_open_ones_close() {
    use dcn_serve::server::MAX_CONNECTIONS;
    let (addr, shutdown, join) = start_daemon(None, 1);
    let idle: Vec<std::net::TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| std::net::TcpStream::connect(&addr).expect("connect"))
        .collect();
    // Connections are accepted in order, and every idle one holds a
    // handler reading its request, so the next one is over the cap.
    let refused = raw(&addr, b"GET /jobs HTTP/1.1\r\n\r\n");
    assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
    assert!(refused.contains("{\"error\":"), "{refused}");
    assert!(
        refused.contains(&format!("{MAX_CONNECTIONS} connections")),
        "{refused}"
    );

    // Each handler reads EOF and ends; the accept loop counts again at
    // the next connection, so poll until the handlers are gone.
    drop(idle);
    let mut last = None;
    for _ in 0..400 {
        last = client::get(&addr, "/jobs").ok().map(|r| r.status);
        if last == Some(200) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        last,
        Some(200),
        "GET /jobs after the idle connections closed"
    );

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_queued_jobs() {
    let cache = scratch("drain");
    let (addr, shutdown, join) = start_daemon(Some(cache.clone()), 1);
    let spec_toml = builtin("fig6-small").unwrap().to_toml();
    // Three jobs through one worker: at least two still queued when the
    // shutdown lands; all three must complete before serve() returns.
    for _ in 0..3 {
        let resp = client::post(&addr, "/jobs", spec_toml.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
    }
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
}

/// The CLI wiring: `xp serve --addr 127.0.0.1:0` announces its bound
/// address on stderr (a `# `-prefixed note), serves a job, and drains on
/// `POST /shutdown`.
#[test]
fn xp_serve_cli_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let cache = scratch("cli");
    let mut child = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xp serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let first = lines.next().expect("announce line").expect("readable");
    assert!(first.starts_with("# "), "stderr is the note path: {first}");
    let addr = first
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("announce line carries the bound address")
        .to_string();

    let spec_toml = builtin("fig6-small").unwrap().to_toml();
    let resp = client::post(&addr, "/jobs", spec_toml.as_bytes()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    wait_done(&addr, 1);
    let report = client::get(&addr, "/jobs/1/report.json").unwrap();
    let baseline = std::fs::read_to_string(BASELINE).unwrap();
    assert_eq!(report.text(), baseline, "CLI daemon serves the same bytes");

    let down = client::post(&addr, "/shutdown", b"").unwrap();
    assert_eq!(down.status, 200);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "graceful shutdown exits 0");
    let _ = std::fs::remove_dir_all(&cache);
}
