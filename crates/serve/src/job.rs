//! The job subsystem: per-submission lifecycle and progress accounting.
//!
//! A [`Job`] is born `queued` when `POST /jobs` accepts a spec, turns
//! `running` when a worker picks it up, and ends `done` (reports
//! rendered) or `failed` (error returned, or panic caught). The job
//! itself implements [`Observer`]: the executor reports each completed
//! point straight into the job, which appends the span's NDJSON line to
//! the event log and updates the hit/miss/done counters of the job
//! record. The event log finishes with the same summary record `xp run
//! --log-json` emits, so a job's event stream and a batch run's stream
//! share one grammar.
//!
//! Wall-clock time lives here and only here in this crate (span
//! timestamps come from the executor; this module only times the job
//! itself for ETA math). Reports never see any of it: the report bytes
//! are rendered from the returned
//! [`ScenarioOutput`](dcn_scenarios::ScenarioOutput) alone.

#![expect(
    clippy::disallowed_methods,
    reason = "job timing (ETAs, event-stream long-polls) is scheduling, never report bytes; \
              the crate's three clock reads are confined to this module"
)]

use crate::{unpoisoned, RunFn};
use dcn_scenarios::{
    eta, jstr, panic_message, CacheStatus, Observer, ScenarioSpec, SpanRecord, SummaryRecord,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Claimed by a worker; points are completing.
    Running,
    /// Finished; reports are available.
    Done,
    /// Execution failed; the error is captured on the job.
    Failed,
}

impl JobState {
    /// Wire label (`queued` / `running` / `done` / `failed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// Mutable half of a job, guarded by one mutex so every observer update
/// and state transition is atomic with respect to status reads.
struct Progress {
    state: JobState,
    /// NDJSON event log: one span line per completed point, then one
    /// summary line. Streamed by `GET /jobs/<id>/events`.
    events: Vec<String>,
    /// Roll-up of the spans completed so far (points done, cache hits,
    /// simulation events); becomes the summary line at the end. Its
    /// `wall_ms` is the job's total wall clock, frozen at completion —
    /// as `xp run`'s summary has the run's, not Σ span clocks.
    summary: SummaryRecord,
    /// Cache misses among completed points.
    misses: usize,
    /// When the worker claimed the job (ETA + wall_ms basis).
    started: Option<Instant>,
    /// Rendered reports, present once `Done`: one exact-sized copy each,
    /// which every `GET` of a report writes from.
    report_json: Option<Arc<str>>,
    report_csv: Option<Arc<str>>,
    /// Failure message, present once `Failed`.
    error: Option<String>,
}

/// One submitted scenario and its full lifecycle. Shared between the
/// accept loop (submission + status reads), one worker (execution), and
/// any number of event-stream readers.
pub struct Job {
    /// Dense id, assigned in submission order.
    pub id: u64,
    /// Scenario name from the spec.
    pub name: String,
    /// `sweep` / `timeseries` / `analytic`.
    pub kind: &'static str,
    /// Total points the spec expands to (denominator for progress).
    pub points: usize,
    /// The parsed submission.
    pub spec: ScenarioSpec,
    progress: Mutex<Progress>,
    /// Notified on every event append and state change.
    changed: Condvar,
}

/// Immutable status snapshot, taken under the lock, for rendering.
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Scenario name.
    pub name: String,
    /// Spec kind label.
    pub kind: &'static str,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Total points.
    pub points: usize,
    /// Completed points.
    pub done: usize,
    /// Cache hits among completed points.
    pub hits: usize,
    /// Cache misses among completed points.
    pub misses: usize,
    /// Wall milliseconds: running total while live, frozen at the end.
    pub wall_ms: f64,
    /// Estimated milliseconds to completion (running jobs with at least
    /// one completed point only).
    pub eta_ms: Option<f64>,
    /// Failure message, if failed.
    pub error: Option<String>,
}

impl JobSnapshot {
    /// Status as one NDJSON line: `{"record":"job",...}` — the job-level
    /// companion to the span/summary grammar.
    pub fn to_json(&self) -> String {
        let eta = match self.eta_ms {
            Some(ms) => format!("{ms:.0}"),
            None => "null".into(),
        };
        let error = match &self.error {
            Some(e) => jstr(e),
            None => "null".into(),
        };
        format!(
            "{{\"record\":\"job\",\"id\":{},\"name\":{},\"kind\":\"{}\",\"state\":\"{}\",\
             \"points\":{},\"done\":{},\"hits\":{},\"misses\":{},\"wall_ms\":{:.3},\
             \"eta_ms\":{},\"error\":{}}}",
            self.id,
            jstr(&self.name),
            self.kind,
            self.state.as_str(),
            self.points,
            self.done,
            self.hits,
            self.misses,
            self.wall_ms,
            eta,
            error
        )
    }
}

impl Job {
    /// Wrap a parsed spec as a queued job.
    pub fn new(id: u64, spec: ScenarioSpec) -> Arc<Job> {
        let kind = spec.kind.key();
        Arc::new(Job {
            id,
            name: spec.name.clone(),
            kind,
            points: spec.num_points(),
            progress: Mutex::new(Progress {
                state: JobState::Queued,
                events: Vec::new(),
                summary: SummaryRecord::new(&spec.name, kind),
                misses: 0,
                started: None,
                report_json: None,
                report_csv: None,
                error: None,
            }),
            spec,
            changed: Condvar::new(),
        })
    }

    /// Run the job to completion through the injected run function.
    /// Called by exactly one worker; every transition notifies waiters.
    pub fn execute(self: &Arc<Job>, run: &RunFn) {
        {
            let mut p = unpoisoned(self.progress.lock());
            p.state = JobState::Running;
            p.started = Some(Instant::now());
            self.changed.notify_all();
        }
        // A panic in the run must cost the daemon this job, not the
        // worker thread: unwinding out of here would leave the job
        // `running` for ever, its event streams open, and the pool one
        // thread short. (Unwind-safe: the run shares only `progress`
        // with us, and `span` finishes each update under the lock.)
        // Reports are rendered from the output alone — the bytes are
        // exactly `xp run`'s, regardless of scheduling — and in here, so
        // the lock below only stores them.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(&self.spec, self.as_ref()).map(|out| (out.to_json(), out.to_csv()))
        }))
        .unwrap_or_else(|payload| {
            Err(format!("job panicked: {}", panic_message(payload.as_ref())))
        });
        let mut p = unpoisoned(self.progress.lock());
        p.summary.wall_ms = match p.started {
            Some(t0) => t0.elapsed().as_secs_f64() * 1e3,
            None => 0.0,
        };
        match result {
            Ok((json, csv)) => {
                p.report_json = Some(json.into());
                p.report_csv = Some(csv.into());
                // Summary before the terminal state, under one lock:
                // event streams observe a complete log the moment they
                // see a terminal state.
                let summary = p.summary.to_json();
                p.events.push(summary);
                p.state = JobState::Done;
            }
            Err(e) => {
                p.error = Some(e);
                p.state = JobState::Failed;
            }
        }
        self.changed.notify_all();
    }

    /// Status snapshot for `GET /jobs` and `GET /jobs/<id>`. While the
    /// job runs, its wall clock counts from the moment a worker claimed
    /// it, and the ETA extrapolates that clock over the points left.
    pub fn snapshot(&self) -> JobSnapshot {
        let p = unpoisoned(self.progress.lock());
        let done = p.summary.points;
        let (wall_ms, eta_ms) = match (p.state, p.started) {
            (JobState::Running, Some(t0)) => {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                (ms, eta(ms, done, self.points))
            }
            _ => (p.summary.wall_ms, None),
        };
        JobSnapshot {
            id: self.id,
            name: self.name.clone(),
            kind: self.kind,
            state: p.state,
            points: self.points,
            done,
            hits: p.summary.cached,
            misses: p.misses,
            wall_ms,
            eta_ms,
            error: p.error.clone(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        unpoisoned(self.progress.lock()).state
    }

    /// The JSON report, once done (shared, not copied).
    pub fn report_json(&self) -> Option<Arc<str>> {
        unpoisoned(self.progress.lock()).report_json.clone()
    }

    /// The CSV report, once done (shared, not copied).
    pub fn report_csv(&self) -> Option<Arc<str>> {
        unpoisoned(self.progress.lock()).report_csv.clone()
    }

    /// Event lines from `from` onward, blocking until at least one new
    /// line is available or the job is terminal. Returns the new lines
    /// and whether the job is terminal (stream may end). Waits time out
    /// periodically so a shutting-down server can drop readers.
    pub fn wait_events(&self, from: usize, max_wait: Duration) -> (Vec<String>, bool) {
        let mut p = unpoisoned(self.progress.lock());
        let deadline = Instant::now() + max_wait;
        while p.events.len() <= from && !p.state.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = unpoisoned(self.changed.wait_timeout(p, deadline - now));
            p = next;
            if timeout.timed_out() {
                break;
            }
        }
        let lines = p.events.get(from..).unwrap_or(&[]).to_vec();
        (lines, p.state.is_terminal())
    }
}

impl Observer for Job {
    fn span(&self, span: &SpanRecord) {
        let mut p = unpoisoned(self.progress.lock());
        p.summary.add(span);
        p.misses += usize::from(span.cache == CacheStatus::Miss);
        p.events.push(span.to_json());
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::builtin;

    fn tiny_job(id: u64) -> Arc<Job> {
        Job::new(id, builtin("fig6-small").expect("builtin spec"))
    }

    fn fake_run(fail: bool) -> RunFn {
        Arc::new(move |spec, obs| {
            for (i, item) in dcn_scenarios::work_items(spec).iter().enumerate() {
                obs.span(&SpanRecord {
                    index: i,
                    label: item.label(),
                    cache: if i == 0 {
                        CacheStatus::Miss
                    } else {
                        CacheStatus::Hit
                    },
                    shard: None,
                    wall_ms: 1.0,
                    stats: None,
                });
            }
            if fail {
                Err("engine exploded".into())
            } else {
                dcn_scenarios::run_scenario(spec, 1)
            }
        })
    }

    #[test]
    fn lifecycle_done_renders_reports_and_summary() {
        let job = tiny_job(1);
        assert_eq!(job.state(), JobState::Queued);
        assert!(job.points > 0);
        job.execute(&fake_run(false));
        assert_eq!(job.state(), JobState::Done);
        let snap = job.snapshot();
        assert_eq!(snap.done, job.points);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, job.points - 1);
        assert!(job.report_json().is_some());
        assert!(job.report_csv().is_some());
        let (events, done) = job.wait_events(0, Duration::from_millis(1));
        assert!(done);
        assert_eq!(events.len(), job.points + 1);
        assert!(events.last().unwrap().contains("\"record\":\"summary\""));
        assert!(events[0].contains("\"record\":\"span\""));
        let status = snap.to_json();
        assert!(status.contains("\"record\":\"job\""));
        assert!(status.contains("\"state\":\"done\""));
        assert!(status.contains("\"error\":null"));
    }

    /// Spans overlap when points run on several threads: the summary's
    /// `wall_ms` is the job's own wall clock, as `xp run`'s is the run's.
    #[test]
    fn summary_wall_ms_is_the_jobs_wall_clock_not_the_sum_of_span_clocks() {
        let job = tiny_job(4);
        let run: RunFn = Arc::new(|spec, obs| {
            for (i, item) in dcn_scenarios::work_items(spec).iter().enumerate() {
                obs.span(&SpanRecord {
                    index: i,
                    label: item.label(),
                    cache: CacheStatus::Hit,
                    shard: None,
                    wall_ms: 3_600_000.0,
                    stats: None,
                });
            }
            dcn_scenarios::run_scenario(spec, 1)
        });
        job.execute(&run);
        let (events, _) = job.wait_events(job.points, Duration::from_millis(1));
        let summary = dcn_scenarios::diff::parse_json(&events[0]).expect("summary line");
        let wall_ms = summary.get("wall_ms").and_then(|v| v.as_f64()).unwrap();
        let snap_ms = job.snapshot().wall_ms;
        // `{:.3}` rounds to the nearest microsecond.
        assert!(wall_ms <= snap_ms + 1e-3, "{wall_ms} vs {snap_ms}");
        assert!(
            wall_ms < 3_600_000.0,
            "an hour per span, {wall_ms} ms in all"
        );
    }

    /// The ETA extrapolates the job's own clock, not the sum of span
    /// clocks: point 0 of 2 reports an hour (as one of many executor
    /// threads may), yet the job has run for a few milliseconds.
    #[test]
    fn eta_reads_the_jobs_clock_not_the_sum_of_span_clocks() {
        let job = tiny_job(5);
        assert_eq!(job.points, 2);
        let seen = Arc::new(Mutex::new(None));
        let (me, out) = (Arc::clone(&job), Arc::clone(&seen));
        let run: RunFn = Arc::new(move |spec, obs| {
            obs.span(&SpanRecord {
                index: 0,
                label: dcn_scenarios::work_items(spec)[0].label(),
                cache: CacheStatus::Miss,
                shard: None,
                wall_ms: 3_600_000.0,
                stats: None,
            });
            *out.lock().unwrap() = Some(me.snapshot());
            Err("stopped after point 0".into())
        });
        job.execute(&run);
        let snap = seen.lock().unwrap().take().expect("snapshot taken mid-run");
        assert_eq!((snap.state, snap.done), (JobState::Running, 1));
        let eta_ms = snap.eta_ms.expect("an ETA once a point is done");
        assert!(eta_ms < 3_600_000.0, "ETA {eta_ms} ms");
    }

    #[test]
    fn lifecycle_failed_captures_error() {
        let job = tiny_job(2);
        job.execute(&fake_run(true));
        assert_eq!(job.state(), JobState::Failed);
        let snap = job.snapshot();
        assert_eq!(snap.error.as_deref(), Some("engine exploded"));
        assert!(snap.to_json().contains("\"state\":\"failed\""));
        assert!(job.report_json().is_none());
    }

    #[test]
    fn a_panicking_run_fails_the_job_and_returns() {
        let job = tiny_job(3);
        let run: RunFn = Arc::new(|_, _| panic!("boom at point {}", 7));
        job.execute(&run);
        assert_eq!(job.state(), JobState::Failed);
        let error = job.snapshot().error.expect("failure message");
        assert_eq!(error, "job panicked: boom at point 7");
        // Waiters are released: the stream is terminal, not hung.
        let (events, terminal) = job.wait_events(0, Duration::from_millis(1));
        assert!(terminal && events.is_empty());
    }
}
