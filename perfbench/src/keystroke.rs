//! `keystroke`: the paper's query shapes answered by a snapshot-booted
//! `pex-serve` over its Unix socket, one connection in a closed loop.

use std::path::Path;
use std::time::Instant;

use pex_serve::{persist, Snapshot, SnapshotSource};

use crate::check::{check_query_response, Verdict};
use crate::daemon::{check_accounting, Daemon};
use crate::util::{us_since, vm_hwm_mb, Ledger, Metrics, Rng, Windows};
use crate::{Env, Report};

/// The second tenant, lazily loaded from `--snapshot-dir`.
pub const TENANT_B: &str = "paint-b";

/// The query shapes of the paper's running example (Fig. 2 and Sec. 3)
/// over the Paint.NET corpus's `img`/`size` locals. Each shape lists
/// equivalent spellings; the seed picks one per request.
const SHAPES: &[&[&str]] = &[
    &["?({img, size})", "?({size, img})"],
    &["?({img})"],
    &["img.?f"],
    &["img.?*m"],
    &["size.?f"],
    &["?"],
    &["? := size.?f"],
];

/// Requests per shape per round: tenant slots (two default, one
/// `paint-b`) times variants (the first asks for `explain`).
const TENANT_SLOTS: usize = 3;
const VARIANTS: usize = 4;

pub struct Request {
    pub query: &'static str,
    pub project: Option<&'static str>,
    pub explain: bool,
}

impl Request {
    pub fn line(&self, id: u64) -> String {
        let mut line = format!("{{\"id\":{id},\"query\":\"{}\",\"limit\":10", self.query);
        if let Some(p) = self.project {
            line.push_str(&format!(",\"project\":\"{p}\""));
        }
        if self.explain {
            line.push_str(",\"explain\":true");
        }
        line.push('}');
        line
    }
}

/// One round: every shape × tenant slot × variant exactly once, in a
/// seeded order. Each round holds the same mix, so a seed changes the
/// order and the spellings, never the amount of work.
pub fn round(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for spellings in SHAPES {
        for slot in 0..TENANT_SLOTS {
            for variant in 0..VARIANTS {
                out.push(Request {
                    query: spellings[rng.below(spellings.len())],
                    project: (slot == TENANT_SLOTS - 1).then_some(TENANT_B),
                    explain: variant == 0,
                });
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Writes the default tenant's snapshot and the `paint-b` tenant's copy;
/// returns the default snapshot's path.
pub fn write_snapshots(tmp: &Path) -> Result<std::path::PathBuf, String> {
    let snapshot = Snapshot::load(&SnapshotSource::Paint)?;
    let path = tmp.join("paint.pexsnap");
    persist::save(&snapshot, &path)?;
    std::fs::create_dir_all(tmp.join("tenants")).map_err(|e| e.to_string())?;
    persist::save(
        &snapshot,
        &tmp.join("tenants").join(format!("{TENANT_B}.pexsnap")),
    )?;
    Ok(path)
}

pub struct Outcome {
    pub windows: Windows,
    pub setup_s: f64,
    pub rss_mb: f64,
    pub queue_wait_us: f64,
    pub ledger: Ledger,
    pub incorrect: Option<String>,
}

/// Boots the daemon `boots` times (reporting the median boot), keeps the
/// last one, warms it with one untimed round, then replays whole rounds
/// for `seconds`.
pub fn run(env: &Env, seconds: f64, boots: usize) -> Result<Outcome, String> {
    let snapshot = write_snapshots(&env.tmp)?;
    let args = vec![
        "--load-snapshot".to_owned(),
        snapshot.display().to_string(),
        "--snapshot-dir".to_owned(),
        env.tmp.join("tenants").display().to_string(),
    ];
    let (mut daemon, setup_s) = Daemon::boot_median(
        &env.serve_bin,
        &args,
        &env.socket(),
        &env.tmp.join("serve.log"),
        boots,
    )?;
    let mut conn = daemon.connect()?;
    let requests = round(env.seed);
    let mut ledger = Ledger::default();
    let mut incorrect = None;
    let mut id = 0u64;
    let mut rounds = 0u64;
    let mut windows = Windows::start(seconds);
    // One untimed round warms the caches and lazily loads `paint-b`.
    for warm in [true, false] {
        windows = Windows::start(seconds);
        loop {
            for req in &requests {
                id += 1;
                let line = req.line(id);
                daemon.lines_sent += 1;
                let t0 = Instant::now();
                let response = conn.call(&line)?;
                let us = us_since(t0);
                match check_query_response(response, id, req.explain) {
                    Verdict::Incorrect(why) => {
                        incorrect.get_or_insert(why);
                    }
                    _ if warm => {}
                    Verdict::Failed(why) => ledger.fail(why),
                    Verdict::Ok => {
                        ledger.ok();
                        windows.current().query_us.push(us);
                    }
                }
            }
            if warm {
                break;
            }
            rounds += 1;
            if windows.end_round() {
                break;
            }
        }
    }
    let accounting = check_accounting(&mut daemon, &mut conn)?;
    let rss_mb = vm_hwm_mb(&daemon.pid())?;
    drop(conn);
    daemon.shutdown()?;
    eprintln!(
        "keystroke: {rounds} timed rounds of {} requests, {} received by the daemon",
        requests.len(),
        accounting.received
    );
    Ok(Outcome {
        windows,
        setup_s,
        rss_mb,
        queue_wait_us: accounting.queue_wait_us,
        ledger,
        incorrect,
    })
}

/// Daemon boots per run; `setup_s` is their median.
pub const BOOTS: usize = 7;

pub fn run_report(env: &Env, seconds: f64) -> Result<Report, String> {
    let o = run(env, seconds, BOOTS)?;
    let mut metrics = Metrics::default();
    report(&o, &mut metrics);
    eprintln!("keystroke: {} query samples", o.windows.all_queries().len());
    Ok(Report {
        metrics,
        ledgers: vec![("queries", o.ledger)],
        incorrect: o.incorrect,
    })
}

pub fn report(o: &Outcome, m: &mut Metrics) {
    o.windows.report(m);
    m.put("setup_s", o.setup_s, "s");
    m.put("rss_peak_mb", o.rss_mb, "MB");
}
