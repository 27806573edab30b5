//! The traced run: per-layer figures, timed from outside.
//!
//! The same inputs the three workloads send are fed in-process through
//! the layers' public functions, and each call is timed around the call;
//! nothing is traced inside the program. Work counts come from the
//! program's own `pex-obs` counters, read as deltas around the calls.
//! Short socket runs of `keystroke` and `edit-mix` supply the figures
//! only a live daemon has: transport time, queue wait and edit latency.
//!
//! The traced run does the same for every `--workload`: each per-layer
//! metric is measured on the inputs of the workload whose end-to-end
//! metric it should move (see the README).

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use pex_abstract::ConstraintCache;
use pex_core::{CancelToken, Completer, MethodIndex, RankConfig, ReachIndex};
use pex_model::{Context, Database};
use pex_obs::MetricsSnapshot;
use pex_serve::json;
use pex_serve::proto::{self, Request, RequestDefaults};
use pex_serve::registry::DefaultOrigin;
use pex_serve::{persist, ServeConfig, Server, Snapshot, SnapshotRegistry};
use pex_types::ConversionIndex;

use crate::util::{median, percentile, us_since, Ledger, Metrics};
use crate::{editmix, keystroke, replay, Env, Report};

/// Call times by metric name, in microseconds.
#[derive(Default)]
struct Times(BTreeMap<&'static str, Vec<f64>>);

impl Times {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.0.entry(name).or_default().push(us_since(t0));
        r
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn median(&self, name: &str) -> f64 {
        median(
            self.0
                .get(name)
                .unwrap_or_else(|| panic!("no samples for {name}")),
        )
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Counter deltas between two registry snapshots.
struct Delta<'a>(&'a MetricsSnapshot, &'a MetricsSnapshot);

impl Delta<'_> {
    fn get(&self, name: &str) -> f64 {
        (counter(self.1, name) - counter(self.0, name)) as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `f` over whole rounds until `seconds` have passed (at least once).
fn rounds(seconds: f64, mut f: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    loop {
        f()?;
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Keystroke requests through json, proto, registry, snapshot and core,
/// then through an in-process `Server` with no socket.
fn keystroke_layers(
    env: &Env,
    seconds: f64,
    t: &mut Times,
    m: &mut Metrics,
    ledger: &mut Ledger,
    incorrect: &mut Option<String>,
) -> Result<f64, String> {
    let path = keystroke::write_snapshots(&env.tmp)?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    for _ in 0..20 {
        t.time("serve.persist.load_us", || persist::load(&path))?;
    }
    let default = persist::load(&path)?;
    let registry = Arc::new(SnapshotRegistry::new(
        Arc::clone(&default),
        DefaultOrigin::File {
            path: path.clone(),
            locals: Vec::new(),
        },
        Some(env.tmp.join("tenants")),
        None,
    ));
    let default_abs = default.abs_for_site();
    let requests = keystroke::round(env.seed);
    let defaults = RequestDefaults::default();
    let cancel = CancelToken::new();
    let mut id = 0;
    let mut pass = |t: &mut Times, ledger: &mut Ledger| -> Result<(), String> {
        for req in &requests {
            id += 1;
            let line = req.line(id);
            t.time("serve.json.parse_us", || json::parse(&line))
                .map_err(|e| e.to_string())?;
            let Ok(Request::Query(q)) = t.time("serve.proto.parse_request_us", || {
                proto::parse_request(&line)
            }) else {
                return Err(format!("not a query: {line}"));
            };
            let snapshot = t.time("serve.registry.get_us", || {
                registry.get(q.project.as_deref())
            })?;
            let tenant_abs;
            let abs = if q.project.is_some() {
                tenant_abs = t.time("serve.snapshot.abs_for_site_us", || snapshot.abs_for_site());
                tenant_abs.as_ref()
            } else {
                default_abs.as_ref()
            };
            let (_, disposition) = t.time("serve.proto.execute_us", || {
                proto::execute(&snapshot, &q, &defaults, &cancel, abs)
            });
            if disposition == pex_serve::Disposition::Ok {
                ledger.ok();
            } else {
                ledger.fail(format!("in-process {line} answered {disposition:?}"));
            }
            // The engine itself, below the protocol.
            let ctx = snapshot.context_for(&q.locals)?;
            let pe = t
                .time("core.parse_partial_us", || {
                    pex_core::parse_partial(&snapshot.db, &ctx, &q.query)
                })
                .map_err(|e| e.to_string())?;
            let completer =
                Completer::new(&snapshot.db, &ctx, &snapshot.index, RankConfig::all(), abs)
                    .with_reach(&snapshot.reach)
                    .with_cache(&snapshot.cache);
            let (completions, _) = t.time("core.complete_us", || {
                completer.complete_with_outcome(&pe, 10)
            });
            for c in &completions {
                t.time("core.render_us", || completer.render(c));
                if q.explain {
                    t.time("core.explain_us", || completer.explain(c));
                }
                // Fig. 6: every completion must be derivable from its query.
                if !pex_core::derives(&snapshot.db, &ctx, &pe, &c.expr) {
                    incorrect.get_or_insert(format!(
                        "{} is not derivable from {}",
                        completer.render(c),
                        q.query
                    ));
                }
            }
        }
        Ok(())
    };
    // The first pass warms the caches and loads `paint-b`.
    let mut warm = Times::default();
    pass(&mut warm, &mut Ledger::default())?;
    rounds(seconds / 2.0, || pass(t, ledger))?;

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let (tx, rx) = channel();
    let mut id = 0;
    let result = rounds(seconds / 2.0, || {
        for req in &requests {
            id += 1;
            let line = req.line(id);
            t.time("serve.server.roundtrip_us", || {
                server.submit(line, &tx);
                rx.recv().map_err(|e| e.to_string())
            })?;
        }
        Ok(())
    });
    server.shutdown();
    result?;
    m.put("serve.persist.snapshot_bytes", bytes as f64, "bytes");
    reconcile(t);
    Ok(t.median("serve.server.roundtrip_us"))
}

/// Prints how the stage times add up, as means per request (sums add;
/// medians do not): the engine stages against `proto::execute`, and the
/// protocol stages against the in-process server round trip. What is
/// left over is response formatting and the worker hand-off.
fn reconcile(t: &Times) {
    let requests = t.0.get("serve.proto.execute_us").map_or(1, Vec::len) as f64;
    let per = |names: &[&str]| names.iter().map(|n| t.sum(n)).sum::<f64>() / requests;
    let engine = per(&[
        "core.parse_partial_us",
        "core.complete_us",
        "core.render_us",
        "core.explain_us",
    ]);
    let execute = per(&["serve.proto.execute_us"]);
    let protocol = per(&[
        "serve.json.parse_us",
        "serve.proto.parse_request_us",
        "serve.registry.get_us",
        "serve.snapshot.abs_for_site_us",
        "serve.proto.execute_us",
    ]);
    let roundtrip = t.sum("serve.server.roundtrip_us")
        / t.0.get("serve.server.roundtrip_us").map_or(1, Vec::len) as f64;
    eprintln!(
        "reconcile (means per request): engine stages {engine:.1} us = {:.0}% of proto.execute {execute:.1} us; \
         protocol stages {protocol:.1} us = {:.0}% of the in-process server round trip {roundtrip:.1} us",
        100.0 * engine / execute,
        100.0 * protocol / roundtrip
    );
}

/// The replay's queries with the abstract-type sweep and `rank_of` timed
/// apart, and the engine's work counts per query.
fn replay_layers(
    env: &Env,
    seconds: f64,
    t: &mut Times,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let dbs = replay::generate();
    for _ in 0..5 {
        t.time("abstract.constraint_cache.build_us", || {
            dbs.iter()
                .map(|(_, db)| ConstraintCache::build(db))
                .collect::<Vec<_>>()
        });
    }
    let mut projects: Vec<replay::Project> = dbs.into_iter().map(replay::derive).collect();
    replay::shuffle(&mut projects, env.seed);
    // Warm, and the ground-truth figure.
    let warm = replay::replay_round(&projects);
    m.put("top10_hits", warm.hits as f64, "count");
    let before = pex_obs::registry().snapshot();
    let (mut sweeps, mut ranks) = (Vec::new(), Vec::new());
    rounds(seconds, || {
        for p in &projects {
            replay::replay_project(
                p,
                |us| sweeps.push(us),
                |_, answer| {
                    ranks.push(answer.us);
                    if answer.degraded {
                        ledger.fail("replay query degraded".into());
                    } else {
                        ledger.ok();
                    }
                },
            );
        }
        Ok(())
    })?;
    let queries = ranks.len();
    t.0.insert("abstract.sweep_us", sweeps);
    t.0.insert("core.rank_of_us", ranks);
    let after = pex_obs::registry().snapshot();
    let d = Delta(&before, &after);
    let per_query = queries as f64;
    for name in [
        "engine.bestfirst.expanded",
        "engine.bestfirst.pruned_bound",
        "engine.candidates.generated",
        "engine.query.steps",
        "rank.score.evals",
        "rank.term.abstract_types.evals",
        "convindex.distance.lookups",
    ] {
        m.put(name, d.get(name) / per_query, "count");
    }
    m.put(
        "engine.candidates.emit_ratio",
        ratio(
            d.get("engine.candidates.emitted"),
            d.get("engine.candidates.generated"),
        ),
        "ratio",
    );
    let lookups = d.get("index.candidates.lookups");
    m.put(
        "index.candidates.hit_ratio",
        ratio(lookups - d.get("index.candidates.fills"), lookups),
        "ratio",
    );
    let (hits, fills) = (
        d.get("engine.chain.memo.hits"),
        d.get("engine.chain.memo.fills"),
    );
    m.put(
        "engine.chain.memo.hit_ratio",
        ratio(hits, hits + fills),
        "ratio",
    );
    let (hits, interned) = (d.get("arena.hits"), d.get("arena.interned"));
    m.put("arena.hit_ratio", ratio(hits, hits + interned), "ratio");
    Ok(())
}

/// The program's per-edit invalidation counters.
const INVALIDATE: [&str; 3] = [
    "engine.invalidate.candidates",
    "engine.invalidate.chains",
    "engine.invalidate.conversions",
];

/// The edit-mix project through the model, core and snapshot layers:
/// compile and build once per repetition, then every edit cycle.
fn editmix_layers(
    env: &Env,
    seconds: f64,
    t: &mut Times,
    m: &mut Metrics,
    ledger: &mut Ledger,
    incorrect: &mut Option<String>,
) -> Result<(), String> {
    let project = editmix::prepare(&editmix::generate(), env.seed)?;
    let source = project.source_with(None);
    let compile = |src: &str| pex_model::minics::compile(src).map_err(|e| e.to_string());
    let mut db: Database = compile(&source)?;
    for _ in 0..5 {
        db = t.time("model.minics.compile_us", || compile(&source))?;
        t.time("core.method_index.build_us", || MethodIndex::build(&db));
        t.time("core.reach_index.build_us", || ReachIndex::build(&db));
        t.time("types.conversion_index.build_us", || {
            ConversionIndex::build(db.types())
        });
    }
    // The first build is untimed: it warms up.
    let mut base = Snapshot::from_database("edit-mix".into(), db.clone(), Context::empty(), None);
    for _ in 0..4 {
        base = t.time("serve.snapshot.from_database_us", || {
            Snapshot::from_database("edit-mix".into(), db.clone(), Context::empty(), None)
        });
    }
    let mut current = base;
    let mut edits = 0u64;
    let mut invalidated = [0f64; 3];
    rounds(seconds, || {
        for cycle in &project.edits {
            for (step, unit) in cycle.steps.iter().enumerate() {
                t.time("model.database.clone_us", || current.db.clone());
                let (mut patched, diff) = t
                    .time("model.minics.apply_update_us", || {
                        pex_model::minics::apply_update(&current.db, unit)
                    })
                    .map_err(|e| e.to_string())?;
                if !diff.is_noop() {
                    t.time("core.refresh_derived_us", || {
                        pex_core::refresh_derived(
                            &current.db,
                            &mut patched,
                            &current.index,
                            &current.reach,
                            &current.cache,
                            &diff,
                        )
                    });
                }
                let before = pex_obs::registry().snapshot();
                let result = t.time("serve.snapshot.apply_update_us", || {
                    current.apply_update(unit)
                });
                let after = pex_obs::registry().snapshot();
                let d = Delta(&before, &after);
                for (total, name) in invalidated.iter_mut().zip(INVALIDATE) {
                    *total += d.get(name);
                }
                edits += 1;
                match result {
                    Ok((next, stats)) => {
                        ledger.ok();
                        if stats.noop != (step == 3) {
                            incorrect.get_or_insert(format!(
                                "{} edit of {} reported noop {}",
                                editmix::STEP_NAMES[step],
                                cycle.class,
                                stats.noop
                            ));
                        }
                        if let Some(next) = next {
                            current = next;
                        }
                    }
                    Err(e) => ledger.fail(format!(
                        "{} edit of {}: {e}",
                        editmix::STEP_NAMES[step],
                        cycle.class
                    )),
                }
                // Fig. 6 on the edited model.
                let ctx = current.context_for(&[format!("c:{}", cycle.class)])?;
                let completer =
                    Completer::new(&current.db, &ctx, &current.index, RankConfig::all(), None)
                        .with_reach(&current.reach)
                        .with_cache(&current.cache);
                let pe = pex_core::parse_partial(&current.db, &ctx, "?({c})")
                    .map_err(|e| e.to_string())?;
                for c in completer.complete(&pe, 10) {
                    if !pex_core::derives(&current.db, &ctx, &pe, &c.expr) {
                        incorrect.get_or_insert(format!(
                            "{} is not derivable after an edit",
                            completer.render(&c)
                        ));
                    }
                }
            }
        }
        Ok(())
    })?;
    for (total, name) in invalidated.iter().zip(INVALIDATE) {
        m.put(name, total / edits as f64, "count");
    }
    Ok(())
}

pub fn run(env: &Env, seconds: f64) -> Result<Report, String> {
    let mut t = Times::default();
    let mut m = Metrics::default();
    let mut probe = Ledger::default();
    let mut incorrect = None;

    let socket = keystroke::run(env, seconds * 0.15, 1)?;
    incorrect = incorrect.or(socket.incorrect);
    let socket_p50 = median(&socket.windows.all_queries());
    m.put("serve.queue.wait_us", socket.queue_wait_us, "us");

    let roundtrip = keystroke_layers(
        env,
        seconds * 0.2,
        &mut t,
        &mut m,
        &mut probe,
        &mut incorrect,
    )?;
    m.put("serve.transport_us", socket_p50 - roundtrip, "us");
    replay_layers(env, seconds * 0.25, &mut t, &mut m, &mut probe)?;

    let edits = editmix::run(env, seconds * 0.15, 1)?;
    incorrect = incorrect.or(edits.incorrect);
    let edit_us = edits.windows.all_edits();
    m.put("edit_p50_us", median(&edit_us), "us");
    m.put("edit_p99_us", percentile(&edit_us, 0.99), "us");
    editmix_layers(
        env,
        seconds * 0.25,
        &mut t,
        &mut m,
        &mut probe,
        &mut incorrect,
    )?;

    for name in t.0.keys() {
        m.put(name, t.median(name), "us");
    }
    Ok(Report {
        metrics: m,
        ledgers: vec![
            ("socket queries", socket.ledger),
            ("socket edit-mix queries", edits.queries),
            ("socket edits", edits.edits),
            ("in-process operations", probe),
        ],
        incorrect,
    })
}
