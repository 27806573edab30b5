//! `edit-mix`: incremental `update`s beside queries, over the socket.
//!
//! `pex-serve` boots from the mini-C# source of a generated `.NET`-profile
//! project (one compilation unit per type, printed by
//! `pex_model::minics::printer`). Each round then edits a few client
//! classes, each through the same cycle — a body-only edit, a signature
//! edit, a revert to the original unit, and the original unit re-sent (a
//! no-op) — with queries after every edit that carry a local of the
//! edited class. A round ends where it began, so rounds repeat exactly.

use std::path::Path;
use std::time::Instant;

use pex_core::CancelToken;
use pex_model::minics::{print_type, PrintOptions};
use pex_model::{Context, Database};
use pex_serve::json::{self, Value};
use pex_serve::proto::{self, Request, RequestDefaults};
use pex_serve::Snapshot;
use pex_types::TypeKind;

use crate::check::{answer_of, check_query_response, Verdict};
use crate::daemon::{check_accounting, Daemon};
use crate::util::{median, percentile, us_since, vm_hwm_mb, Ledger, Metrics, Rng, Windows};
use crate::{Env, Report};

/// Corpus scale of the generated project.
pub const SCALE: f64 = 0.2;
/// Fewest editable classes a project must offer.
const MIN_CLASSES: usize = 4;
/// Daemon boots per run; `setup_s` is their median.
const BOOTS: usize = 5;

/// Queries sent after every edit; `c` is a local of the edited class.
const QUERIES: &[&str] = &["?({c})", "c.?*m", "c.?f", "c.?m", "c.?*f"];

/// The project as one compilation unit per type, in declaration order.
pub struct Project {
    pub units: Vec<String>,
    /// Every edited class: its unit index, qualified name and its four
    /// variants in cycle order.
    pub edits: Vec<EditCycle>,
}

pub struct EditCycle {
    pub unit: usize,
    pub class: String,
    /// Body-only edit, signature edit, revert, re-sent (no-op).
    pub steps: [String; 4],
}

pub const STEP_NAMES: [&str; 4] = ["body", "signature", "revert", "noop"];

impl Project {
    /// The full source with unit `edited` replaced by `text`.
    pub fn source_with(&self, edited: Option<(usize, &str)>) -> String {
        let mut out = String::new();
        for (i, unit) in self.units.iter().enumerate() {
            match edited {
                Some((e, text)) if e == i => out.push_str(text),
                _ => out.push_str(unit),
            }
        }
        out
    }
}

/// The Table 1 `.NET`-profile project (not timed). Like `replay`, the
/// corpus is fixed and the seed orders the work: a corpus generated from
/// the seed offers between 3 and 7 editable classes, and the mix moved
/// query p99 by 30% from one seed to the next.
pub fn generate() -> Database {
    pex_corpus::table1_projects()
        .into_iter()
        .find(|p| p.name == ".NET")
        .expect("Table 1 lists .NET")
        .generate(SCALE)
}

/// A body-only edit: repeat one expression statement of a method body
/// (calls and assignments have no effect on the code model, so the
/// signature surface is unchanged).
fn body_edit(unit: &str) -> Option<String> {
    let lines: Vec<&str> = unit.lines().collect();
    let at = lines.iter().position(|l| {
        let t = l.trim_start();
        let tokens: Vec<&str> = t.split_whitespace().collect();
        l.starts_with("            ")
            && t.ends_with(';')
            && !t.starts_with("return")
            && !(tokens.len() > 2 && tokens[2] == "=" && tokens[1] != "=")
    })?;
    let mut out: Vec<&str> = lines[..=at].to_vec();
    out.push(lines[at]);
    out.extend(&lines[at + 1..]);
    Some(out.join("\n") + "\n")
}

/// A signature edit: change the return type of one bodiless `void`
/// method to `int`.
fn signature_edit(unit: &str) -> Option<String> {
    let lines: Vec<&str> = unit.lines().collect();
    let at = lines.iter().position(|l| {
        let t = l.trim_start();
        l.starts_with("        ")
            && !l.starts_with("         ")
            && t.ends_with(");")
            && t.split('(')
                .next()
                .is_some_and(|head| head.split_whitespace().rev().nth(1) == Some("void"))
    })?;
    let edited = lines[at].replacen(" void ", " int ", 1);
    let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    out[at] = edited;
    Some(out.join("\n") + "\n")
}

/// Prints the project and picks, in a seeded order, every class whose
/// unit offers both edits and whose edited units resolve.
pub fn prepare(db: &Database, seed: u64) -> Result<Project, String> {
    let mut units = Vec::new();
    let mut classes = Vec::new();
    for ty in db.types().iter() {
        let def = db.types().get(ty);
        if matches!(def.kind(), TypeKind::Primitive(_) | TypeKind::Void)
            || db.types().qualified_name(ty) == "System.Object"
        {
            continue;
        }
        classes.push(db.types().qualified_name(ty));
        units.push(print_type(db, ty, PrintOptions::default()));
    }
    let mut candidates: Vec<usize> = (0..units.len()).collect();
    Rng::new(seed).shuffle(&mut candidates);
    let mut project = Project {
        units,
        edits: Vec::new(),
    };
    let base = pex_model::minics::compile(&project.source_with(None))
        .map_err(|e| format!("the printed project does not compile: {e}"))?;
    for i in candidates {
        let original = &project.units[i];
        let Some(body) = body_edit(original) else {
            continue;
        };
        let Some(signature) = signature_edit(&body) else {
            continue;
        };
        let resolves = |unit: &str| pex_model::minics::apply_update(&base, unit).is_ok();
        if !resolves(&body) || !resolves(&signature) {
            continue;
        }
        project.edits.push(EditCycle {
            unit: i,
            class: classes[i].clone(),
            steps: [body, signature, original.clone(), original.clone()],
        });
    }
    if project.edits.len() < MIN_CLASSES {
        return Err(format!(
            "only {} editable classes in the project",
            project.edits.len()
        ));
    }
    Ok(project)
}

/// One request of a round, in send order.
pub enum Op {
    Edit { cycle: usize, step: usize },
    Query { cycle: usize, query: &'static str },
}

/// A round: every chosen class through its edit cycle, queries after
/// each edit.
pub fn round(project: &Project) -> Vec<Op> {
    let mut ops = Vec::new();
    for cycle in 0..project.edits.len() {
        for step in 0..4 {
            ops.push(Op::Edit { cycle, step });
            for &query in QUERIES {
                ops.push(Op::Query { cycle, query });
            }
        }
    }
    ops
}

/// One round's request lines (ids from 1), as the daemon receives them.
pub fn describe(project: &Project) -> String {
    let mut out = String::new();
    for (i, op) in round(project).iter().enumerate() {
        let id = i as u64 + 1;
        let line = match op {
            Op::Edit { cycle, step } => edit_line(id, &project.edits[*cycle].steps[*step]),
            Op::Query { cycle, query } => query_line(id, query, &project.edits[*cycle].class),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

pub fn query_line(id: u64, query: &str, class: &str) -> String {
    format!("{{\"id\":{id},\"query\":\"{query}\",\"limit\":10,\"locals\":[\"c:{class}\"]}}")
}

pub fn edit_line(id: u64, unit: &str) -> String {
    format!(
        "{{\"id\":{id},\"cmd\":\"update\",\"source\":\"{}\"}}",
        json::escape(unit)
    )
}

/// Checks an `update` answer: applied, a re-sent unit is a no-op, and a
/// body-only edit invalidates nothing.
fn check_edit(response: &str, id: u64, step: usize) -> Verdict {
    let doc = match json::parse(response) {
        Ok(doc) => doc,
        Err(e) => {
            return Verdict::Incorrect(format!("unparseable update response {response}: {e}"))
        }
    };
    if doc.get("id").and_then(Value::as_u64) != Some(id) {
        return Verdict::Incorrect(format!("response to another request: {response}"));
    }
    if doc.get("ok") != Some(&Value::Bool(true)) {
        return Verdict::Failed(format!("{} edit {id} failed: {response}", STEP_NAMES[step]));
    }
    let noop = doc.get("noop") == Some(&Value::Bool(true));
    if noop != (step == 3) {
        return Verdict::Incorrect(format!(
            "{} edit reported noop:{noop}: {response}",
            STEP_NAMES[step]
        ));
    }
    if step == 0 || step == 3 {
        let invalidated = doc.get("invalidated");
        let total: u64 = ["chains", "candidates", "conversions", "reach"]
            .iter()
            .map(|k| {
                invalidated
                    .and_then(|i| i.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(u64::MAX / 8)
            })
            .sum();
        if total != 0 {
            return Verdict::Incorrect(format!(
                "{} edit invalidated derived state: {response}",
                STEP_NAMES[step]
            ));
        }
    }
    Verdict::Ok
}

/// The answers a from-scratch build of `source` gives to `lines`.
fn scratch_answers(source: &str, lines: &[String]) -> Result<Vec<String>, String> {
    let db = pex_model::minics::compile(source).map_err(|e| format!("current source: {e}"))?;
    let snapshot = Snapshot::from_database("scratch".into(), db, Context::empty(), None);
    lines
        .iter()
        .map(|line| match proto::parse_request(line) {
            Ok(Request::Query(q)) => {
                let (response, _) = proto::execute(
                    &snapshot,
                    &q,
                    &RequestDefaults::default(),
                    &CancelToken::new(),
                    None,
                );
                Ok(answer_of(&response))
            }
            _ => Err(format!("not a query: {line}")),
        })
        .collect()
}

pub struct Outcome {
    pub windows: Windows,
    pub setup_s: f64,
    pub rss_mb: f64,
    pub queries: Ledger,
    pub edits: Ledger,
    pub checkpoints: usize,
    pub incorrect: Option<String>,
}

pub fn write_source(project: &Project, tmp: &Path) -> Result<std::path::PathBuf, String> {
    let path = tmp.join("project.mcs");
    std::fs::write(&path, project.source_with(None))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

pub fn run(env: &Env, seconds: f64, boots: usize) -> Result<Outcome, String> {
    let db = generate();
    let project = prepare(&db, env.seed)?;
    let source = write_source(&project, &env.tmp)?;
    let args = vec![source.display().to_string()];
    let (mut daemon, setup_s) = Daemon::boot_median(
        &env.serve_bin,
        &args,
        &env.socket(),
        &env.tmp.join("serve.log"),
        boots,
    )?;
    let mut conn = daemon.connect()?;
    let ops = round(&project);
    let mut o = Outcome {
        windows: Windows::start(seconds),
        setup_s,
        rss_mb: 0.0,
        queries: Ledger::default(),
        edits: Ledger::default(),
        checkpoints: 0,
        incorrect: None,
    };
    let mut id = 0u64;
    let mut rounds = 0;
    let mut expected: Vec<String> = Vec::new();
    for warm in [true, false] {
        o.windows = Windows::start(seconds);
        loop {
            // Query lines and answers since the last edit, kept for the
            // checkpoint after the first class's signature edit.
            let mut last_edit = None;
            let mut checkpoint: Vec<(String, String)> = Vec::new();
            for op in &ops {
                id += 1;
                let (line, edit_step) = match op {
                    Op::Edit { cycle, step } => (
                        edit_line(id, &project.edits[*cycle].steps[*step]),
                        Some(*step),
                    ),
                    Op::Query { cycle, query } => {
                        (query_line(id, query, &project.edits[*cycle].class), None)
                    }
                };
                daemon.lines_sent += 1;
                let t0 = Instant::now();
                let response = conn.call(&line)?;
                let us = us_since(t0);
                let verdict = match edit_step {
                    Some(step) => check_edit(response, id, step),
                    None => check_query_response(response, id, false),
                };
                let window = o.windows.current();
                let (ledger, samples) = match edit_step {
                    Some(_) => (&mut o.edits, &mut window.edit_us),
                    None => (&mut o.queries, &mut window.query_us),
                };
                match verdict {
                    Verdict::Incorrect(why) => {
                        o.incorrect.get_or_insert(why);
                    }
                    _ if warm => {}
                    Verdict::Failed(why) => ledger.fail(why),
                    Verdict::Ok => {
                        ledger.ok();
                        samples.push(us);
                    }
                }
                match op {
                    Op::Edit { cycle, step } => {
                        last_edit = Some((*cycle, *step));
                        checkpoint.clear();
                    }
                    Op::Query { .. } if last_edit == Some((0, 1)) => {
                        checkpoint.push((line, answer_of(response)));
                        if checkpoint.len() == QUERIES.len() {
                            // The rebuild is the same every round: build
                            // it once, compare every round.
                            if expected.is_empty() {
                                let cycle = &project.edits[0];
                                let source =
                                    project.source_with(Some((cycle.unit, &cycle.steps[1])));
                                let lines: Vec<String> =
                                    checkpoint.iter().map(|(l, _)| l.clone()).collect();
                                expected = scratch_answers(&source, &lines)?;
                            }
                            for ((line, got), want) in checkpoint.iter().zip(&expected) {
                                if got != want {
                                    o.incorrect.get_or_insert(format!(
                                        "after an edit, {line} answers {got}; a from-scratch build answers {want}"
                                    ));
                                }
                            }
                            o.checkpoints += 1;
                        }
                    }
                    Op::Query { .. } => {}
                }
            }
            if warm {
                break;
            }
            rounds += 1;
            if o.windows.end_round() {
                break;
            }
        }
    }
    let accounting = check_accounting(&mut daemon, &mut conn)?;
    o.rss_mb = vm_hwm_mb(&daemon.pid())?;
    drop(conn);
    daemon.shutdown()?;
    eprintln!(
        "edit-mix: {rounds} timed rounds of {} requests ({} edits), {} checkpoints, {} received by the daemon",
        ops.len(),
        ops.iter().filter(|op| matches!(op, Op::Edit { .. })).count(),
        o.checkpoints,
        accounting.received
    );
    Ok(o)
}

pub fn run_report(env: &Env, seconds: f64) -> Result<Report, String> {
    let o = run(env, seconds, BOOTS)?;
    let mut metrics = Metrics::default();
    report(&o, &mut metrics);
    let edits = o.windows.all_edits();
    eprintln!(
        "edit-mix: {} query samples, {} edit samples; edit p50 {:.1} us, p99 {:.1} us",
        o.windows.all_queries().len(),
        edits.len(),
        median(&edits),
        percentile(&edits, 0.99)
    );
    Ok(Report {
        metrics,
        ledgers: vec![("queries", o.queries), ("edits", o.edits)],
        incorrect: o.incorrect,
    })
}

pub fn report(o: &Outcome, m: &mut Metrics) {
    o.windows.report(m);
    m.put("setup_s", o.setup_s, "s");
    m.put("rss_peak_mb", o.rss_mb, "MB");
}
