//! `replay`: the paper's Section 5 replay, in-process and single-threaded.
//!
//! The seven Table 1 projects are the repository's fixed Table 1 corpus;
//! the seed sets the order in which their sites are replayed. (A corpus
//! generated from the seed moved throughput by about 10% and peak memory
//! by about 14% from one seed to the next, wider than any useful bound:
//! see the README.) Every call,
//! assignment and comparison site becomes the paper's queries (method
//! names from 1- and 2-argument subsets, each guessable argument, and
//! lookups stripped from assignments and comparisons), each asked at its
//! site's own context with abstract types, through `rank_of` with limit
//! 100. The site's own expression is the ground truth.

use std::time::Instant;

use pex_abstract::{ConstraintCache, MethodSweep};
use pex_core::{
    Completer, Completion, MethodIndex, PartialExpr, RankConfig, ReachIndex, SuffixKind,
};
use pex_experiments::extract::{extract, strip_lookups, trailing_lookups, Extracted};
use pex_model::{Context, Database, Expr, ExprKindName, MethodId};

use crate::util::{median, us_since, vm_hwm_mb, Ledger, Metrics, Rng, Windows};
use crate::{Env, Report};

/// Corpus scale relative to the paper's project sizes.
pub const SCALE: f64 = 0.02;
/// How deep `rank_of` looks for the intended expression (the paper's 100).
pub const LIMIT: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What a query is judged against.
pub enum Goal {
    /// Method-name queries: any call to the site's target counts.
    Calls(MethodId),
    /// Argument and lookup queries: exactly the site's expression.
    Exact(Expr),
}

impl Goal {
    pub fn matches(&self, c: &Completion) -> bool {
        match self {
            Goal::Calls(m) => matches!(&c.expr, Expr::Call(t, _) if t == m),
            Goal::Exact(e) => &c.expr == e,
        }
    }
}

pub struct Query {
    pub pe: PartialExpr,
    pub goal: Goal,
    /// Queries with the same key are one replayed site: the site counts
    /// as a top-10 hit when its best query ranks the goal in the top 10.
    pub site: usize,
}

/// All queries at one statement of one method.
pub struct Stop {
    pub stmt: usize,
    pub queries: Vec<Query>,
}

/// The queries of one enclosing method, in statement order, so one
/// abstract-type sweep serves them all.
pub struct Group {
    pub method: MethodId,
    pub stops: Vec<Stop>,
}

/// One project's derived state: everything `setup_s` times.
pub struct Project {
    pub name: &'static str,
    pub db: Database,
    pub index: MethodIndex,
    pub reach: ReachIndex,
    pub abs_cache: ConstraintCache,
    pub groups: Vec<Group>,
    pub sites: usize,
}

/// The seven Table 1 projects (not timed).
pub fn generate() -> Vec<(&'static str, Database)> {
    pex_corpus::table1_projects()
        .into_iter()
        .map(|profile| (profile.name, profile.generate(SCALE)))
        .collect()
}

/// The seeded replay order: projects, and methods within each project.
pub fn shuffle(projects: &mut [Project], seed: u64) {
    let mut rng = Rng::new(seed);
    for p in projects.iter_mut() {
        rng.shuffle(&mut p.groups);
    }
    rng.shuffle(projects);
}

fn m_suffix(base: Expr, layers: usize) -> PartialExpr {
    let mut pe = PartialExpr::Known(base);
    for _ in 0..layers {
        pe = PartialExpr::suffix(pe, SuffixKind::Method);
    }
    pe
}

/// The paper's queries for every extracted site of one project.
fn queries(db: &Database, extracted: &Extracted) -> (Vec<Group>, usize) {
    let mut by_site: Vec<(MethodId, usize, Query)> = Vec::new();
    let mut site = 0;
    for call in &extracted.calls {
        if call.args.len() >= 2 {
            let n = call.args.len();
            let mut subsets: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            for i in 0..n {
                for j in i + 1..n {
                    subsets.push(vec![i, j]);
                }
            }
            for subset in subsets {
                let args = subset
                    .iter()
                    .map(|&i| PartialExpr::Known(call.args[i].clone()))
                    .collect();
                by_site.push((
                    call.enclosing,
                    call.stmt,
                    Query {
                        pe: PartialExpr::UnknownCall(args),
                        goal: Goal::Calls(call.target),
                        site,
                    },
                ));
            }
            site += 1;
        }
        let original = Expr::Call(call.target, call.args.clone());
        for (i, arg) in call.args.iter().enumerate() {
            if arg.kind_name(|m, argc| db.is_zero_arg_call(m, argc)) == ExprKindName::NotGuessable {
                continue;
            }
            let args = call
                .args
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    if j == i {
                        PartialExpr::Hole
                    } else {
                        PartialExpr::Known(a.clone())
                    }
                })
                .collect();
            by_site.push((
                call.enclosing,
                call.stmt,
                Query {
                    pe: PartialExpr::KnownCall {
                        candidates: vec![call.target],
                        args,
                    },
                    goal: Goal::Exact(original.clone()),
                    site,
                },
            ));
            site += 1;
        }
    }
    let lookup_sites = extracted
        .assigns
        .iter()
        .map(|s| (s.enclosing, s.stmt, &s.expr))
        .chain(
            extracted
                .cmps
                .iter()
                .map(|s| (s.enclosing, s.stmt, &s.expr)),
        );
    for (enclosing, stmt, expr) in lookup_sites {
        // Strip one trailing lookup from one side and ask for it back
        // with `.?m` on both sides (Sec. 5.3).
        let (lhs, rhs) = match expr {
            Expr::Assign(l, r) | Expr::Cmp(_, l, r) => (l, r),
            _ => continue,
        };
        let sides = [(1usize, 0usize), (0, 1)];
        for (sl, sr) in sides {
            if trailing_lookups(db, lhs, 1) < sl || trailing_lookups(db, rhs, 1) < sr {
                continue;
            }
            let (Some(lb), Some(rb)) = (strip_lookups(db, lhs, sl), strip_lookups(db, rhs, sr))
            else {
                continue;
            };
            let pe = match expr {
                Expr::Assign(..) => PartialExpr::assign(m_suffix(lb, 1), m_suffix(rb, 1)),
                Expr::Cmp(op, ..) => PartialExpr::cmp(*op, m_suffix(lb, 1), m_suffix(rb, 1)),
                _ => unreachable!("filtered above"),
            };
            by_site.push((
                enclosing,
                stmt,
                Query {
                    pe,
                    goal: Goal::Exact(expr.clone()),
                    site,
                },
            ));
            site += 1;
        }
    }
    // Group by method (first-occurrence order), then by statement.
    let mut groups: Vec<Group> = Vec::new();
    for (method, stmt, query) in by_site {
        let gi = match groups.iter().position(|g| g.method == method) {
            Some(gi) => gi,
            None => {
                groups.push(Group {
                    method,
                    stops: Vec::new(),
                });
                groups.len() - 1
            }
        };
        let stops = &mut groups[gi].stops;
        match stops.iter_mut().find(|s| s.stmt == stmt) {
            Some(s) => s.queries.push(query),
            None => stops.push(Stop {
                stmt,
                queries: vec![query],
            }),
        }
    }
    for g in &mut groups {
        g.stops.sort_by_key(|s| s.stmt);
    }
    (groups, site)
}

/// Builds one project's index, reachability, constraint cache and query
/// sites: the work `setup_s` measures.
pub fn derive((name, db): (&'static str, Database)) -> Project {
    let index = MethodIndex::build(&db);
    let reach = ReachIndex::build(&db);
    let abs_cache = ConstraintCache::build(&db);
    let extracted = extract(&db);
    let (groups, sites) = queries(&db, &extracted);
    Project {
        name,
        db,
        index,
        reach,
        abs_cache,
        groups,
        sites,
    }
}

/// Every query of one replay round in the seeded order, one per line.
pub fn describe(seed: u64) -> String {
    let mut projects: Vec<Project> = generate().into_iter().map(derive).collect();
    shuffle(&mut projects, seed);
    let mut out = String::new();
    for p in &projects {
        for g in &p.groups {
            let method = p.db.method(g.method).name();
            for stop in &g.stops {
                for q in &stop.queries {
                    out.push_str(&format!(
                        "{}\t{method}\t{}\t{}\t{:?}\n",
                        p.name, stop.stmt, q.site, q.pe
                    ));
                }
            }
        }
    }
    out
}

/// One query's result: its latency and the goal's rank, if found.
pub struct Answer {
    pub us: f64,
    pub rank: Option<usize>,
    pub degraded: bool,
}

/// Replays every query of a project once, calling `sweep_us` with the time
/// of each abstract-type sweep step and `each` per query.
pub fn replay_project(
    p: &Project,
    mut sweep_us: impl FnMut(f64),
    mut each: impl FnMut(&Query, Answer),
) {
    for group in &p.groups {
        let body =
            p.db.method(group.method)
                .body()
                .expect("sites come from bodies");
        let mut sweep = MethodSweep::with_cache(&p.db, &p.abs_cache, group.method);
        for stop in &group.stops {
            let t0 = Instant::now();
            sweep.advance_to(stop.stmt);
            sweep_us(us_since(t0));
            let ctx = Context::at_statement(&p.db, group.method, body, stop.stmt);
            let completer =
                Completer::new(&p.db, &ctx, &p.index, RankConfig::all(), Some(sweep.abs()))
                    .with_reach(&p.reach);
            for q in &stop.queries {
                let t0 = Instant::now();
                let res = completer.rank_of(&q.pe, LIMIT, |c| q.goal.matches(c));
                let us = us_since(t0);
                each(
                    q,
                    Answer {
                        us,
                        rank: res.rank,
                        degraded: res.is_degraded(),
                    },
                );
            }
        }
    }
}

/// Top-10 hits of one full replay: sites whose best query ranks the
/// goal in the top 10.
pub struct Round {
    pub query_us: Vec<f64>,
    pub hits: usize,
    pub sites: usize,
    pub degraded: usize,
}

pub fn replay_round(projects: &[Project]) -> Round {
    let mut round = Round {
        query_us: Vec::new(),
        hits: 0,
        sites: 0,
        degraded: 0,
    };
    for p in projects {
        let mut best: Vec<Option<usize>> = vec![None; p.sites];
        replay_project(
            p,
            |_| {},
            |q, a| {
                round.query_us.push(a.us);
                round.degraded += usize::from(a.degraded);
                if let Some(r) = a.rank {
                    let b = &mut best[q.site];
                    *b = Some(b.map_or(r, |b| b.min(r)));
                }
            },
        );
        round.hits += best.iter().filter(|b| b.is_some_and(|r| r < 10)).count();
        round.sites += p.sites;
    }
    round
}

pub fn run_report(env: &Env, seconds: f64) -> Result<Report, String> {
    let dbs = generate();
    let mut setup_secs = Vec::new();
    let mut projects = Vec::new();
    for _ in 0..SETUPS {
        let copies = dbs.clone();
        let t0 = Instant::now();
        projects = copies.into_iter().map(derive).collect();
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    shuffle(&mut projects, env.seed);
    // One untimed round fills the lazily built caches.
    let warm = replay_round(&projects);
    let mut ledger = Ledger::default();
    let mut incorrect = None;
    let mut rounds = 0;
    let mut windows = Windows::start(seconds);
    loop {
        let round = replay_round(&projects);
        // Every round asks the same questions of the same code model, so
        // it must get the same answers.
        if round.hits != warm.hits || round.degraded != warm.degraded {
            incorrect.get_or_insert(format!(
                "replay is not deterministic: {} hits / {} degraded, then {} / {}",
                warm.hits, warm.degraded, round.hits, round.degraded
            ));
        }
        for _ in 0..round.query_us.len() {
            ledger.ok();
        }
        windows.current().query_us.extend(round.query_us);
        rounds += 1;
        if windows.end_round() {
            break;
        }
    }
    eprintln!(
        "replay: {rounds} timed rounds of {} queries over {} sites; {} top-10 hits, {} degraded per round",
        ledger.attempted / rounds,
        warm.sites,
        warm.hits,
        warm.degraded
    );
    let mut metrics = Metrics::default();
    windows.report(&mut metrics);
    metrics.put("setup_s", median(&setup_secs), "s");
    metrics.put("rss_peak_mb", vm_hwm_mb("self")?, "MB");
    Ok(Report {
        metrics,
        ledgers: vec![("queries", ledger)],
        incorrect,
    })
}
