//! Property test: an incrementally updated snapshot is indistinguishable
//! from a from-scratch rebuild.
//!
//! A random sequence of edits — body edits, signature changes, member
//! additions and removals, hierarchy flips, and no-op rewrites — is
//! applied one `Snapshot::apply_update` at a time. After the whole
//! sequence, every query must answer **byte-identically** (rendered
//! exprs, scores, per-term explain breakdowns, and the `QueryOutcome`
//! label) against:
//!
//! 1. a from-scratch compile of the final source (pins end-to-end model
//!    equivalence — additions are constrained to the last-declared class
//!    so both paths mint member ids in the same relative order), and
//! 2. a cold `Snapshot::from_database` over the *incremental* database
//!    (pins surgical cache invalidation alone: whatever survived in the
//!    memo tables must agree with empty caches).
//!
//! The model and index the updates patched in place are pinned directly
//! too: every method's override edge matches the from-scratch compile
//! (updates re-link only the chains an edit touches), and every method
//! index row matches `MethodIndex::build` of the final model (updates
//! rewrite only the changed methods' rows).
//!
//! The final comparison runs from several threads sharing the one
//! incremental `EngineCache`, so concurrently filled memo cells are
//! exercised too.

use std::sync::Arc;

use proptest::prelude::*;

use pex_core::{Completer, MethodIndex, RankConfig};
use pex_model::{Context, Database};
use pex_serve::snapshot::Snapshot;

/// Everything the generated corpus can be at one instant. Each class
/// renders to its own compilation unit; the full source is their concat.
#[derive(Debug, Clone, PartialEq)]
struct World {
    /// Which body variant `Alpha.GetSeed` currently has (0..3).
    alpha_body: usize,
    /// `Alpha.Rank()` returns `int` (true) or `double` (false).
    alpha_rank_int: bool,
    /// `Alpha.Weigh` takes an `int` (true) or a `double` (false); only the
    /// `int` form is overridden by `Beta.Weigh(int)` when `Beta : Alpha`.
    alpha_weigh_int: bool,
    /// Whether `Beta` derives from `Alpha`.
    beta_based: bool,
    /// How many `Extra<n>` methods `Gamma` carries (a stack: additions
    /// push, removals pop, so member-id order matches a from-scratch
    /// compile of the final source).
    gamma_extras: usize,
}

impl World {
    fn initial() -> World {
        World {
            alpha_body: 0,
            alpha_rank_int: true,
            alpha_weigh_int: true,
            beta_based: false,
            gamma_extras: 0,
        }
    }

    fn alpha_unit(&self) -> String {
        let body = match self.alpha_body {
            0 => "return Seed;",
            1 => "return Inc.Alpha.Answer(Seed);",
            _ => "return Inc.Alpha.Answer(Inc.Alpha.Answer(Seed));",
        };
        let rank_ret = if self.alpha_rank_int { "int" } else { "double" };
        let weigh = if self.alpha_weigh_int {
            "int"
        } else {
            "double"
        };
        format!(
            "namespace Inc {{\n    class Alpha {{\n        int Seed;\n        static int Answer(int x) {{ return x; }}\n        {rank_ret} Rank();\n        int Weigh({weigh} k);\n        int GetSeed() {{ {body} }}\n    }}\n}}\n"
        )
    }

    fn beta_unit(&self) -> String {
        let base = if self.beta_based { " : Alpha" } else { "" };
        format!(
            "namespace Inc {{\n    class Beta{base} {{\n        double Scale;\n        Inc.Beta Pair(Inc.Alpha other);\n        int Weigh(int k);\n        int Rank();\n    }}\n}}\n"
        )
    }

    fn gamma_unit(&self) -> String {
        let mut members = String::from("        Inc.Alpha First();\n");
        for n in 1..=self.gamma_extras {
            // Alternate shapes so added members genuinely differ.
            if n % 2 == 1 {
                members.push_str(&format!("        Inc.Beta Extra{n}();\n"));
            } else {
                members.push_str(&format!("        int Extra{n}(Inc.Gamma g);\n"));
            }
        }
        format!("namespace Inc {{\n    class Gamma {{\n{members}    }}\n}}\n")
    }

    /// The complete corpus at this instant, for from-scratch compiles.
    fn full_source(&self) -> String {
        format!(
            "{}{}{}",
            self.alpha_unit(),
            self.beta_unit(),
            self.gamma_unit()
        )
    }
}

/// One generated edit step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Edit {
    /// Rewrite `Alpha.GetSeed`'s body to the given variant (a no-op
    /// rewrite when it already has that variant).
    Body(usize),
    /// Flip `Alpha.Rank`'s return type: a signature change, same id.
    RankFlip,
    /// Flip `Alpha.Weigh`'s parameter type: a signature change that moves
    /// `Beta.Weigh`'s override edge without touching `Beta`.
    WeighFlip,
    /// Toggle `Beta : Alpha`: a hierarchy (and reachability) change.
    BaseToggle,
    /// Append an `Extra<n>` method to `Gamma` (the last-declared class).
    Push,
    /// Remove the most recently added `Extra<n>` (no-op when none).
    Pop,
    /// Resend a unit verbatim: must be a counted no-op.
    NoopRewrite,
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let edit = (0usize..7, 0usize..3).prop_map(|(kind, variant)| match kind {
        0 => Edit::Body(variant),
        1 => Edit::RankFlip,
        2 => Edit::BaseToggle,
        3 => Edit::Push,
        4 => Edit::Pop,
        5 => Edit::WeighFlip,
        _ => Edit::NoopRewrite,
    });
    proptest::collection::vec(edit, 1..10)
}

const LOCALS: &[&str] = &["a:Inc.Alpha", "b:Inc.Beta", "g:Inc.Gamma"];

const QUERIES: &[&str] = &[
    "?",
    "a.?f",
    "a.?*m",
    "b.?*f",
    "g.?m",
    "?({a, b})",
    "?({g, a})",
];

/// Renders every query's full answer — outcome label, then per-completion
/// expr, score, and explain terms — as one comparable string per query.
fn answers(snap: &Snapshot, ctx: &Context) -> Vec<String> {
    let completer = Completer::new(&snap.db, ctx, &snap.index, RankConfig::all(), None)
        .with_reach(&snap.reach)
        .with_cache(&snap.cache);
    QUERIES
        .iter()
        .map(|q| match pex_core::parse_partial(&snap.db, ctx, q) {
            Err(e) => format!("{q} => parse error: {e}"),
            Ok(pq) => {
                let (completions, outcome) = completer.complete_with_outcome(&pq, 10);
                let mut line = format!("{q} => {}:", outcome.label());
                for c in &completions {
                    let b = completer
                        .explain(c)
                        .expect("the engine explains its own completions");
                    let terms: String = b
                        .terms
                        .iter()
                        .map(|(t, v)| format!("{}{v}", t.code()))
                        .collect();
                    line.push_str(&format!(" {}#{}[{terms}]", completer.render(c), c.score));
                }
                line
            }
        })
        .collect()
}

fn scratch_snapshot(source: &str) -> Snapshot {
    let db = pex_model::minics::compile(source).expect("final source compiles");
    Snapshot::from_database("scratch".to_owned(), db, Context::empty(), None)
}

/// Every live method's override edge, by qualified name (member ids of
/// the incremental and the from-scratch model may differ after removals).
fn override_edges(db: &Database) -> Vec<(String, Option<String>)> {
    let mut edges: Vec<_> = db
        .methods()
        .map(|m| {
            let base = db.method(m).overrides();
            (
                db.qualified_method_name(m),
                base.map(|b| db.qualified_method_name(b)),
            )
        })
        .collect();
    edges.sort();
    edges
}

/// The index an update patched row by row equals a fresh build's rows.
fn assert_rows_match_a_fresh_build(index: &MethodIndex, db: &Database) {
    let fresh = MethodIndex::build(db);
    assert_eq!(index.all_with_args(), fresh.all_with_args());
    for ty in db.types().iter() {
        assert_eq!(
            index.exact(ty),
            fresh.exact(ty),
            "row of {}",
            db.types().qualified_name(ty)
        );
        assert_eq!(
            index.candidates_for_cached(db, ty),
            fresh.candidates_for(db, ty).as_slice()
        );
    }
}

fn locals() -> Vec<String> {
    LOCALS.iter().map(|s| (*s).to_owned()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn edited_snapshots_answer_like_a_from_scratch_rebuild(seq in edits()) {
        let mut world = World::initial();
        let mut snap = Arc::new(scratch_snapshot(&world.full_source()));

        for edit in &seq {
            let mut next = world.clone();
            let unit = match edit {
                Edit::Body(v) => {
                    next.alpha_body = *v;
                    next.alpha_unit()
                }
                Edit::RankFlip => {
                    next.alpha_rank_int = !next.alpha_rank_int;
                    next.alpha_unit()
                }
                Edit::WeighFlip => {
                    next.alpha_weigh_int = !next.alpha_weigh_int;
                    next.alpha_unit()
                }
                Edit::BaseToggle => {
                    next.beta_based = !next.beta_based;
                    next.beta_unit()
                }
                Edit::Push => {
                    next.gamma_extras += 1;
                    next.gamma_unit()
                }
                Edit::Pop => {
                    next.gamma_extras = next.gamma_extras.saturating_sub(1);
                    next.gamma_unit()
                }
                Edit::NoopRewrite => world.alpha_unit(),
            };
            let expect_noop = next == world;
            let (patched, stats) = snap
                .apply_update(&unit)
                .unwrap_or_else(|e| panic!("update failed for {edit:?}: {e}\n{unit}"));
            prop_assert_eq!(stats.noop, expect_noop, "noop detection for {:?}", edit);
            if expect_noop {
                // A no-op must leave the snapshot untouched and count
                // zero invalidations.
                prop_assert!(patched.is_none());
                prop_assert_eq!(stats.invalidated.total(), 0);
            } else {
                if matches!(edit, Edit::Body(_)) {
                    // The tentpole guarantee: a signature-identical body
                    // edit invalidates nothing beyond the edited body.
                    prop_assert_eq!(
                        stats.invalidated.total(), 0,
                        "body edit must not invalidate derived state"
                    );
                    prop_assert!(!stats.invalidated.reach_rebuilt);
                }
                snap = Arc::new(patched.expect("non-noop update yields a snapshot"));
            }
            world = next;
            // The edges and rows an update patched in place match a fresh
            // compile and a fresh index after every step.
            let scratch = pex_model::minics::compile(&world.full_source()).unwrap();
            prop_assert_eq!(override_edges(&snap.db), override_edges(&scratch), "after {:?}", edit);
            assert_rows_match_a_fresh_build(&snap.index, &snap.db);
        }

        // 1. Byte-identical to a from-scratch compile of the final source.
        let scratch = scratch_snapshot(&world.full_source());
        let scratch_ctx = scratch.context_for(&locals()).unwrap();
        let expected = answers(&scratch, &scratch_ctx);
        let inc_ctx = snap.context_for(&locals()).unwrap();
        prop_assert_eq!(&answers(&snap, &inc_ctx), &expected);

        // 2. Surviving memo entries agree with a cold rebuild over the
        //    *same* database — surgical invalidation kept nothing stale.
        let cold = Snapshot::from_database(
            "cold".to_owned(),
            snap.db.clone(),
            Context::empty(),
            None,
        );
        let cold_ctx = cold.context_for(&locals()).unwrap();
        prop_assert_eq!(&answers(&cold, &cold_ctx), &expected);

        // 3. The same answers hold from threads sharing one EngineCache.
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let snap = Arc::clone(&snap);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let ctx = snap.context_for(&locals()).unwrap();
                    assert_eq!(answers(&snap, &ctx), expected);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker thread panicked");
        }
    }
}
