//! Output checks that hold for any correct answer, not a copy of one
//! run's output: score order, explain sums, and (see `layers`) Fig. 6
//! derivability.

use pex_serve::json::{self, Value};

pub enum Verdict {
    Ok,
    /// The request was not answered as asked (error or degraded answer):
    /// a failed operation.
    Failed(String),
    /// An answered request broke an invariant: an incorrect output.
    Incorrect(String),
}

/// Checks one query response: it answers request `id`, is `ok` and not
/// degraded, lists scores in non-decreasing order, and, when `explain`
/// was asked for, each breakdown's terms sum to the completion's score.
pub fn check_query_response(response: &str, id: u64, explain: bool) -> Verdict {
    let doc = match json::parse(response) {
        Ok(doc) => doc,
        Err(e) => return Verdict::Incorrect(format!("unparseable response {response}: {e}")),
    };
    if doc.get("id").and_then(Value::as_u64) != Some(id) {
        return Verdict::Incorrect(format!("response to another request: {response}"));
    }
    if doc.get("ok") != Some(&Value::Bool(true)) {
        return Verdict::Failed(format!("request {id} failed: {response}"));
    }
    if doc.get("degraded") != Some(&Value::Bool(false)) {
        return Verdict::Failed(format!("request {id} degraded: {response}"));
    }
    let Some(Value::Arr(completions)) = doc.get("completions") else {
        return Verdict::Incorrect(format!("no completions array: {response}"));
    };
    let mut last = 0;
    for c in completions {
        let Some(score) = c.get("score").and_then(Value::as_u64) else {
            return Verdict::Incorrect(format!("completion without a score: {response}"));
        };
        if score < last {
            return Verdict::Incorrect(format!("scores out of order: {response}"));
        }
        last = score;
        if !explain {
            continue;
        }
        let Some(Value::Obj(terms)) = c.get("explain") else {
            return Verdict::Incorrect(format!("explain missing: {response}"));
        };
        let mut sum = 0;
        let mut total = None;
        for (term, v) in terms {
            let Some(v) = v.as_u64() else {
                return Verdict::Incorrect(format!("non-integer explain term: {response}"));
            };
            if term == "total" {
                total = Some(v);
            } else {
                sum += v;
            }
        }
        if sum != score || total != Some(score) {
            return Verdict::Incorrect(format!(
                "explain terms do not sum to the score: {response}"
            ));
        }
    }
    Verdict::Ok
}

/// The part of a query response that must not depend on how the
/// snapshot was built: outcome and completions (expr, score, explain).
/// Latency and trace ids are left out.
pub fn answer_of(response: &str) -> String {
    match json::parse(response) {
        Ok(doc) => format!(
            "{} {}",
            doc.get("outcome").map(Value::to_string).unwrap_or_default(),
            doc.get("completions")
                .map(Value::to_string)
                .unwrap_or_default()
        ),
        Err(e) => format!("unparseable: {e}"),
    }
}
