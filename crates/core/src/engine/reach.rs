//! The type-reachability index the paper proposes but does not implement
//! (Section 4.2):
//!
//! > "queries for multiple field lookups could also be made more efficient
//! > using an index that indicates for each type which types are reachable
//! > by a `.?*f` or `.?*m` query \[and\] how many lookups are needed."
//!
//! [`ReachIndex`] precomputes, for every type and both link kinds, the
//! minimum number of lookups to every reachable type. During a filtered
//! chain search the engine can then prune a state whose type cannot reach
//! any admissible type within the remaining link budget.
//!
//! The index is a **sound over-approximation**: it includes private members
//! regardless of context, so it never prunes a state the search could
//! still complete — pruning changes performance, never results (a property
//! tested in `tests/prop_engine.rs` and enforced by the ablation bench).

use std::collections::HashMap;
use std::sync::Arc;

use pex_model::Database;
use pex_types::wire::{Reader, WireError, WireResult, Writer};
use pex_types::TypeId;

use super::chains::{ChainLink, TypeFilter};

/// Per-type minimum-lookup reachability, for both link kinds.
///
/// The tables are immutable once built and sit behind `Arc`s, so cloning
/// the index is O(1): an incremental update that leaves reachability
/// untouched shares it with the updated snapshot.
#[derive(Debug, Clone)]
pub struct ReachIndex {
    fields: Arc<[HashMap<TypeId, u32>]>,
    fields_and_methods: Arc<[HashMap<TypeId, u32>]>,
}

impl ReachIndex {
    /// Builds the index over every type in the database.
    pub fn build(db: &Database) -> Self {
        let n = db.types().len();
        let mut field_edges: Vec<Vec<TypeId>> = vec![Vec::new(); n];
        let mut method_edges: Vec<Vec<TypeId>> = vec![Vec::new(); n];
        for ty in db.types().iter() {
            for owner in db.member_lookup_chain(ty) {
                for &f in db.fields_of(owner) {
                    let fd = db.field(f);
                    if !fd.is_static() {
                        field_edges[ty.index()].push(fd.ty());
                    }
                }
                for &m in db.methods_of(owner) {
                    let md = db.method(m);
                    if !md.is_static()
                        && md.params().is_empty()
                        && md.return_type() != db.types().void_ty()
                    {
                        method_edges[ty.index()].push(md.return_type());
                    }
                }
            }
        }
        let bfs = |extra: Option<&Vec<Vec<TypeId>>>| -> Vec<HashMap<TypeId, u32>> {
            (0..n)
                .map(|start| {
                    let mut dist: HashMap<TypeId, u32> = HashMap::new();
                    let start_ty = TypeId::from_index(start);
                    dist.insert(start_ty, 0);
                    let mut queue = std::collections::VecDeque::new();
                    queue.push_back(start_ty);
                    while let Some(t) = queue.pop_front() {
                        let d = dist[&t];
                        let push = |next: TypeId, dist_map: &mut HashMap<TypeId, u32>,
                                        queue: &mut std::collections::VecDeque<TypeId>| {
                            if let std::collections::hash_map::Entry::Vacant(slot) =
                                dist_map.entry(next)
                            {
                                slot.insert(d + 1);
                                queue.push_back(next);
                            }
                        };
                        for &next in &field_edges[t.index()] {
                            push(next, &mut dist, &mut queue);
                        }
                        if let Some(method_edges) = extra {
                            for &next in &method_edges[t.index()] {
                                push(next, &mut dist, &mut queue);
                            }
                        }
                    }
                    dist
                })
                .collect()
        };
        ReachIndex {
            fields: bfs(None).into(),
            fields_and_methods: bfs(Some(&method_edges)).into(),
        }
    }

    /// Serializes the index for the persistent snapshot. Entries of each
    /// per-type map are written in type-id order so identical indexes
    /// serialize to identical bytes.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        let encode_maps = |maps: &[HashMap<TypeId, u32>], w: &mut Writer| {
            w.put_len(maps.len());
            for map in maps {
                let mut entries: Vec<(&TypeId, &u32)> = map.iter().collect();
                entries.sort_unstable_by_key(|(ty, _)| **ty);
                w.put_len(entries.len());
                for (ty, d) in entries {
                    w.put_u32(ty.index() as u32);
                    w.put_u32(*d);
                }
            }
        };
        encode_maps(&self.fields, w);
        encode_maps(&self.fields_and_methods, w);
    }

    /// Decodes an index written by [`ReachIndex::encode_snapshot`] for a
    /// table of `n_types` types, bounds-checking every id.
    pub fn decode_snapshot(r: &mut Reader<'_>, n_types: usize) -> WireResult<Self> {
        let mut decode_maps = |what: &str| -> WireResult<Vec<HashMap<TypeId, u32>>> {
            let n = r.get_len(what)?;
            if n != n_types {
                return Err(WireError::new(format!(
                    "{what}: covers {n} types but the table holds {n_types}"
                )));
            }
            let mut maps = Vec::with_capacity(n);
            for _ in 0..n {
                let entries = r.get_len("reachability entry count")?;
                let mut map = HashMap::with_capacity(entries);
                for _ in 0..entries {
                    let ty = TypeId::from_index(r.get_id(n_types, "reachable type")?);
                    let d = r.get_u32("lookup distance")?;
                    if map.insert(ty, d).is_some() {
                        return Err(WireError::new(format!(
                            "duplicate reachability entry for type {}",
                            ty.index()
                        )));
                    }
                }
                maps.push(map);
            }
            Ok(maps)
        };
        let fields = decode_maps("field reachability map count")?;
        let fields_and_methods = decode_maps("field+method reachability map count")?;
        Ok(ReachIndex {
            fields: fields.into(),
            fields_and_methods: fields_and_methods.into(),
        })
    }

    /// Whether two indexes share their tables (see
    /// [`super::MethodIndex::shares_tables_with`]).
    pub fn shares_tables_with(&self, other: &ReachIndex) -> bool {
        Arc::ptr_eq(&self.fields, &other.fields)
            && Arc::ptr_eq(&self.fields_and_methods, &other.fields_and_methods)
    }

    /// Minimum lookups from `from` to `to` with the given link kind, if
    /// reachable at all (`Some(0)` when `from == to`).
    pub fn min_lookups(&self, kind: ChainLink, from: TypeId, to: TypeId) -> Option<u32> {
        self.map(kind, from).get(&to).copied()
    }

    /// All types reachable from `from` with their minimum lookup counts.
    pub fn reachable(&self, kind: ChainLink, from: TypeId) -> &HashMap<TypeId, u32> {
        self.map(kind, from)
    }

    fn map(&self, kind: ChainLink, from: TypeId) -> &HashMap<TypeId, u32> {
        match kind {
            ChainLink::Fields => &self.fields[from.index()],
            ChainLink::FieldsAndMethods => &self.fields_and_methods[from.index()],
        }
    }

    /// Builds the pruning table for one `(filter, link kind)` pair:
    /// `admissible` is the set of types whose values pass the filter, and
    /// `dist` the per-type minimum lookups to any of them. The table
    /// depends only on the database — never on the query's root
    /// expressions or scores — so [`ReachMemo`] shares it across queries.
    pub(crate) fn pruner(
        &self,
        db: &Database,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<ReachPruner> {
        if filter.is_any() {
            return None; // nothing to prune against
        }
        let mut admissible = vec![false; db.types().len()];
        for ty in db.types().iter() {
            if filter.admits(db, ty) {
                admissible[ty.index()] = true;
            }
        }
        let dist = (0..db.types().len())
            .map(|i| {
                self.reachable(kind, TypeId::from_index(i))
                    .iter()
                    .filter(|(t, _)| admissible[t.index()])
                    .map(|(_, d)| *d)
                    .min()
                    .unwrap_or(DIST_UNREACHABLE)
            })
            .collect();
        Some(ReachPruner { admissible, dist })
    }
}

/// [`ReachPruner::min_links`]'s sentinel: no admissible type is reachable
/// from this one at all. Larger than any real remaining-link budget, so a
/// plain `≤ remaining` comparison also rejects unreachable types.
pub(crate) const DIST_UNREACHABLE: u32 = u32::MAX;

/// A pruning oracle for one `(filter, link kind)` pair (see
/// [`ReachIndex::pruner`]): every probe is an O(1) table lookup.
#[derive(Debug)]
pub(crate) struct ReachPruner {
    admissible: Vec<bool>,
    dist: Vec<u32>,
}

impl ReachPruner {
    /// Whether values of `ty` pass the query's filter directly (zero
    /// further lookups) — the precomputed `filter.admits` verdict.
    pub(crate) fn is_admissible(&self, ty: TypeId) -> bool {
        self.admissible[ty.index()]
    }

    /// Minimum number of links from `ty` to *any* admissible type, or
    /// [`DIST_UNREACHABLE`]. Because the index stores shortest distances,
    /// every admissible completion growing from a `ty` state appends at
    /// least this many links — which makes `link_cost × min_links` an
    /// admissible A* heuristic for the best-first search, and
    /// `min_links ≤ remaining links` the viability test for enqueueing a
    /// chain state.
    pub(crate) fn min_links(&self, ty: TypeId) -> u32 {
        self.dist[ty.index()]
    }

    /// [`ReachPruner::min_links`] as an option (`None` = unreachable).
    #[cfg(test)]
    pub(crate) fn min_to_admissible(&self, ty: TypeId) -> Option<u32> {
        match self.min_links(ty) {
            DIST_UNREACHABLE => None,
            d => Some(d),
        }
    }
}

/// Canonical identity of a [`TypeFilter`] for memo keys. `Any` filters
/// never build a pruner, so only the narrowing variants appear.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FilterKey {
    OneOf(Vec<TypeId>),
    Ordered,
}

impl FilterKey {
    fn of(filter: &TypeFilter) -> Option<Self> {
        match filter {
            TypeFilter::Any => None,
            TypeFilter::OneOf(tys) => {
                let mut tys = tys.clone();
                tys.sort_unstable();
                tys.dedup();
                Some(FilterKey::OneOf(tys))
            }
            TypeFilter::Ordered => Some(FilterKey::Ordered),
        }
    }
}

/// Cross-query memo of pruning tables per `(link kind, filter)` — the
/// reach-index sibling of [`super::memo::SuccessorMemo`], living in
/// [`super::EngineCache`]. Query streams over the same expected type (the
/// common case for a serve snapshot answering a hot completion site)
/// share one table instead of re-deriving `filter.admits` for every type
/// and re-scanning reachable sets per query.
#[derive(Debug, Default)]
pub(crate) struct ReachMemo {
    entries: std::sync::RwLock<
        std::collections::HashMap<(ChainLink, FilterKey), std::sync::Arc<ReachPruner>>,
    >,
}

impl ReachMemo {
    /// The shared pruning table for this `(kind, filter)` — built on first
    /// request, an `Arc` clone thereafter. `None` for unfiltered queries.
    pub(crate) fn pruner(
        &self,
        index: &ReachIndex,
        db: &Database,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<std::sync::Arc<ReachPruner>> {
        let key = (kind, FilterKey::of(filter)?);
        if let Some(hit) = self.entries.read().expect("reach memo lock").get(&key) {
            pex_obs::counter!("engine.reach.memo.hits", 1);
            return Some(std::sync::Arc::clone(hit));
        }
        let table = std::sync::Arc::new(index.pruner(db, kind, filter)?);
        pex_obs::counter!("engine.reach.memo.fills", 1);
        let mut entries = self.entries.write().expect("reach memo lock");
        Some(std::sync::Arc::clone(entries.entry(key).or_insert(table)))
    }

    /// Clones the memo for an incremental update that left reachability
    /// and conversions untouched — every pruner table stays valid, so the
    /// new snapshot shares the `Arc`s instead of re-deriving them.
    pub(crate) fn carry(&self) -> ReachMemo {
        ReachMemo {
            entries: std::sync::RwLock::new(self.entries.read().expect("reach memo lock").clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;

    fn db() -> Database {
        compile(
            r#"
            namespace N {
                struct Point { int X; }
                class Line {
                    N.Point P1;
                    double GetLength();
                }
                class Canvas {
                    N.Line Selected;
                }
                class Island { bool Flag; }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn min_lookups_follow_the_field_graph() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let int = db.types().int_ty();
        let double = db.types().double_ty();

        let k = ChainLink::Fields;
        assert_eq!(reach.min_lookups(k, canvas, canvas), Some(0));
        assert_eq!(reach.min_lookups(k, canvas, line), Some(1));
        assert_eq!(reach.min_lookups(k, canvas, point), Some(2));
        assert_eq!(reach.min_lookups(k, canvas, int), Some(3));
        // double is only reachable through GetLength(), a method link.
        assert_eq!(reach.min_lookups(k, canvas, double), None);
        assert_eq!(
            reach.min_lookups(ChainLink::FieldsAndMethods, canvas, double),
            Some(2)
        );
    }

    #[test]
    fn unreachable_types_are_absent() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let island = db.types().lookup_qualified("N.Island").unwrap();
        assert_eq!(
            reach.min_lookups(ChainLink::FieldsAndMethods, canvas, island),
            None
        );
        // But the island reaches its own bool field.
        assert_eq!(
            reach.min_lookups(ChainLink::Fields, island, db.types().bool_ty()),
            Some(1)
        );
    }

    #[test]
    fn pruner_respects_budget_and_admissibility() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let int = db.types().int_ty();
        let filter = TypeFilter::one_of(vec![int]);
        let pruner = reach
            .pruner(&db, ChainLink::Fields, &filter)
            .expect("filter is narrow");
        // The stream's viability test is `min_to_admissible ≤ remaining`:
        // a canvas state survives a 3-link budget but not a 2-link one.
        let d = pruner.min_to_admissible(canvas).expect("int is reachable");
        assert!(d <= 3, "int reachable in exactly 3");
        assert!(d > 2, "not within 2");
        // An unfiltered query has no pruner (nothing to prune against).
        assert!(reach
            .pruner(&db, ChainLink::Fields, &TypeFilter::any())
            .is_none());
    }

    #[test]
    fn min_to_admissible_is_the_shortest_admissible_distance() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let island = db.types().lookup_qualified("N.Island").unwrap();
        let int = db.types().int_ty();
        let filter = TypeFilter::one_of(vec![int]);
        let pruner = reach
            .pruner(&db, ChainLink::Fields, &filter)
            .expect("filter is narrow");
        assert_eq!(pruner.min_to_admissible(canvas), Some(3));
        assert_eq!(pruner.min_to_admissible(line), Some(2));
        assert_eq!(pruner.min_to_admissible(int), Some(0));
        assert_eq!(pruner.min_to_admissible(island), None);
    }
}
