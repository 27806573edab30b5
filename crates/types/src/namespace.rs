//! Interned namespace paths and the common-prefix computation used by the
//! ranking function's *common namespace* term (paper Section 4.1).

use std::collections::HashMap;
use std::fmt;

use crate::wire::{Reader, WireError, WireResult, Writer};
use crate::NamespaceId;

/// Arena of interned namespace paths.
///
/// A namespace is a dotted path such as `System.Collections`, stored as a
/// list of segments. The empty path is the global namespace and is always
/// present with id [`NamespaceId::GLOBAL`].
///
/// The paper's ranking function treats namespaces as lists of strings and
/// scores method calls by the length of the common prefix of the namespaces
/// of all participating non-primitive types; [`Namespaces::common_prefix_len`]
/// implements that computation.
#[derive(Debug, Clone, Default)]
pub struct Namespaces {
    paths: Vec<Vec<String>>,
    by_path: HashMap<Vec<String>, NamespaceId>,
}

impl Namespaces {
    /// Creates an arena containing only the global namespace.
    pub fn new() -> Self {
        let mut ns = Namespaces {
            paths: Vec::new(),
            by_path: HashMap::new(),
        };
        let id = ns.intern(&[] as &[&str]);
        debug_assert_eq!(id, NamespaceId::GLOBAL);
        ns
    }

    /// Interns a namespace path given as segments, returning its id.
    /// Re-interning an existing path returns the same id.
    pub fn intern<S: AsRef<str>>(&mut self, segments: &[S]) -> NamespaceId {
        let key: Vec<String> = segments.iter().map(|s| s.as_ref().to_owned()).collect();
        if let Some(&id) = self.by_path.get(&key) {
            return id;
        }
        let id = NamespaceId(self.paths.len() as u32);
        self.paths.push(key.clone());
        self.by_path.insert(key, id);
        id
    }

    /// Interns a dotted path such as `"System.Collections"`. The empty string
    /// interns the global namespace.
    pub fn intern_dotted(&mut self, dotted: &str) -> NamespaceId {
        if dotted.is_empty() {
            return NamespaceId::GLOBAL;
        }
        let segs: Vec<&str> = dotted.split('.').collect();
        self.intern(&segs)
    }

    /// Looks up a previously interned path, given as segments, without
    /// interning it.
    pub fn lookup<S: AsRef<str>>(&self, segments: &[S]) -> Option<NamespaceId> {
        let key: Vec<String> = segments.iter().map(|s| s.as_ref().to_owned()).collect();
        self.by_path.get(&key).copied()
    }

    /// Looks up a previously interned dotted path without interning it.
    pub fn lookup_dotted(&self, dotted: &str) -> Option<NamespaceId> {
        let key: Vec<String> = if dotted.is_empty() {
            Vec::new()
        } else {
            dotted.split('.').map(str::to_owned).collect()
        };
        self.by_path.get(&key).copied()
    }

    /// The segments of a namespace path.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn segments(&self, id: NamespaceId) -> &[String] {
        &self.paths[id.index()]
    }

    /// Renders a namespace as a dotted string (empty for the global one).
    pub fn dotted(&self, id: NamespaceId) -> String {
        self.segments(id).join(".")
    }

    /// Depth (number of segments) of a namespace path.
    pub fn depth(&self, id: NamespaceId) -> usize {
        self.segments(id).len()
    }

    /// Number of interned namespaces, including the global one.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether only the global namespace exists.
    pub fn is_empty(&self) -> bool {
        self.paths.len() <= 1
    }

    /// Iterates over all interned namespace ids.
    pub fn iter(&self) -> impl Iterator<Item = NamespaceId> + '_ {
        (0..self.paths.len() as u32).map(NamespaceId)
    }

    /// Length of the longest common prefix of the paths of two namespaces.
    pub fn common_prefix_len2(&self, a: NamespaceId, b: NamespaceId) -> usize {
        let (pa, pb) = (self.segments(a), self.segments(b));
        pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count()
    }

    /// Length of the longest common prefix over a set of namespaces.
    ///
    /// Returns the depth of the sole namespace when the iterator yields one
    /// element, and `0` when it yields none.
    pub fn common_prefix_len<I>(&self, ids: I) -> usize
    where
        I: IntoIterator<Item = NamespaceId>,
    {
        let mut it = ids.into_iter();
        let first = match it.next() {
            Some(id) => id,
            None => return 0,
        };
        let mut len = self.depth(first);
        for id in it {
            len = len.min(self.common_prefix_len2(first, id));
            if len == 0 {
                break;
            }
        }
        len
    }

    /// Serializes the arena for the persistent snapshot: paths in id
    /// order. The lookup map is rebuilt on decode.
    pub fn encode(&self, w: &mut Writer) {
        w.put_len(self.paths.len());
        for path in &self.paths {
            w.put_len(path.len());
            for seg in path {
                w.put_str(seg);
            }
        }
    }

    /// Decodes an arena written by [`Namespaces::encode`], rebuilding the
    /// path lookup map and validating that id 0 is the global namespace
    /// and that no path appears twice.
    pub fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let count = r.get_len("namespace count")?;
        if count == 0 {
            return Err(WireError::new(
                "namespace arena is empty (the global namespace must exist)",
            ));
        }
        let mut ns = Namespaces {
            paths: Vec::with_capacity(count),
            by_path: HashMap::with_capacity(count),
        };
        for i in 0..count {
            let segs = r.get_len("namespace segment count")?;
            let mut path = Vec::with_capacity(segs);
            for _ in 0..segs {
                path.push(r.get_str("namespace segment")?);
            }
            if i == 0 && !path.is_empty() {
                return Err(WireError::new(
                    "namespace 0 must be the global (empty) namespace",
                ));
            }
            if ns
                .by_path
                .insert(path.clone(), NamespaceId(i as u32))
                .is_some()
            {
                return Err(WireError::new(format!(
                    "duplicate namespace path '{}'",
                    path.join(".")
                )));
            }
            ns.paths.push(path);
        }
        Ok(ns)
    }

    /// Parent namespace (path with the last segment removed), if any is
    /// interned. The global namespace has no parent.
    pub fn parent(&self, id: NamespaceId) -> Option<NamespaceId> {
        let segs = self.segments(id);
        if segs.is_empty() {
            return None;
        }
        self.by_path.get(&segs[..segs.len() - 1]).copied()
    }
}

impl fmt::Display for Namespaces {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} namespaces", self.paths.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_namespace_is_id_zero() {
        let ns = Namespaces::new();
        assert_eq!(ns.dotted(NamespaceId::GLOBAL), "");
        assert_eq!(ns.depth(NamespaceId::GLOBAL), 0);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut ns = Namespaces::new();
        let a = ns.intern(&["System", "Collections"]);
        let b = ns.intern_dotted("System.Collections");
        assert_eq!(a, b);
        assert_eq!(ns.dotted(a), "System.Collections");
    }

    #[test]
    fn common_prefix_pairs() {
        let mut ns = Namespaces::new();
        let sc = ns.intern_dotted("System.Collections");
        let sg = ns.intern_dotted("System.Collections.Generic");
        let sd = ns.intern_dotted("System.Drawing");
        let pd = ns.intern_dotted("PaintDotNet");
        assert_eq!(ns.common_prefix_len2(sc, sg), 2);
        assert_eq!(ns.common_prefix_len2(sc, sd), 1);
        assert_eq!(ns.common_prefix_len2(sc, pd), 0);
        assert_eq!(ns.common_prefix_len2(sc, sc), 2);
    }

    #[test]
    fn common_prefix_sets() {
        let mut ns = Namespaces::new();
        let sg = ns.intern_dotted("System.Collections.Generic");
        let sd = ns.intern_dotted("System.Drawing");
        assert_eq!(ns.common_prefix_len([sg, sd]), 1);
        assert_eq!(ns.common_prefix_len([sg]), 3);
        assert_eq!(ns.common_prefix_len(std::iter::empty()), 0);
        assert_eq!(ns.common_prefix_len([sg, sd, NamespaceId::GLOBAL]), 0);
    }

    #[test]
    fn parent_walks_up() {
        let mut ns = Namespaces::new();
        let sys = ns.intern_dotted("System");
        let sc = ns.intern_dotted("System.Collections");
        assert_eq!(ns.parent(sc), Some(sys));
        assert_eq!(ns.parent(sys), Some(NamespaceId::GLOBAL));
        assert_eq!(ns.parent(NamespaceId::GLOBAL), None);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut ns = Namespaces::new();
        assert_eq!(ns.lookup_dotted("Nope"), None);
        let id = ns.intern_dotted("Yep");
        assert_eq!(ns.lookup_dotted("Yep"), Some(id));
        assert_eq!(ns.lookup_dotted(""), Some(NamespaceId::GLOBAL));
    }
}
