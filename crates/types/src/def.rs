//! Type definitions stored in the [`crate::TypeTable`].

use std::sync::Arc;

use crate::{NamespaceId, PrimKind, TypeId};

/// The kind of a type definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeKind {
    /// A reference type with single inheritance. `base` is `None` only for
    /// `System.Object` itself; every other class implicitly derives `Object`
    /// until [`crate::TypeTable::set_base`] is called.
    Class {
        /// Direct base class, if explicitly set.
        base: Option<TypeId>,
    },
    /// An interface. Its "bases" are the interfaces it extends, stored in
    /// [`TypeDef::interfaces`].
    Interface,
    /// A user-defined value type. Boxes to `Object`.
    Struct,
    /// An enumeration. Boxes to `Object`; comparable with itself.
    Enum,
    /// A built-in primitive.
    Primitive(PrimKind),
    /// The `void` pseudo-type: the return "type" of methods returning
    /// nothing. No conversions to or from it exist.
    Void,
}

/// A single type definition.
///
/// Fields are crate-private behind accessors so the table can maintain
/// hierarchy invariants (acyclicity, interface-only extends lists). The
/// heap parts are `Arc`-shared, so cloning a definition (and with it a
/// whole [`crate::TypeTable`]) allocates nothing.
#[derive(Debug, Clone)]
pub struct TypeDef {
    pub(crate) name: Arc<str>,
    pub(crate) namespace: NamespaceId,
    pub(crate) kind: TypeKind,
    pub(crate) interfaces: Arc<[TypeId]>,
    pub(crate) comparable: bool,
}

impl TypeDef {
    /// Simple (unqualified) name of the type.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Namespace the type is declared in.
    pub fn namespace(&self) -> NamespaceId {
        self.namespace
    }

    /// The definition kind.
    pub fn kind(&self) -> &TypeKind {
        &self.kind
    }

    /// Interfaces this type declares it implements (for interfaces: extends).
    pub fn interfaces(&self) -> &[TypeId] {
        &self.interfaces
    }

    /// Whether values of this type are ordered by the relational operators
    /// (`<`, `>=`, ...). Numeric primitives and enums are ordered by default;
    /// other types opt in via [`crate::TypeTable::set_comparable`] (the paper's
    /// `DateTime` example).
    pub fn is_comparable(&self) -> bool {
        self.comparable
    }

    /// Whether this is a class (including `Object` and `string`-as-class
    /// tables that choose to model it so).
    pub fn is_class(&self) -> bool {
        matches!(self.kind, TypeKind::Class { .. })
    }

    /// Whether this is an interface.
    pub fn is_interface(&self) -> bool {
        matches!(self.kind, TypeKind::Interface)
    }

    /// Whether this is a built-in primitive (`bool`, the numerics, `string`).
    ///
    /// The ranking function's common-namespace term skips primitive-typed
    /// arguments; this predicate is what it consults.
    pub fn is_primitive(&self) -> bool {
        matches!(self.kind, TypeKind::Primitive(_))
    }

    /// The primitive kind, if this is a primitive.
    pub fn prim_kind(&self) -> Option<PrimKind> {
        match self.kind {
            TypeKind::Primitive(p) => Some(p),
            _ => None,
        }
    }

    /// Whether this is a value type (struct, enum, or non-string primitive).
    pub fn is_value_type(&self) -> bool {
        match self.kind {
            TypeKind::Struct | TypeKind::Enum => true,
            TypeKind::Primitive(p) => p != PrimKind::String,
            _ => false,
        }
    }
}
