//! The one description of the scenario-spec schema.
//!
//! Every TOML key a spec may carry is one [`Field`] row in the tables at
//! the bottom of this file: key, value type, default, range, cache role,
//! and a get/set pair into the typed structs of [`crate::spec`]. The
//! writer (`to_toml`), the reader (`from_toml`), per-field range
//! validation, `cache_fragment` and the README's spec reference are all
//! loops over these rows, so they cannot disagree; only rules that relate
//! several fields live as code, in `ScenarioSpec::validate`.
//!
//! A [`Section`] is one TOML table. Where the table is a tagged union
//! (`kind = "star"`, `scenario = "incast"`) its [`Ty::Tag`] row names the
//! variants, and a row of one variant simply does not apply (its `get`
//! is `None`) while the value is another. A sub-table is a [`Ty::Table`]
//! row binding the place in the parent that holds its value, so the
//! layout of a file is rows too: reading, writing and checking a spec
//! is one call on [`ROOT`]. Adding a key is adding a row.

use crate::algo::Algo;
use crate::spec::{
    AnalyticScenario, AnalyticSpec, EngineKind, IncastSpec, LineupSpec, ParamSpec, PoissonSpec,
    ScenarioKind, ScenarioSpec, SizeSpec, SweepBody, SweepSpec, TimeseriesBody, TopologySpec,
    TraceScenario, TraceSpec, WorkloadSpec, MAX_PHASE_START_OVER_BDP,
};
use crate::toml::{self, Value};
use fluid_model::Law;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub(crate) type Table = BTreeMap<String, Value>;

/// A field's value as the writer and the range check see it: a borrowed
/// view of the typed struct (or of a static default).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Val<'a> {
    /// A sub-table: present, but read and written as its own section.
    Table,
    Str(&'a str),
    Bool(bool),
    Float(f64),
    Uint(u64),
    Floats(&'a [f64]),
    Uints(&'a [u64]),
    Strs(&'a [String]),
    Algos(&'a [Algo]),
    Laws(&'a [Law]),
    Params(&'a [ParamSpec]),
}

impl Val<'_> {
    /// The TOML value that reads back as this one (how a default is
    /// applied: exactly as if it had been in the file).
    fn to_value(self) -> Value {
        fn array<T>(items: &[T], item: impl Fn(&T) -> Value) -> Value {
            Value::Array(items.iter().map(item).collect())
        }
        match self {
            Val::Table => Value::Table(Table::new()),
            Val::Str(s) => Value::Str(s.to_string()),
            Val::Bool(b) => Value::Bool(b),
            Val::Float(x) => Value::Float(x),
            Val::Uint(n) => Value::Int(n as i64),
            Val::Floats(xs) => array(xs, |x| Value::Float(*x)),
            Val::Uints(ns) => array(ns, |n| Value::Int(*n as i64)),
            Val::Strs(ss) => array(ss, |s| Value::Str(s.clone())),
            Val::Algos(algos) => array(algos, |a| Value::Str(a.key())),
            Val::Laws(laws) => array(laws, |l| Value::Str(l.key().to_string())),
            Val::Params(ps) => array(ps, |p| Value::Str(p.label())),
        }
    }
}

/// The value type of a field (the [`Val`] variant its accessors speak).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Ty {
    Table,
    Str,
    /// A string naming which variant of the section's union the value
    /// is; setting it swaps in a blank of that variant.
    Tag,
    Bool,
    Float,
    Uint,
    Floats,
    Uints,
    Strs,
    Algos,
    Laws,
    Params,
}

impl Ty {
    /// How the type reads in error messages and the spec reference.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Table => "a table",
            Ty::Str | Ty::Tag => "a string",
            Ty::Bool => "a boolean",
            Ty::Float => "a number",
            Ty::Uint => "a non-negative integer",
            Ty::Floats => "an array of numbers",
            Ty::Uints => "an array of non-negative integers",
            Ty::Strs | Ty::Algos | Ty::Laws | Ty::Params => "an array of strings",
        }
    }

    /// The empty value of the type: what a cache fragment shows in place
    /// of a non-physics field.
    fn blank(self) -> Val<'static> {
        match self {
            Ty::Table => Val::Table,
            Ty::Str | Ty::Tag => Val::Str(""),
            Ty::Bool => Val::Bool(false),
            Ty::Float => Val::Float(0.0),
            Ty::Uint => Val::Uint(0),
            Ty::Floats => Val::Floats(&[]),
            Ty::Uints => Val::Uints(&[]),
            Ty::Strs => Val::Strs(&[]),
            Ty::Algos => Val::Algos(&[]),
            Ty::Laws => Val::Laws(&[]),
            Ty::Params => Val::Params(&[]),
        }
    }
}

/// What a key's absence means on input, and whether the writer may omit
/// it.
#[derive(Debug)]
pub(crate) enum Dflt {
    /// The key must be present.
    Required,
    /// Optional, with nothing to fall back on: an unset `params`
    /// override, the `[workload]` table of an incast-less sweep.
    Unset,
    /// Optional on input; always written.
    Write(Val<'static>),
    /// Optional on input; not written while it holds this value — so
    /// specs (and cache keys) older than the key render unchanged.
    Omit(Val<'static>),
}

/// The admissible values of a numeric field (or of each entry of a
/// numeric array). Regardless of the range, every float must be finite
/// and every integer must fit TOML's `i64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Range {
    Any,
    /// `> 0`.
    Pos,
    /// `>= 0`.
    NonNeg,
    /// `(0, max]`.
    PosUpTo(f64),
    /// `[0, max]`.
    UpTo(f64),
    /// Integers `>= n`.
    Min(u64),
}

impl Range {
    fn admits_float(self, x: f64) -> bool {
        x.is_finite()
            && match self {
                Range::Pos => x > 0.0,
                Range::NonNeg => x >= 0.0,
                Range::PosUpTo(max) => x > 0.0 && x <= max,
                Range::UpTo(max) => x >= 0.0 && x <= max,
                Range::Any | Range::Min(_) => true,
            }
    }

    fn admits_uint(self, n: u64) -> bool {
        n <= i64::MAX as u64 && !matches!(self, Range::Min(m) if n < m)
    }

    /// Reads as "must be …" in error messages and the spec reference.
    pub fn text(self, ty: Ty) -> String {
        match (self, ty) {
            (Range::Pos, _) => "finite and > 0".into(),
            (Range::NonNeg, _) => "finite and >= 0".into(),
            (Range::PosUpTo(max), _) => format!("in (0, {max}]"),
            (Range::UpTo(max), _) => format!("in [0, {max}]"),
            (Range::Min(m), _) => format!("in [{m}, 2^63)"),
            (Range::Any, Ty::Uint | Ty::Uints) => "below 2^63".into(),
            (Range::Any, Ty::Float | Ty::Floats) => "finite".into(),
            (Range::Any, _) => "any".into(),
        }
    }
}

/// What a field means to the result cache (`dcn-runner`'s `key.rs`):
/// only [`Role::Physics`] fields enter [`ScenarioSpec::cache_fragment`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Role {
    /// Determines point outcomes: part of every point's cache key.
    Physics,
    /// Names the spec; no effect on outcomes.
    Identity,
    /// A sweep axis: each point's own coordinate is in its key instead,
    /// so growing the axis leaves the other points' keys alone.
    Axis,
    /// Changes only how cached outcomes are rendered.
    Render,
}

/// One key of one TOML section.
pub(crate) struct Field<T> {
    pub key: &'static str,
    pub ty: Ty,
    pub default: Dflt,
    pub range: Range,
    pub role: Role,
    /// The values a [`Ty::Tag`] field takes, one per variant.
    pub tags: &'static [&'static str],
    /// `None` when `t`, in its current shape, has no such key (another
    /// kind's, another variant's, an unset override).
    pub get: fn(&T) -> Option<Val<'_>>,
    /// `None` when the TOML value is not of the field's type; `Err`
    /// when its own parser refuses it (an unknown algorithm, say, or
    /// anything inside a sub-table).
    pub set: fn(&mut T, &Value) -> Option<Result<(), String>>,
    /// A [`Ty::Table`] row's recursion: [`Section::visit`] the child `t`
    /// holds, if it holds one (a no-op on every other row).
    visit: fn(&T, &mut Pass<'_>) -> Result<(), String>,
}

/// `path.key` as error messages name it.
fn dotted(path: &[&str], key: &str) -> String {
    path.iter()
        .chain([&key])
        .copied()
        .collect::<Vec<_>>()
        .join(".")
}

impl<T> Field<T> {
    /// Set this field of `t` from `table` (or from its default).
    fn read(&self, path: &[&str], table: &Table, t: &mut T) -> Result<(), String> {
        let name = || dotted(path, self.key);
        let given = match (table.get(self.key), &self.default) {
            (Some(v), _) => Cow::Borrowed(v),
            (None, Dflt::Write(d) | Dflt::Omit(d)) => Cow::Owned(d.to_value()),
            (None, Dflt::Unset) => return Ok(()),
            (None, Dflt::Required) if self.ty == Ty::Table => {
                return Err(format!("missing [{}] section", name()))
            }
            (None, Dflt::Required) => return Err(format!("missing key {:?}", name())),
        };
        match (self.set)(t, &given) {
            None => Err(format!("{} must be {}", name(), self.ty.name())),
            Some(Err(e)) if self.ty == Ty::Tag => {
                Err(format!("unknown {} {e}", name().replace('.', " ")))
            }
            Some(result) => result,
        }
    }

    /// Range-check this field of `t`.
    pub fn check(&self, path: &[&str], t: &T) -> Result<(), String> {
        let float = |x: &&f64| !self.range.admits_float(**x);
        let uint = |n: &&u64| !self.range.admits_uint(**n);
        let (bad, entries) = match (self.get)(t) {
            Some(Val::Float(x)) => (Some(&x).filter(float).map(f64::to_string), ""),
            Some(Val::Uint(n)) => (Some(&n).filter(uint).map(u64::to_string), ""),
            Some(Val::Floats(xs)) => (xs.iter().find(float).map(f64::to_string), " entries"),
            Some(Val::Uints(ns)) => (ns.iter().find(uint).map(u64::to_string), " entries"),
            Some(Val::Params(ps)) => {
                let path = [path, &[self.key]].concat();
                return ps.iter().try_for_each(|p| check_fields(&path, PARAMS, p));
            }
            _ => (None, ""),
        };
        match bad {
            None => Ok(()),
            Some(got) => Err(format!(
                "{}{entries} must be {}, got {got}",
                dotted(path, self.key),
                self.range.text(self.ty)
            )),
        }
    }
}

/// Range-check every listed field of `t`.
pub(crate) fn check_fields<T>(path: &[&str], fields: &[Field<T>], t: &T) -> Result<(), String> {
    fields.iter().try_for_each(|f| f.check(path, t))
}

/// Set every listed field `t` has, and that has a default, to it.
pub(crate) fn apply_defaults<T>(fields: &[Field<T>], t: &mut T) {
    for f in fields.iter().filter(|f| f.ty != Ty::Tag) {
        if let (Some(_), Dflt::Write(d) | Dflt::Omit(d)) = ((f.get)(t), &f.default) {
            let set = (f.set)(t, &d.to_value());
            assert_eq!(
                set,
                Some(Ok(())),
                "the default of {} is a value of it",
                f.key
            );
        }
    }
}

fn write_val(out: &mut String, v: &Val<'_>) {
    use toml::{write_array as list, write_float, write_str};
    fn uint(out: &mut String, n: &u64) {
        let _ = write!(out, "{n}");
    }
    match v {
        Val::Table => {}
        Val::Str(s) => write_str(out, s),
        Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Val::Float(x) => write_float(out, *x),
        Val::Uint(n) => uint(out, n),
        Val::Floats(xs) => list(out, xs, |out, x| write_float(out, *x)),
        Val::Uints(ns) => list(out, ns, uint),
        Val::Strs(ss) => list(out, ss, |out, s| write_str(out, s)),
        Val::Algos(algos) => list(out, algos, |out, a| write_str(out, &a.key())),
        Val::Laws(laws) => list(out, laws, |out, l| write_str(out, l.key())),
        Val::Params(ps) => list(out, ps, |out, p| write_str(out, &p.label())),
    }
}

/// One TOML table of the spec format.
pub(crate) struct Section<T: 'static> {
    /// Table path (`["workload", "poisson"]`); empty for the top level.
    pub path: &'static [&'static str],
    /// Every key the table can hold, in file order.
    pub fields: &'static [Field<T>],
    /// Any value of the type, for the reader to fill in.
    pub blank: fn() -> T,
}

/// What one walk over a spec's sections does with each of them.
pub(crate) enum Pass<'a> {
    /// Append the section as TOML; with `full` unset, as the cache
    /// fragment: every non-physics field reads as its type's blank.
    Write { out: &'a mut String, full: bool },
    /// Range-check every field.
    Check,
}

impl<T> Section<T> {
    /// `[path]` as error messages name the section.
    pub fn label(&self) -> String {
        match self.path {
            [] => "top-level".into(),
            path => format!("[{}]", path.join(".")),
        }
    }

    /// Write or range-check this section of a spec, then the sections
    /// of the sub-tables it holds, in row order.
    pub fn visit(&self, t: &T, pass: &mut Pass<'_>) -> Result<(), String> {
        match pass {
            Pass::Check => check_fields(self.path, self.fields, t)?,
            Pass::Write { out, full } => {
                // A section of sub-tables only (`[workload]`) writes no
                // header of its own.
                let values = || self.fields.iter().filter(|f| f.ty != Ty::Table);
                if !self.path.is_empty() && values().next().is_some() {
                    let _ = writeln!(out, "\n[{}]", self.path.join("."));
                }
                for f in values() {
                    let Some(mut v) = (f.get)(t) else { continue };
                    if !*full && f.role != Role::Physics {
                        v = f.ty.blank();
                    }
                    if !matches!(&f.default, Dflt::Omit(d) if *d == v) {
                        out.push_str(f.key);
                        out.push_str(" = ");
                        write_val(out, &v);
                        out.push('\n');
                    }
                }
            }
        }
        self.fields.iter().try_for_each(|f| (f.visit)(t, pass))
    }

    /// Whether `t`, in its current shape, has a key `key`.
    fn has(&self, t: &T, key: &str) -> bool {
        self.fields
            .iter()
            .any(|f| f.key == key && (f.get)(t).is_some())
    }

    /// Why `key` (holding `value`) has no place in the table `t` was
    /// read from: it is another variant's, or nobody's.
    fn refuse(&self, key: &str, value: &Value, t: &T) -> String {
        let tag = self.fields.iter().find(|f| f.ty == Ty::Tag);
        // The variants whose blank does have the key.
        let owners: Vec<&str> = tag.map_or(Vec::new(), |tag| {
            let owns = |name: &&&str| {
                let mut probe = (self.blank)();
                let tagged = (tag.set)(&mut probe, &Value::Str(name.to_string()));
                tagged == Some(Ok(())) && self.has(&probe, key)
            };
            tag.tags.iter().filter(owns).copied().collect()
        });
        let Some(tag) = tag.filter(|_| !owners.is_empty()) else {
            let here = self.fields.iter().filter(|f| (f.get)(t).is_some());
            let expected: Vec<&str> = here.map(|f| f.key).collect();
            return format!(
                "unknown {} key {key:?} (expected: {})",
                self.label(),
                expected.join(", ")
            );
        };
        let Some(Val::Str(is)) = (tag.get)(t) else {
            unreachable!("a tag is a string that always applies")
        };
        let remove = match value {
            Value::Table(_) => format!("[{key}]"),
            _ => "it".into(),
        };
        if owners.contains(&is) {
            // The variant has the key, but not under what its sub-tables
            // hold (`[sweep]` beside a `response` trace).
            let held = |f: &&Field<T>| f.ty == Ty::Table && (f.get)(t).is_some();
            let by: Vec<&str> = self.fields.iter().filter(held).map(|f| f.key).collect();
            return format!(
                "{key} does not apply to this {} = {is:?} spec, given its [{}] — remove {remove}",
                tag.key,
                by.join("] and [")
            );
        }
        let owners = owners.join("/");
        format!(
            "{key} is a{} {owners} setting; {} = {is:?} has no {key} — remove {remove}",
            if owners.starts_with('a') { "n" } else { "" },
            tag.key,
        )
    }

    /// Parse this section from its table: the tag first (it shapes the
    /// value); a key that shape does not have is an error; then every
    /// key it has is set, present or defaulted (a sub-table: read), in
    /// row order. A sub-table read may rule out a later key (`[sweep]`
    /// beside a `response` trace), so the keys are checked once more.
    pub fn read(&self, table: &Table) -> Result<T, String> {
        let mut t = (self.blank)();
        let is_tag = |f: &&Field<T>| f.ty == Ty::Tag;
        for f in self.fields.iter().filter(is_tag) {
            f.read(self.path, table, &mut t)?;
        }
        let stray = |t: &T| {
            let stray = table.iter().find(|(key, _)| !self.has(t, key));
            stray.map_or(Ok(()), |(key, value)| Err(self.refuse(key, value, t)))
        };
        stray(&t)?;
        for f in self.fields.iter().filter(|f| !is_tag(f)) {
            if (f.get)(&t).is_some() {
                f.read(self.path, table, &mut t)?;
            }
        }
        stray(&t)?;
        Ok(t)
    }
}

// ---- accessors ----

/// A struct field's side of a [`Field`]'s get/set pair: how a Rust type
/// shows as a [`Val`] and is read from a TOML [`Value`].
trait Slot: Sized {
    fn get(&self) -> Option<Val<'_>>;
    fn parse(v: &Value) -> Option<Result<Self, String>>;
    fn put(&mut self, v: &Value) -> Option<Result<(), String>> {
        Some(Self::parse(v)?.map(|parsed| *self = parsed))
    }
    /// A sub-table recurses into its own section; a value has none.
    fn visit(&self, _: &mut Pass<'_>) -> Result<(), String> {
        Ok(())
    }
}

/// The structs that are one TOML table each, read, written and checked
/// by their own section. A parent holds one directly or, where the table
/// may be absent, as an `Option` (the key exists either way).
macro_rules! tables {
    ($($T:ty: $section:ident;)*) => {$(
        impl Slot for $T {
            fn get(&self) -> Option<Val<'_>> {
                Some(Val::Table)
            }
            fn parse(v: &Value) -> Option<Result<Self, String>> {
                Some($section.read(v.as_table()?))
            }
            fn visit(&self, pass: &mut Pass<'_>) -> Result<(), String> {
                $section.visit(self, pass)
            }
        }
        impl Slot for Option<$T> {
            fn get(&self) -> Option<Val<'_>> {
                Some(Val::Table)
            }
            fn parse(v: &Value) -> Option<Result<Self, String>> {
                Some(<$T>::parse(v)?.map(Some))
            }
            fn visit(&self, pass: &mut Pass<'_>) -> Result<(), String> {
                self.iter().try_for_each(|t| t.visit(pass))
            }
        }
    )*};
}

tables! {
    TopologySpec: TOPOLOGY;
    WorkloadSpec: WORKLOAD;
    PoissonSpec: POISSON;
    IncastSpec: INCAST;
    SweepSpec: SWEEP;
    LineupSpec: LINEUP;
    TraceSpec: TRACE;
    AnalyticSpec: ANALYTIC;
}

macro_rules! slots {
    ($($T:ty: |$x:ident| $get:expr, |$v:ident| $parse:expr;)*) => {$(
        impl Slot for $T {
            fn get(&self) -> Option<Val<'_>> {
                let $x = self;
                $get
            }
            fn parse($v: &Value) -> Option<Result<Self, String>> {
                $parse
            }
        }
    )*};
}

fn uint(v: &Value) -> Option<u64> {
    v.as_i64().and_then(|i| u64::try_from(i).ok())
}
fn string(v: &Value) -> Option<Result<String, String>> {
    v.as_str().map(|s| Ok(s.to_string()))
}
/// An array each of whose entries `item` reads.
fn list<T>(
    v: &Value,
    item: impl Fn(&Value) -> Option<Result<T, String>>,
) -> Option<Result<Vec<T>, String>> {
    let items: Option<Vec<_>> = v.as_array()?.iter().map(item).collect();
    Some(items?.into_iter().collect())
}

slots! {
    bool: |x| Some(Val::Bool(*x)), |v| v.as_bool().map(Ok);
    f64: |x| Some(Val::Float(*x)), |v| v.as_f64().map(Ok);
    u64: |x| Some(Val::Uint(*x)), |v| uint(v).map(Ok);
    usize: |x| Some(Val::Uint(*x as u64)), |v| uint(v).map(|n| Ok(n as usize));
    String: |x| Some(Val::Str(x)), |v| string(v);
    EngineKind: |x| Some(Val::Str(x.key())), |v| v.as_str().map(EngineKind::parse);
    Vec<f64>: |x| Some(Val::Floats(x)), |v| list(v, |x| x.as_f64().map(Ok));
    Vec<u64>: |x| Some(Val::Uints(x)), |v| list(v, |x| uint(x).map(Ok));
    Vec<String>: |x| Some(Val::Strs(x)), |v| list(v, string);
    Vec<Algo>: |x| Some(Val::Algos(x)), |v| list(v, |x| x.as_str().map(Algo::parse));
    Vec<Law>: |x| Some(Val::Laws(x)), |v| list(v, |x| x.as_str().map(Law::parse));
    Vec<ParamSpec>: |x| Some(Val::Params(x)), |v| list(v, |x| x.as_str().map(ParamSpec::parse));
    // The `params` overrides: no key at all while unset.
    Option<f64>: |x| x.map(Val::Float), |v| v.as_f64().map(|x| Ok(Some(x)));
    Option<u32>: |x| x.map(|n| Val::Uint(n.into())),
        |v| Some(Ok(Some(u32::try_from(uint(v)?).ok()?)));
}

/// A [`Field`] row: key, type, default, range, cache role => the pattern
/// of `T` under which the key exists => the field it binds (a `[..]`
/// list of such pairs where shapes of `T` hold the key in different
/// places). A [`Ty::Table`] row binds the field holding the sub-table.
macro_rules! field {
    ($key:expr, $ty:ident, $default:expr, $range:expr, $role:ident
        => [$($pat:pat => $f:ident),+ $(,)?]) => {
        Field {
            key: $key,
            ty: Ty::$ty,
            default: $default,
            range: $range,
            role: Role::$role,
            tags: &[],
            get: |t| match t {
                $($pat => Slot::get($f),)+
                #[allow(
                    unreachable_patterns,
                    reason = "fires only in the expansions whose $pat is irrefutable, so not `expect`"
                )]
                _ => None,
            },
            set: |t, v| match t {
                $($pat => Slot::put($f, v),)+
                #[allow(
                    unreachable_patterns,
                    reason = "fires only in the expansions whose $pat is irrefutable, so not `expect`"
                )]
                _ => unreachable!("a key is only set where it applies"),
            },
            visit: |t, pass| match t {
                $($pat => Slot::visit($f, pass),)+
                #[allow(
                    unreachable_patterns,
                    reason = "fires only in the expansions whose $pat is irrefutable, so not `expect`"
                )]
                _ => Ok(()),
            },
        }
    };
    ($key:expr, $ty:ident, $default:expr, $range:expr, $role:ident => $pat:pat => $f:ident) => {
        field!($key, $ty, $default, $range, $role => [$pat => $f])
    };
}

/// The [`Ty::Tag`] row of a tagged union. Per variant: its tag => the
/// pattern recognising it => a blank of it for the reader to fill in.
macro_rules! tag {
    ($key:expr, $default:expr, [$($tag:expr => $pat:pat => $blank:expr),+ $(,)?]) => {
        Field {
            key: $key,
            ty: Ty::Tag,
            default: $default,
            range: Any,
            role: Role::Physics,
            tags: &[$($tag),+],
            get: |t| match t {
                $($pat => Some(Val::Str($tag)),)+
            },
            set: |t, v| {
                *t = match v.as_str()? {
                    $(tag if tag == $tag => $blank,)+
                    other => {
                        let tags: &[&str] = &[$($tag),+];
                        return Some(Err(format!("{other:?} (expected: {})", tags.join(", "))));
                    }
                };
                Some(Ok(()))
            },
            visit: |_, _| Ok(()),
        }
    };
}

/// `Path { a: <default>, b: <default> }`: a variant for the reader to
/// fill in, where only the shape matters.
macro_rules! zeroed {
    ($($P:ident)::+ : $($f:ident),+) => {
        $($P)::+ { $($f: Default::default()),+ }
    };
}

// ---- the tables ----
//
// Rows are laid out by hand (the `=>` keeps rustfmt off them): key, type,
// default, range, cache role => where the key exists => the field bound.

use Dflt::{Omit, Required, Unset, Write};
use Range::{Any, Min, NonNeg, Pos, PosUpTo, UpTo};
use ScenarioKind::{Analytic, Sweep, Timeseries};
use Val::{Bool as flag, Float as num, Floats as floats, Str as text, Uint as int};

const TOPOLOGY_KEY: &str = "topology";
const WORKLOAD_KEY: &str = "workload";
const POISSON_KEY: &str = "poisson";
const INCAST_KEY: &str = "incast";
const TRACE_KEY: &str = "trace";
const ANALYTIC_KEY: &str = "analytic";
const SWEEP_KEY: &str = "sweep";
/// The scenario kind a spec without a `kind` key is.
const SWEEP_KIND: &str = "sweep";

/// The top level: identity, the scenario kind, the kind's scalars and
/// the tables it carries.
pub(crate) static ROOT: Section<ScenarioSpec> = Section {
    path: &[],
    blank: || ScenarioSpec::new("", (TOPOLOGY.blank)()),
    fields: &[
        field!("name", Str, Required, Any, Identity => ScenarioSpec { name, .. } => name),
        field!("description", Str, Write(text("")), Any, Identity
            => ScenarioSpec { description, .. } => description),
        tag!("kind", Omit(text(SWEEP_KIND)), [
            SWEEP_KIND => ScenarioSpec { kind: Sweep(_), .. } => (ROOT.blank)(),
            "timeseries" => ScenarioSpec { kind: Timeseries(_), .. }
                => ScenarioSpec::timeseries("", (TRACE.blank)()),
            "analytic" => ScenarioSpec { kind: Analytic(_), .. }
                => ScenarioSpec::new_analytic("", (ANALYTIC.blank)()),
        ]),
        field!("engine", Str, Omit(text("packet")), Any, Physics
            => ScenarioSpec { kind: Sweep(SweepBody { engine, .. }), .. } => engine),
        field!("buffer_cdf", Bool, Omit(flag(false)), Any, Render
            => ScenarioSpec { kind: Sweep(SweepBody { buffer_cdf, .. }), .. } => buffer_cdf),
        field!("horizon_ms", Float, Write(num(4.0)), Pos, Physics
            => ScenarioSpec { kind: Sweep(SweepBody { horizon_ms, .. }), .. } => horizon_ms),
        field!("drain_ms", Float, Write(num(6.0)), NonNeg, Physics
            => ScenarioSpec { kind: Sweep(SweepBody { drain_ms, .. }), .. } => drain_ms),
        field!(TOPOLOGY_KEY, Table, Required, Any, Physics
            => ScenarioSpec { kind: Sweep(SweepBody { topology, .. }), .. } => topology),
        field!(WORKLOAD_KEY, Table, Unset, Any, Physics
            => ScenarioSpec { kind: Sweep(SweepBody { workload, .. }), .. } => workload),
        field!(TRACE_KEY, Table, Required, Any, Physics
            => ScenarioSpec { kind: Timeseries(TimeseriesBody { trace, .. }), .. } => trace),
        field!(ANALYTIC_KEY, Table, Required, Any, Physics
            => ScenarioSpec { kind: Analytic(analytic), .. } => analytic),
        // One key, two shapes: a sweep's four axes, a trace's lineup
        // (`response` runs no algorithm, so it has none).
        field!(SWEEP_KEY, Table, Required, Any, Physics => [
            ScenarioSpec { kind: Sweep(SweepBody { sweep, .. }), .. } => sweep,
            ScenarioSpec { kind: Timeseries(TimeseriesBody { lineup, trace: TraceSpec {
                scenario: TraceScenario::Incast { .. } | TraceScenario::Fairness { .. }
                    | TraceScenario::Rdcn { .. },
                ..
            } }), .. } => lineup,
        ]),
    ],
};

/// `[topology]` of a sweep (a trace scenario implies its own fixture).
pub(crate) static TOPOLOGY: Section<TopologySpec> = Section {
    path: &[TOPOLOGY_KEY],
    blank: || zeroed!(TopologySpec::Star: hosts, host_gbps),
    fields: &[
        tag!("kind", Required, [
            "fat-tree" => TopologySpec::FatTree { .. }
                => zeroed!(TopologySpec::FatTree: hosts_per_tor, host_gbps, fabric_gbps),
            "star" => TopologySpec::Star { .. } => zeroed!(TopologySpec::Star: hosts, host_gbps),
            "dumbbell" => TopologySpec::Dumbbell { .. }
                => zeroed!(TopologySpec::Dumbbell: pairs, host_gbps, bottleneck_gbps),
        ]),
        field!("hosts_per_tor", Uint, Required, Min(1), Physics
            => TopologySpec::FatTree { hosts_per_tor, .. } => hosts_per_tor),
        field!("hosts", Uint, Required, Min(2), Physics
            => TopologySpec::Star { hosts, .. } => hosts),
        field!("pairs", Uint, Required, Min(1), Physics
            => TopologySpec::Dumbbell { pairs, .. } => pairs),
        field!("host_gbps", Float, Write(num(25.0)), Pos, Physics
            => TopologySpec::FatTree { host_gbps, .. } | TopologySpec::Star { host_gbps, .. }
                | TopologySpec::Dumbbell { host_gbps, .. }
            => host_gbps),
        field!("fabric_gbps", Float, Required, Pos, Physics
            => TopologySpec::FatTree { fabric_gbps, .. } => fabric_gbps),
        field!("bottleneck_gbps", Float, Required, Pos, Physics
            => TopologySpec::Dumbbell { bottleneck_gbps, .. } => bottleneck_gbps),
    ],
};

/// `[workload]` itself holds only its two optional sub-tables.
pub(crate) static WORKLOAD: Section<WorkloadSpec> = Section {
    path: &[WORKLOAD_KEY],
    blank: WorkloadSpec::default,
    fields: &[
        field!(POISSON_KEY, Table, Unset, Any, Physics => WorkloadSpec { poisson, .. } => poisson),
        field!(INCAST_KEY, Table, Unset, Any, Physics => WorkloadSpec { incast, .. } => incast),
    ],
};

pub(crate) static POISSON: Section<PoissonSpec> = Section {
    path: &[WORKLOAD_KEY, POISSON_KEY],
    blank: || PoissonSpec {
        sizes: SizeSpec::Websearch,
    },
    fields: &[
        tag!("sizes", Required, [
            "websearch" => PoissonSpec { sizes: SizeSpec::Websearch }
                => PoissonSpec { sizes: SizeSpec::Websearch },
            "websearch-hadoop" => PoissonSpec { sizes: SizeSpec::WebsearchHadoop }
                => PoissonSpec { sizes: SizeSpec::WebsearchHadoop },
            "fixed" => PoissonSpec { sizes: SizeSpec::Fixed(_) }
                => PoissonSpec { sizes: SizeSpec::Fixed(0) },
        ]),
        field!("fixed_bytes", Uint, Required, Min(1), Physics
            => PoissonSpec { sizes: SizeSpec::Fixed(bytes) } => bytes),
    ],
};

pub(crate) static INCAST: Section<IncastSpec> = Section {
    path: &[WORKLOAD_KEY, INCAST_KEY],
    blank: || zeroed!(IncastSpec: rate_per_sec, request_bytes, fan_in, periodic),
    fields: &[
        field!("rate_per_sec", Float, Required, Pos, Physics
            => IncastSpec { rate_per_sec, .. } => rate_per_sec),
        field!("request_bytes", Uint, Required, Min(1), Physics
            => IncastSpec { request_bytes, .. } => request_bytes),
        field!("fan_in", Uint, Required, Min(1), Physics => IncastSpec { fan_in, .. } => fan_in),
        field!("periodic", Bool, Write(flag(false)), Any, Physics
            => IncastSpec { periodic, .. } => periodic),
    ],
};

/// `[sweep]` of a sweep: the four axes.
pub(crate) static SWEEP: Section<SweepSpec> = Section {
    path: &[SWEEP_KEY],
    blank: || zeroed!(SweepSpec: algos, params, loads, seeds),
    fields: &[
        field!("algos", Algos, Required, Any, Axis => SweepSpec { algos, .. } => algos),
        field!("params", Params, Omit(Val::Params(&[])), Any, Axis
            => SweepSpec { params, .. } => params),
        field!("loads", Floats, Write(floats(&[])), Any, Axis => SweepSpec { loads, .. } => loads),
        field!("seeds", Uints, Required, Any, Axis => SweepSpec { seeds, .. } => seeds),
    ],
};

/// `[sweep]` of a timeseries scenario: the lineup.
pub(crate) static LINEUP: Section<LineupSpec> = Section {
    path: SWEEP.path,
    blank: LineupSpec::default,
    fields: &[field!("algos", Algos, Required, Any, Axis => LineupSpec { algos } => algos)],
};

/// The `key=value,…` entries of `sweep.params`
/// ([`ParamSpec::label`] / [`ParamSpec::parse`]).
pub(crate) static PARAMS: &[Field<ParamSpec>] = &[
    field!("gamma", Float, Unset, PosUpTo(1.0), Axis => ParamSpec { gamma, .. } => gamma),
    field!("n", Uint, Unset, Min(1), Axis => ParamSpec { expected_flows, .. } => expected_flows),
    field!("eta", Float, Unset, PosUpTo(1.0), Axis => ParamSpec { hpcc_eta, .. } => hpcc_eta),
    field!("alpha", Float, Unset, Pos, Axis => ParamSpec { dt_alpha, .. } => dt_alpha),
];

/// `[trace]`: the probe configuration every trace scenario shares, then
/// each scenario's own keys.
pub(crate) static TRACE: Section<TraceSpec> = Section {
    path: &[TRACE_KEY],
    // A trace with a lineup, so that a blank timeseries has `[sweep]`
    // (refused only beside a `response` trace).
    blank: || {
        TraceSpec::new(zeroed!(TraceScenario::Incast: fan_in, burst_bytes, at_ms, horizon_ms))
    },
    fields: &[
        tag!("scenario", Required, [
            "response" => TraceSpec { scenario: TraceScenario::Response, .. }
                => TraceSpec::new(TraceScenario::Response),
            "incast" => TraceSpec { scenario: TraceScenario::Incast { .. }, .. } => (TRACE.blank)(),
            "fairness" => TraceSpec { scenario: TraceScenario::Fairness { .. }, .. }
                => TraceSpec::new(zeroed!(TraceScenario::Fairness: flows, stagger_ms, horizon_ms)),
            "rdcn" => TraceSpec { scenario: TraceScenario::Rdcn { .. }, .. }
                => TraceSpec::new(
                    zeroed!(TraceScenario::Rdcn: weeks, packet_gbps, retcp_prebuffer_us)
                ),
        ]),
        field!("tick_us", Float, Write(num(20.0)), Pos, Physics
            => TraceSpec { tick_us, .. } => tick_us),
        field!("max_samples", Uint, Write(int(4096)), Min(16), Physics
            => TraceSpec { max_samples, .. } => max_samples),
        field!("max_rows", Uint, Write(int(120)), Min(2), Physics
            => TraceSpec { max_rows, .. } => max_rows),
        field!("window", Uint, Omit(int(1)), Min(1), Physics => TraceSpec { window, .. } => window),
        field!("channels", Strs, Omit(Val::Strs(&[])), Any, Physics
            => TraceSpec { channels, .. } => channels),
        field!("fan_in", Uint, Required, Min(1), Physics
            => TraceSpec { scenario: TraceScenario::Incast { fan_in, .. }, .. } => fan_in),
        field!("burst_bytes", Uint, Required, Min(1), Physics
            => TraceSpec { scenario: TraceScenario::Incast { burst_bytes, .. }, .. }
            => burst_bytes),
        field!("at_ms", Float, Write(num(1.0)), NonNeg, Physics
            => TraceSpec { scenario: TraceScenario::Incast { at_ms, .. }, .. } => at_ms),
        field!("flows", Uint, Required, Min(2), Physics
            => TraceSpec { scenario: TraceScenario::Fairness { flows, .. }, .. } => flows),
        field!("stagger_ms", Float, Write(num(1.0)), Pos, Physics
            => TraceSpec { scenario: TraceScenario::Fairness { stagger_ms, .. }, .. }
            => stagger_ms),
        // Only the traces that stop at a horizon: `rdcn` runs its weeks,
        // `response` simulates nothing.
        field!("horizon_ms", Float, Write(num(4.0)), Pos, Physics
            => TraceSpec { scenario: TraceScenario::Incast { horizon_ms, .. }
                | TraceScenario::Fairness { horizon_ms, .. }, .. }
            => horizon_ms),
        field!("weeks", Uint, Required, Min(1), Physics
            => TraceSpec { scenario: TraceScenario::Rdcn { weeks, .. }, .. } => weeks),
        field!("packet_gbps", Float, Write(num(25.0)), Pos, Physics
            => TraceSpec { scenario: TraceScenario::Rdcn { packet_gbps, .. }, .. } => packet_gbps),
        field!("retcp_prebuffer_us", Floats, Write(floats(&[])), NonNeg, Physics
            => TraceSpec { scenario: TraceScenario::Rdcn { retcp_prebuffer_us, .. }, .. }
            => retcp_prebuffer_us),
    ],
};

/// The paper's Figure 3 lineup: one law per signal class.
const FIG3_LAWS: Val<'static> = Val::Laws(&[Law::QueueLength, Law::RttGradient, Law::Power]);
/// An analytic scenario, where only being one matters.
const ANY_ANALYTIC: AnalyticScenario = AnalyticScenario::Laws { tolerance: 0.0 };

/// `[analytic]`: the fluid parameters every analytic scenario shares,
/// then each scenario's own grid.
pub(crate) static ANALYTIC: Section<AnalyticSpec> = Section {
    path: &[ANALYTIC_KEY],
    blank: || AnalyticSpec::new(ANY_ANALYTIC),
    fields: &[
        tag!("scenario", Required, [
            "phase" => AnalyticSpec { scenario: AnalyticScenario::Phase { .. }, .. }
                => AnalyticSpec::new(
                    zeroed!(AnalyticScenario::Phase: laws, w_over_bdp, q_over_bdp)
                ),
            "ablation" => AnalyticSpec { scenario: AnalyticScenario::Ablation { .. }, .. }
                => AnalyticSpec::new(zeroed!(AnalyticScenario::Ablation: gammas, beta_fracs, etas)),
            "laws" => AnalyticSpec { scenario: AnalyticScenario::Laws { .. }, .. }
                => AnalyticSpec::new(ANY_ANALYTIC),
        ]),
        field!("bandwidth_gbps", Float, Write(num(100.0)), Pos, Physics
            => AnalyticSpec { bandwidth_gbps, .. } => bandwidth_gbps),
        field!("base_rtt_us", Float, Write(num(20.0)), Pos, Physics
            => AnalyticSpec { base_rtt_us, .. } => base_rtt_us),
        field!("gamma", Float, Write(num(0.9)), PosUpTo(1.0), Physics
            => AnalyticSpec { gamma, .. } => gamma),
        field!("updates_per_rtt", Float, Write(num(10.0)), Pos, Physics
            => AnalyticSpec { updates_per_rtt, .. } => updates_per_rtt),
        field!("beta_frac", Float, Write(num(0.1)), Pos, Physics
            => AnalyticSpec { beta_frac, .. } => beta_frac),
        field!("hpcc_eta", Float, Write(num(1.0)), PosUpTo(1.0), Physics
            => AnalyticSpec { hpcc_eta, .. } => hpcc_eta),
        field!("laws", Laws, Write(FIG3_LAWS), Any, Physics
            => AnalyticSpec { scenario: AnalyticScenario::Phase { laws, .. }, .. } => laws),
        field!("w_over_bdp", Floats, Write(floats(&fluid_model::DEFAULT_W_FRACS)),
            PosUpTo(MAX_PHASE_START_OVER_BDP), Physics
            => AnalyticSpec { scenario: AnalyticScenario::Phase { w_over_bdp, .. }, .. }
            => w_over_bdp),
        field!("q_over_bdp", Floats, Write(floats(&fluid_model::DEFAULT_Q_FRACS)),
            UpTo(MAX_PHASE_START_OVER_BDP), Physics
            => AnalyticSpec { scenario: AnalyticScenario::Phase { q_over_bdp, .. }, .. }
            => q_over_bdp),
        field!("gammas", Floats, Write(floats(&[])), PosUpTo(1.0), Axis
            => AnalyticSpec { scenario: AnalyticScenario::Ablation { gammas, .. }, .. } => gammas),
        field!("beta_fracs", Floats, Write(floats(&[])), Pos, Axis
            => AnalyticSpec { scenario: AnalyticScenario::Ablation { beta_fracs, .. }, .. }
            => beta_fracs),
        field!("etas", Floats, Write(floats(&[])), PosUpTo(1.0), Axis
            => AnalyticSpec { scenario: AnalyticScenario::Ablation { etas, .. }, .. } => etas),
        field!("tolerance", Float, Write(num(0.05)), Pos, Physics
            => AnalyticSpec { scenario: AnalyticScenario::Laws { tolerance }, .. } => tolerance),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::builtin_specs;

    /// One row as the tests and the spec reference see it, type-erased.
    struct Row {
        key: &'static str,
        ty: Ty,
        default: String,
        range: String,
        role: Role,
        /// The tag values under which the key exists (empty: all).
        applies: Vec<&'static str>,
        tags: &'static [&'static str],
    }

    /// A section's label and rows.
    fn rows<T>(section: &Section<T>) -> (String, Vec<Row>) {
        let tag = section.fields.iter().find(|f| f.ty == Ty::Tag);
        let shapes: Vec<(&str, T)> = tag.map_or(Vec::new(), |tag| {
            let shape = |name: &&'static str| {
                let mut t = (section.blank)();
                (tag.set)(&mut t, &Value::Str(name.to_string()))
                    .unwrap()
                    .unwrap();
                (*name, t)
            };
            tag.tags.iter().map(shape).collect()
        });
        let text_of = |v: &Val<'_>| {
            let mut out = String::new();
            write_val(&mut out, v);
            out
        };
        let row = |f: &Field<T>| {
            let has = |(_, t): &&(&str, T)| (f.get)(t).is_some();
            let mut applies: Vec<&str> = shapes.iter().filter(has).map(|(n, _)| *n).collect();
            if applies.len() == shapes.len() {
                applies.clear();
            }
            Row {
                key: f.key,
                ty: f.ty,
                default: match &f.default {
                    Required => "required".into(),
                    Unset => "none".into(),
                    Write(v) => text_of(v),
                    Omit(v) => format!("{} (omitted)", text_of(v)),
                },
                range: f.range.text(f.ty),
                role: f.role,
                applies,
                tags: f.tags,
            }
        };
        (section.label(), section.fields.iter().map(row).collect())
    }

    /// Every section of the format, in file order.
    fn sections() -> Vec<(String, Vec<Row>)> {
        vec![
            rows(&ROOT),
            rows(&TOPOLOGY),
            rows(&WORKLOAD),
            rows(&POISSON),
            rows(&INCAST),
            rows(&TRACE),
            rows(&ANALYTIC),
            rows(&SWEEP),
        ]
    }

    /// Specs that between them write every key of every section: the
    /// builtins plus the shapes no builtin has.
    fn corpus() -> Vec<String> {
        let mut dumbbell = ScenarioSpec::new(
            "dumbbell",
            TopologySpec::Dumbbell {
                pairs: 4,
                host_gbps: 25.0,
                bottleneck_gbps: 12.5,
            },
        )
        .poisson(SizeSpec::Fixed(50_000));
        let sweep = dumbbell.sweep_mut("test");
        sweep.buffer_cdf = true;
        sweep.sweep.loads = vec![0.5];
        let mut windowed = crate::library::builtin("fig4").expect("fig4 is a builtin");
        let ScenarioKind::Timeseries(timeseries) = &mut windowed.kind else {
            unreachable!()
        };
        timeseries.trace.window = 4;
        timeseries.trace.channels = vec!["queue".into()];
        let specs = builtin_specs().into_iter().chain([dumbbell, windowed]);
        specs.map(|s| s.to_toml()).collect()
    }

    /// Every `key = value` line of `src`: (section label, key, line no).
    fn key_lines(src: &str) -> Vec<(String, String, usize)> {
        let mut section = "top-level".to_string();
        let mut out = Vec::new();
        for (i, line) in src.lines().enumerate() {
            if line.starts_with('[') {
                section = line.to_string();
            } else if let Some((key, _)) = line.split_once(" = ") {
                out.push((section.clone(), key.to_string(), i));
            }
        }
        out
    }

    /// `src` with line `i` replaced.
    fn with_line(src: &str, i: usize, new: &str) -> String {
        let lines = src.lines().enumerate();
        let lines: Vec<&str> = lines.map(|(j, l)| if j == i { new } else { l }).collect();
        lines.join("\n")
    }

    #[test]
    fn every_row_speaks_its_declared_type() {
        fn check<T>(section: &Section<T>) {
            let tag = section.fields.iter().find(|f| f.ty == Ty::Tag);
            let names = tag.map_or(&[""][..], |t| t.tags);
            for name in names {
                let mut t = (section.blank)();
                if let Some(tag) = tag {
                    (tag.set)(&mut t, &Value::Str(name.to_string()))
                        .unwrap()
                        .unwrap();
                    assert_eq!((tag.get)(&t), Some(text(name)), "{}", section.label());
                }
                for f in section.fields {
                    let Some(v) = (f.get)(&t) else { continue };
                    let blank = f.ty.blank();
                    let same = std::mem::discriminant(&v) == std::mem::discriminant(&blank);
                    assert!(
                        same,
                        "{} {}: {v:?} is not {:?}",
                        section.label(),
                        f.key,
                        f.ty
                    );
                    // Every default is a value of the row's type, too.
                    if let Write(d) | Omit(d) = &f.default {
                        assert_eq!(std::mem::discriminant(d), std::mem::discriminant(&blank));
                    }
                }
            }
        }
        check(&ROOT);
        check(&TOPOLOGY);
        check(&WORKLOAD);
        check(&POISSON);
        check(&INCAST);
        check(&TRACE);
        check(&ANALYTIC);
        check(&SWEEP);
        check(&LINEUP);
    }

    #[test]
    fn misspelling_any_key_of_any_section_is_an_error() {
        let mut seen = std::collections::BTreeSet::new();
        for src in corpus() {
            ScenarioSpec::from_toml(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            for (section, key, i) in key_lines(&src) {
                let line = src.lines().nth(i).unwrap();
                let typo = format!("{key}_zz");
                let broken = with_line(&src, i, &line.replacen(&key, &typo, 1));
                let err = ScenarioSpec::from_toml(&broken)
                    .expect_err(&format!("{section} {typo} was accepted:\n{broken}"));
                // A misspelt required key may be reported as missing.
                assert!(err.contains(&key), "{section} {typo}: {err}");
                seen.insert((section, key));
            }
            // And so is a misspelt table.
            for (i, line) in src.lines().enumerate().filter(|(_, l)| l.starts_with('[')) {
                let typo = line.replace(']', "x]");
                let err = ScenarioSpec::from_toml(&with_line(&src, i, &typo))
                    .expect_err(&format!("{typo} was accepted"));
                let name = line.trim_matches(['[', ']']).rsplit('.').next().unwrap();
                assert!(err.contains(name), "{typo}: {err}");
            }
        }
        // The corpus reaches every value row of the schema.
        for (label, rows) in sections() {
            for row in rows.iter().filter(|r| r.ty != Ty::Table) {
                let reached = seen.contains(&(label.clone(), row.key.to_string()));
                assert!(reached, "no corpus spec writes {label} {}", row.key);
            }
        }
    }

    #[test]
    fn no_float_key_accepts_a_non_finite_number() {
        let schema = sections();
        let ty_of = |section: &str, key: &str| {
            let (_, rows) = schema.iter().find(|(label, _)| label == section).unwrap();
            rows.iter().find(|r| r.key == key).unwrap().ty
        };
        let mut seen = std::collections::BTreeSet::new();
        for src in corpus() {
            for (section, key, i) in key_lines(&src) {
                let ty = ty_of(&section, &key);
                for bad in ["inf", "-inf", "1e999", "nan"] {
                    let line = match ty {
                        Ty::Float => format!("{key} = {bad}"),
                        Ty::Floats => format!("{key} = [{bad}]"),
                        _ => continue,
                    };
                    match ScenarioSpec::from_toml(&with_line(&src, i, &line)) {
                        Ok(_) => panic!("{section} {line} was accepted"),
                        // `nan` is not a number to the TOML parser at all.
                        Err(e) => assert!(e.contains(&key) || bad == "nan", "{line}: {e}"),
                    }
                    seen.insert((section.clone(), key.clone()));
                }
            }
        }
        for (label, rows) in &schema {
            for row in rows {
                if matches!(row.ty, Ty::Float | Ty::Floats) {
                    let reached = seen.contains(&(label.clone(), row.key.to_string()));
                    assert!(reached, "no corpus spec writes {label} {}", row.key);
                }
            }
        }
        // The params mini-grammar's floats, too, and the range (0, 1] of
        // γ and η: the only check on the two values a spec hands a law.
        for bad in [
            "gamma=inf",
            "eta=-inf",
            "alpha=1e999",
            "gamma=nan",
            "gamma=0",
            "gamma=1.5",
            "eta=0",
            "eta=1.5",
        ] {
            let mut spec =
                crate::library::builtin("gamma-sweep").expect("gamma-sweep is a builtin");
            spec.sweep_mut("test").sweep.params = vec![ParamSpec::parse(bad).unwrap()];
            let err = spec.validate().expect_err(bad);
            assert!(err.contains(bad.split('=').next().unwrap()), "{bad}: {err}");
        }
    }

    /// The README's "Spec reference" block, rendered from the tables.
    fn reference() -> String {
        let mut out = String::new();
        let mut all = sections();
        let params = Section {
            path: &[SWEEP_KEY, "params"],
            fields: PARAMS,
            blank: ParamSpec::default,
        };
        all.push(rows(&params));
        for (label, rows) in all {
            let what = match label.as_str() {
                "[sweep.params]" => "entries of `[sweep] params`, each `\"key=value,…\"`".into(),
                "top-level" => "the top level".into(),
                _ => format!("`{label}`"),
            };
            let _ = writeln!(out, "**{what}**\n");
            out.push_str("| key | type | default | range | in the cache key | only when |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for r in rows {
                let ty = match r.ty {
                    Ty::Tag => r.tags.join(" / "),
                    ty => ty
                        .name()
                        .trim_start_matches("an ")
                        .trim_start_matches("a ")
                        .into(),
                };
                let role = match r.role {
                    _ if r.ty == Ty::Table => "(by its own keys)",
                    Role::Physics => "yes",
                    Role::Identity => "no (identity)",
                    Role::Axis => "no (axis: in each point's own key)",
                    Role::Render => "no (render-only)",
                };
                let range = if r.range == "any" { "" } else { &r.range };
                let only = r.applies.join(" / ");
                let _ = writeln!(
                    out,
                    "| `{}` | {ty} | {} | {range} | {role} | {only} |",
                    r.key,
                    r.default.replace('|', "\\|")
                );
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn readme_spec_reference_is_rendered_from_the_tables() {
        const BEGIN: &str = "<!-- spec-reference:begin (rendered from crates/scenarios/src/schema.rs; do not edit) -->\n";
        const END: &str = "<!-- spec-reference:end -->";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md");
        let start = readme.find(BEGIN).expect("README has the begin marker") + BEGIN.len();
        let end = readme.find(END).expect("README has the end marker");
        let want = reference();
        assert!(
            readme[start..end] == want,
            "README's spec reference drifted from the schema tables; replace the \
             block between the markers with:\n{want}"
        );
    }
}
