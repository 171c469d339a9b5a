//! Declarative config field tables.
//!
//! Every config the CLI, the service and the scenario files accept
//! declares one table with [`fields!`](crate::fields!): one row per
//! field, giving its JSON key, its kind with its bounds (checked in the
//! field's own type, before any cast and before anything is sized from
//! it) and its CLI flag, if it has one. The table drives every surface
//! of its config:
//!
//! * [`parse`] — the strict JSON parse: unknown or repeated keys, wrong
//!   types and out-of-bounds values are errors; absent keys keep the
//!   config's `Default`;
//! * [`canonical`] — the canonical JSON form: every field, keys sorted,
//!   floats in Rust's shortest round-trip form, written into one
//!   `String` in one pass (rows are declared in key order);
//! * [`apply_flags`] — `--flag value` overrides from a command line;
//! * [`check`] — the per-field half of a config's `validate()`.
//!
//! Parse and canonical form read the same rows, so no field can be
//! parsed yet left out of a cache key.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use crate::json::{escape_into, Value};

/// One row of a config's field table; [`fields!`](crate::fields!)
/// writes its accessors from the row's codec.
pub struct Field<C> {
    /// The JSON key.
    pub name: &'static str,
    /// The CLI flag that sets the field, if any.
    pub flag: Option<&'static str>,
    /// Reads the field from its JSON value, checking its bounds.
    pub read: fn(&mut C, &Value) -> Result<(), String>,
    /// Reads the field from a command-line value, checking its bounds.
    pub read_text: fn(&mut C, &str) -> Result<(), String>,
    /// Checks the field's current value against its bounds.
    pub check: fn(&C) -> Result<(), String>,
    /// Appends the field's canonical JSON value.
    pub write: fn(&C, &mut String),
}

/// Declares a config's field table as a `const` slice, one row per field
/// in JSON-key order:
///
/// ```text
/// suit_telemetry::fields! {
///     pub const FIELDS: [Config] = [
///         cores flag "--cores": int(1, MAX_CORES),
///         epochs: int(1, MAX_EPOCHS),
///         level as "offset": num_key(UndervoltLevel::key, &UndervoltLevel::KEYS),
///     ];
/// }
/// ```
///
/// `as` gives the JSON key where it is not the Rust field name, `flag`
/// the field's CLI flag. The kind is one of this module's [`Codec`]
/// constructors.
#[macro_export]
macro_rules! fields {
    ($(#[$meta:meta])* $vis:vis const $table:ident: [$cfg:ty] = [$(
        $field:ident $(as $name:literal)? $(flag $flag:literal)?: $kind:ident($($arg:expr),* $(,)?)
    ),* $(,)?];) => {
        $(#[$meta])*
        $vis const $table: &'static [$crate::fields::Field<$cfg>] = &[$({
            use $crate::fields::Codec as _;
            const NAME: &str = $crate::fields!(@name $field $($name)?);
            $crate::fields::Field::<$cfg> {
                name: NAME,
                flag: $crate::fields!(@flag $($flag)?),
                read: |c, v| $crate::fields::$kind($($arg),*).read(NAME, &mut c.$field, v),
                read_text: |c, s| $crate::fields::$kind($($arg),*).read_text(NAME, &mut c.$field, s),
                check: |c| $crate::fields::$kind($($arg),*).bounds(NAME, &c.$field),
                write: |c, out| $crate::fields::$kind($($arg),*).encode(&c.$field, out),
            }
        }),*];
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $name:literal) => { $name };
    (@flag) => { None };
    (@flag $flag:literal) => { Some($flag) };
}

/// Parses the JSON object `v` into a `C`, starting from `C::default()`.
/// Keys in `skip` belong to the caller (a service's `deadline_ms`, a
/// discriminator) and are passed over; every other key must name a row,
/// at most once.
pub fn parse<C: Default>(table: &[Field<C>], v: &Value, skip: &[&str]) -> Result<C, String> {
    let Value::Obj(pairs) = v else {
        return Err("expected a JSON object".to_string());
    };
    debug_assert!(table.len() <= 64, "the seen-set is one u64");
    let mut cfg = C::default();
    let mut seen = 0u64;
    for (key, value) in pairs {
        if skip.contains(&key.as_str()) {
            continue;
        }
        let Some(i) = table.iter().position(|f| f.name == key) else {
            let names = table.iter().map(|f| f.name).chain(skip.iter().copied());
            let allowed: Vec<&str> = names.collect();
            return Err(format!(
                "unknown key '{key}' (allowed: {})",
                allowed.join(", ")
            ));
        };
        if seen & (1 << i) != 0 {
            return Err(format!("duplicate key '{key}'"));
        }
        seen |= 1 << i;
        (table[i].read)(&mut cfg, value)?;
    }
    Ok(cfg)
}

/// The canonical JSON object of `cfg`: every row, plus the caller's
/// `extra` members as `(key, raw JSON value)`, all in key order.
pub fn canonical<C>(table: &[Field<C>], cfg: &C, extra: &[(&str, &str)]) -> String {
    debug_assert!(
        table.windows(2).all(|w| w[0].name < w[1].name),
        "rows out of key order"
    );
    debug_assert!(
        extra.windows(2).all(|w| w[0].0 < w[1].0),
        "extras out of key order"
    );
    let mut out = String::with_capacity(256);
    let key = |out: &mut String, name: &str| {
        out.push(if out.is_empty() { '{' } else { ',' });
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
    };
    let mut extra = extra.iter().peekable();
    for f in table {
        while let Some((name, raw)) = extra.next_if(|(name, _)| *name < f.name) {
            key(&mut out, name);
            out.push_str(raw);
        }
        key(&mut out, f.name);
        (f.write)(cfg, &mut out);
    }
    for (name, raw) in extra {
        key(&mut out, name);
        out.push_str(raw);
    }
    if out.is_empty() {
        out.push('{');
    }
    out.push('}');
    out
}

/// The CLI flags of `table`'s rows.
pub fn flags<C>(table: &[Field<C>]) -> impl Iterator<Item = &'static str> + '_ {
    table.iter().filter_map(|f| f.flag)
}

/// Applies command-line overrides: `value_of(flag)` is the value given
/// for a row's flag, if any.
pub fn apply_flags<C>(
    table: &[Field<C>],
    cfg: &mut C,
    value_of: impl Fn(&str) -> Option<String>,
) -> Result<(), String> {
    for f in table {
        if let Some(v) = f.flag.and_then(&value_of) {
            (f.read_text)(cfg, &v)?;
        }
    }
    Ok(())
}

/// Checks every field against its row's bounds: the per-field half of a
/// config's `validate()`.
pub fn check<C>(table: &[Field<C>], cfg: &C) -> Result<(), String> {
    table.iter().try_for_each(|f| (f.check)(cfg))
}

/// How a field's value decodes, checks its bounds and encodes.
pub trait Codec {
    /// The value's Rust type.
    type T;
    /// Decodes a JSON value (the bounds are [`Codec::bounds`]'s).
    fn decode(&self, name: &str, v: &Value) -> Result<Self::T, String>;
    /// Decodes a command-line value.
    fn decode_text(&self, name: &str, s: &str) -> Result<Self::T, String>;
    /// Checks a value against the bounds.
    fn bounds(&self, name: &str, v: &Self::T) -> Result<(), String>;
    /// Appends a value's canonical JSON to `out`.
    fn encode(&self, v: &Self::T, out: &mut String);

    /// Decodes a JSON value, checks it and stores it in `slot`. Not
    /// inlined: every row of a codec type shares one copy.
    #[inline(never)]
    fn read(&self, name: &str, slot: &mut Self::T, v: &Value) -> Result<(), String> {
        let v = self.decode(name, v)?;
        self.bounds(name, &v)?;
        *slot = v;
        Ok(())
    }

    /// [`Codec::read`] for a command-line value.
    #[inline(never)]
    fn read_text(&self, name: &str, slot: &mut Self::T, s: &str) -> Result<(), String> {
        let v = self.decode_text(name, s)?;
        self.bounds(name, &v)?;
        *slot = v;
        Ok(())
    }
}

/// An unsigned integer type a count field holds.
pub trait Count: Copy + PartialOrd + Display + TryFrom<u64> {
    /// The type's largest value; a bound there means "no upper bound".
    const MAX: Self;
}

impl Count for usize {
    const MAX: Self = usize::MAX;
}
impl Count for u32 {
    const MAX: Self = u32::MAX;
}
impl Count for u64 {
    const MAX: Self = u64::MAX;
}

/// The integers a JSON number holds exactly; past this, a count is
/// rounded before any bounds check could see it.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

fn not_count(name: &str) -> String {
    format!("field '{name}' must be a non-negative integer")
}

/// A count in `min..=max`, narrowed into its own type only after the
/// check, never truncated by a cast.
pub struct Int<T>(T, T);

/// A count field in `min..=max`; a `max` of `T::MAX` is no upper bound.
pub const fn int<T: Count>(min: T, max: T) -> Int<T> {
    Int(min, max)
}

impl<T: Count> Int<T> {
    fn range(&self, name: &str) -> String {
        if self.1 == T::MAX {
            return format!("field '{name}' must be at least {}", self.0);
        }
        format!("field '{name}' must be in {}..={}", self.0, self.1)
    }

    /// `None` is a count past [`MAX_EXACT`]: out of range for a bounded
    /// field, not an integer this format can carry for an unbounded one.
    fn narrow(&self, name: &str, n: Option<u64>) -> Result<T, String> {
        match n {
            None if self.1 == T::MAX => Err(not_count(name)),
            n => n
                .and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| self.range(name)),
        }
    }
}

impl<T: Count> Codec for Int<T> {
    type T = T;

    fn decode(&self, name: &str, v: &Value) -> Result<T, String> {
        match v {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => {
                self.narrow(name, (*n <= MAX_EXACT).then_some(*n as u64))
            }
            _ => Err(not_count(name)),
        }
    }

    fn decode_text(&self, name: &str, s: &str) -> Result<T, String> {
        self.narrow(name, Some(s.parse().map_err(|_| not_count(name))?))
    }

    fn bounds(&self, name: &str, v: &T) -> Result<(), String> {
        if self.0 <= *v && *v <= self.1 {
            return Ok(());
        }
        Err(self.range(name))
    }

    fn encode(&self, v: &T, out: &mut String) {
        let _ = write!(out, "{v}");
    }
}

/// An optional value; JSON `null` is `None`.
pub struct Opt<X>(X);

/// An optional count field in `min..=max`.
pub const fn opt_int(min: u64, max: u64) -> Opt<Int<u64>> {
    Opt(Int(min, max))
}

impl<X: Codec> Codec for Opt<X> {
    type T = Option<X::T>;

    fn decode(&self, name: &str, v: &Value) -> Result<Self::T, String> {
        match v {
            Value::Null => Ok(None),
            v => self.0.decode(name, v).map(Some),
        }
    }

    fn decode_text(&self, name: &str, s: &str) -> Result<Self::T, String> {
        self.0.decode_text(name, s).map(Some)
    }

    fn bounds(&self, name: &str, v: &Self::T) -> Result<(), String> {
        v.as_ref().map_or(Ok(()), |v| self.0.bounds(name, v))
    }

    fn encode(&self, v: &Self::T, out: &mut String) {
        match v {
            Some(v) => self.0.encode(v, out),
            None => out.push_str("null"),
        }
    }
}

/// A list of `.1..=.2` values of codec `.0`, distinct if `.3`;
/// comma-separated on a command line.
pub struct List<X>(X, usize, usize, bool);

impl<X: Codec> Codec for List<X>
where
    X::T: PartialEq,
{
    type T = Vec<X::T>;

    fn decode(&self, name: &str, v: &Value) -> Result<Self::T, String> {
        let items = v
            .as_arr()
            .ok_or(format!("field '{name}' must be an array"))?;
        items.iter().map(|x| self.0.decode(name, x)).collect()
    }

    fn decode_text(&self, name: &str, s: &str) -> Result<Self::T, String> {
        s.split(',').map(|x| self.0.decode_text(name, x)).collect()
    }

    fn bounds(&self, name: &str, v: &Self::T) -> Result<(), String> {
        let List(codec, min, max, distinct) = self;
        if !(min..=max).contains(&&v.len()) {
            return Err(format!("field '{name}' must list {min}..={max} entries"));
        }
        for (i, x) in v.iter().enumerate() {
            codec.bounds(name, x)?;
            if *distinct && v[..i].contains(x) {
                return Err(format!("field '{name}' must not repeat an entry"));
            }
        }
        Ok(())
    }

    fn encode(&self, v: &Self::T, out: &mut String) {
        out.push('[');
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.0.encode(x, out);
        }
        out.push(']');
    }
}

/// Which end of a [`Real`] interval is open.
#[derive(Clone, Copy, PartialEq)]
pub enum Open {
    /// `[lo, hi]`.
    Neither,
    /// `(lo, hi]`.
    Lo,
    /// `[lo, hi)`.
    Hi,
}

/// A finite real in the interval from `.0` to `.1`.
pub struct Real(f64, f64, Open);

/// A real field in `[lo, hi]`.
pub const fn real(lo: f64, hi: f64) -> Real {
    Real(lo, hi, Open::Neither)
}

/// A real field in `(lo, hi]`.
pub const fn real_gt(lo: f64, hi: f64) -> Real {
    Real(lo, hi, Open::Lo)
}

/// A real field in `[lo, hi)`.
pub const fn real_lt(lo: f64, hi: f64) -> Real {
    Real(lo, hi, Open::Hi)
}

/// A field listing `min..=max` reals, each in `[lo, hi]`.
pub const fn reals(min: usize, max: usize, lo: f64, hi: f64) -> List<Real> {
    List(real(lo, hi), min, max, false)
}

impl Codec for Real {
    type T = f64;

    fn decode(&self, name: &str, v: &Value) -> Result<f64, String> {
        v.as_f64()
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("field '{name}' must be a finite number"))
    }

    fn decode_text(&self, name: &str, s: &str) -> Result<f64, String> {
        self.decode(name, &Value::Num(s.parse().unwrap_or(f64::NAN)))
    }

    fn bounds(&self, name: &str, v: &f64) -> Result<(), String> {
        let Real(lo, hi, open) = *self;
        let above = if open == Open::Lo { *v > lo } else { *v >= lo };
        let below = if open == Open::Hi { *v < hi } else { *v <= hi };
        if above && below {
            return Ok(());
        }
        let left = if open == Open::Lo { '(' } else { '[' };
        let right = if open == Open::Hi { ')' } else { ']' };
        Err(format!("field '{name}' must be in {left}{lo}, {hi}{right}"))
    }

    /// Rust's shortest round-trip `Display`, deterministic across
    /// platforms. Only values inside the bounds reach here, so a
    /// non-finite one is a bug, not a `null`.
    fn encode(&self, v: &f64, out: &mut String) {
        assert!(v.is_finite(), "non-finite float escaped validation");
        let _ = write!(out, "{v}");
    }
}

/// Checks a string value, returning the whole error message.
pub type TextCheck = fn(&str) -> Result<(), String>;

/// A string accepted by a check.
pub struct Text(TextCheck);

/// A string field accepted by `check`.
pub const fn text(check: TextCheck) -> Text {
    Text(check)
}

/// A field listing `min..=max` strings, each accepted by `check`.
pub const fn texts(min: usize, max: usize, check: TextCheck) -> List<Text> {
    List(Text(check), min, max, false)
}

impl Codec for Text {
    type T = String;

    fn decode(&self, name: &str, v: &Value) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field '{name}' must be a string"))
    }

    fn decode_text(&self, _name: &str, s: &str) -> Result<String, String> {
        Ok(s.to_string())
    }

    fn bounds(&self, _name: &str, v: &String) -> Result<(), String> {
        (self.0)(v)
    }

    fn encode(&self, v: &String, out: &mut String) {
        escape_into(out, v);
    }
}

/// Names a value by its key.
pub type KeyOf<K> = fn(&K) -> &'static str;

/// A named value (a CPU, a strategy, an offset) read through `FromStr`
/// and written as its key `.0`; `.1` are the keys the field accepts,
/// spelled as JSON numbers if `.2`.
pub struct Key<K>(KeyOf<K>, &'static [&'static str], bool);

/// A named-value field spelled as a JSON string.
pub const fn key<K>(key: KeyOf<K>, keys: &'static [&'static str]) -> Key<K> {
    Key(key, keys, false)
}

/// A named-value field spelled as a JSON number (an offset in mV).
pub const fn num_key<K>(key: KeyOf<K>, keys: &'static [&'static str]) -> Key<K> {
    Key(key, keys, true)
}

/// A field listing distinct named values, at least one.
pub const fn keys<K>(key: KeyOf<K>, keys: &'static [&'static str]) -> List<Key<K>> {
    List(Key(key, keys, false), 1, keys.len(), true)
}

impl<K: FromStr<Err = String>> Codec for Key<K> {
    type T = K;

    fn decode(&self, name: &str, v: &Value) -> Result<K, String> {
        match (v, self.2) {
            (Value::Str(s), false) => s.parse(),
            (Value::Num(n), true) if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT => {
                (*n as u64).to_string().parse()
            }
            (_, false) => Err(format!("field '{name}' must be a string")),
            (_, true) => Err(not_count(name)),
        }
    }

    fn decode_text(&self, _name: &str, s: &str) -> Result<K, String> {
        s.parse()
    }

    fn bounds(&self, name: &str, v: &K) -> Result<(), String> {
        if self.1.contains(&(self.0)(v)) {
            return Ok(());
        }
        Err(format!(
            "field '{name}' must be one of {}",
            self.1.join(", ")
        ))
    }

    fn encode(&self, v: &K, out: &mut String) {
        if self.2 {
            out.push_str((self.0)(v));
        } else {
            escape_into(out, (self.0)(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse as json;

    #[derive(Debug, Default, PartialEq)]
    struct Demo {
        count: u32,
        limit: Option<u64>,
        ratio: f64,
        tags: Vec<String>,
    }

    fn tag(s: &str) -> Result<(), String> {
        s.parse::<f64>()
            .map(|_| ())
            .map_err(|_| format!("bad tag '{s}'"))
    }

    crate::fields! {
        const DEMO: [Demo] = [
            count flag "--count": int(1, 100),
            limit: opt_int(1, u64::MAX),
            ratio: real_gt(0.0, 1.0),
            tags: texts(0, 4, tag),
        ];
    }

    #[test]
    fn rows_parse_strictly_and_canonicalise_in_key_order() {
        let parse_demo = |src: &str| parse(DEMO, &json(src).unwrap(), &["deadline_ms"]);
        let d = parse_demo(r#"{"tags":["2"],"ratio":0.25,"count":7,"deadline_ms":5}"#).unwrap();
        let canon = canonical(DEMO, &d, &[("a", "1"), ("m", "\"x\"")]);
        assert_eq!(
            canon,
            r#"{"a":1,"count":7,"limit":null,"m":"x","ratio":0.25,"tags":["2"]}"#
        );
        for (bad, error) in [
            (
                r#"{"cuont":1}"#,
                "unknown key 'cuont' (allowed: count, limit, ratio, tags, deadline_ms)",
            ),
            (r#"{"count":1,"count":2}"#, "duplicate key 'count'"),
            (
                r#"{"count":4294967297}"#,
                "field 'count' must be in 1..=100",
            ),
            (r#"{"count":1e300}"#, "field 'count' must be in 1..=100"),
            (
                r#"{"count":-1}"#,
                "field 'count' must be a non-negative integer",
            ),
            (r#"{"limit":0}"#, "field 'limit' must be at least 1"),
            (r#"{"ratio":0}"#, "field 'ratio' must be in (0, 1]"),
            (r#"{"tags":["x"]}"#, "bad tag 'x'"),
            ("[1]", "expected a JSON object"),
        ] {
            assert_eq!(parse_demo(bad).unwrap_err(), error, "{bad}");
        }
    }
}
