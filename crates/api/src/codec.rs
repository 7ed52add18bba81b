//! The declaration mechanism behind every wire object.
//!
//! A body is declared **once**, with [`wire!`]: each line names the Rust
//! field, its wire key and its *kind* (how the value is written, how it
//! is read back, and whether it may be absent). From that one list the
//! macro derives the `pub` struct, the encoder and the decoder, so a
//! new field is a one-line change and a key can no longer be emitted by
//! one half of the codec and ignored by the other.
//!
//! * **Encoding** appends straight into the caller's `String` in
//!   declaration order through one [`ObjectWriter`] — no intermediate
//!   [`Json`] tree (report contents are tens of KB).
//! * **Decoding** reads members out of a parsed [`Json`] object. The
//!   request side is strict: a non-object body, an unknown key or a
//!   present-but-mistyped value is a `config` error naming the key (a
//!   silently dropped override would run with the default and answer
//!   plausible wrong numbers). The response side tolerates unknown keys
//!   — response fields are additive within an API version.
//!
//! Kinds are plain values implementing [`Codec`]: the scalars [`TEXT`],
//! [`PAYLOAD`], [`UINT`], [`COUNT`], [`Positive`], [`Fixed`] and
//! [`Flag`]; the presence wrappers [`Opt`] (absent = `None`) and
//! [`Elide`] (absent = a default the encoder never writes); and the
//! structural [`Nested`] and [`List`]. Shapes with their own grammar
//! (config source, topology, span totals) implement [`Codec`] next to
//! their type.

use crate::error::SimError;
use crate::json::Json;
use scalesim_obs::json_escape_into;
use std::fmt::{Display, Write as _};

/// Which half of the protocol an object belongs to: it picks the error
/// prefix, the message shapes and whether unknown keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Request,
    Response,
}

impl Side {
    pub(crate) fn err(self, msg: impl Display) -> SimError {
        let side = match self {
            Side::Request => "request",
            Side::Response => "response",
        };
        SimError::Config(format!("{side}: {msg}"))
    }
}

/// What a declared object's decode errors say about it. A request
/// object's `label` is its name (`llm`, `features`); a response
/// object's is the phrase that introduces a missing member
/// (`run response: missing`, `report missing`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ctx {
    pub(crate) side: Side,
    pub(crate) label: &'static str,
}

impl Ctx {
    /// Request side: `v` must be an object carrying only declared keys.
    pub(crate) fn object(self, v: &Json, keys: &[&str]) -> Result<(), SimError> {
        if self.side == Side::Response {
            return Ok(());
        }
        let label = self.label;
        let fields = v
            .as_object()
            .ok_or_else(|| self.side.err(format!("{label}: expected an object")))?;
        match fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            None => Ok(()),
            Some((k, _)) => {
                let accepted = match keys {
                    [] => "none".to_string(),
                    keys => keys.join(", "),
                };
                Err(self.side.err(format!(
                    "{label}: unknown key \"{k}\" (accepted: {accepted})"
                )))
            }
        }
    }

    /// Member `key` of object `v` (absent when `v` is not an object).
    pub(crate) fn member<'a>(self, v: &'a Json, key: &'a str) -> Member<'a> {
        Member {
            cx: self,
            key,
            found: v.get(key),
        }
    }
}

/// One member of an object being decoded: the declaring object's
/// [`Ctx`], the key, and the value found there (`None` when absent).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member<'a> {
    pub(crate) cx: Ctx,
    pub(crate) key: &'a str,
    pub(crate) found: Option<&'a Json>,
}

impl<'a> Member<'a> {
    /// The error for this member being absent or of the wrong JSON
    /// type. `what` completes the request side's "must be …"; `lack`
    /// the response side's "missing or …" (`None` for members the
    /// response side reports through its label).
    pub(crate) fn bad(self, what: &str, lack: Option<&str>) -> SimError {
        let (label, key) = (self.cx.label, self.key);
        self.cx.side.err(match (self.cx.side, lack, self.found) {
            (Side::Response, Some(lack), _) => format!("missing or {lack} \"{key}\""),
            (Side::Response, None, _) => format!("{label} \"{key}\""),
            (Side::Request, _, None) => format!("{label}: missing required \"{key}\""),
            (Side::Request, _, Some(_)) => format!("{label}: \"{key}\" must be {what}"),
        })
    }

    /// The value, which must be present (a section, a nested object).
    pub(crate) fn required(self) -> Result<&'a Json, SimError> {
        self.found.ok_or_else(|| self.bad("an object", None))
    }
}

/// How one kind of value travels: written into the line, read back out
/// of a parsed object.
pub(crate) trait Codec<T> {
    /// True for the default value the encoder leaves out.
    fn elided(&self, _value: &T) -> bool {
        false
    }
    /// Appends the JSON value.
    fn write(&self, value: &T, out: &mut String);
    /// Decodes the member.
    fn read(&self, member: Member) -> Result<T, SimError>;
}

/// A declared object: what [`wire!`] implements.
pub(crate) trait Wire: Sized {
    /// Every key of the declaration, section names included.
    const KEYS: &'static [&'static str];
    fn write(&self, out: &mut String);
    fn read(v: &Json) -> Result<Self, SimError>;
}

/// The one writer: `{`, comma-separated `"key":value` members in call
/// order, `}`. Keys are identifiers and are written verbatim.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    pub(crate) fn open(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, empty: true }
    }

    /// Writes `"key":` and returns the line for the value to follow.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        self.out.push_str(if self.empty { "\"" } else { ",\"" });
        self.empty = false;
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    pub(crate) fn member<T>(&mut self, key: &str, value: &T, kind: &impl Codec<T>) {
        if !kind.elided(value) {
            kind.write(value, self.key(key));
        }
    }

    pub(crate) fn section(&mut self, key: &str) -> ObjectWriter<'_> {
        ObjectWriter::open(self.key(key))
    }

    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// Appends `s` as a JSON string.
pub(crate) fn quote(s: &str, out: &mut String) {
    out.push('"');
    json_escape_into(s, out);
    out.push('"');
}

/// A string, and what the response side calls a value that is not one.
pub(crate) struct Text(Option<&'static str>);
/// A short string (name, tag, label).
pub(crate) const TEXT: Text = Text(Some("non-string"));
/// The string a response exists to deliver (version line, trace JSON,
/// report contents): its absence is reported through the object's
/// label, like a missing section.
pub(crate) const PAYLOAD: Text = Text(None);

impl Codec<String> for Text {
    fn write(&self, value: &String, out: &mut String) {
        quote(value, out);
    }
    fn read(&self, member: Member) -> Result<String, SimError> {
        let text = member.found.and_then(Json::as_str);
        text.map(str::to_string)
            .ok_or_else(|| member.bad("a string", self.0))
    }
}

/// An integer no smaller than the given minimum, exact up to 2^53.
pub(crate) struct Int(u64);
/// A non-negative integer.
pub(crate) const UINT: Int = Int(0);
/// A count: an integer ≥ 1.
pub(crate) const COUNT: Int = Int(1);

impl<T: Copy + Display + TryFrom<u64>> Codec<T> for Int {
    fn write(&self, value: &T, out: &mut String) {
        let _ = write!(out, "{value}");
    }
    fn read(&self, member: Member) -> Result<T, SimError> {
        let what = match self.0 {
            0 => "a non-negative integer",
            _ => "a positive integer",
        };
        let int = member.found.and_then(Json::as_u64);
        int.filter(|&n| n >= self.0)
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| member.bad(what, Some("non-integer")))
    }
}

/// A float > 0, written in [`Json`]'s shortest form.
pub(crate) struct Positive;

impl Codec<f64> for Positive {
    fn write(&self, value: &f64, out: &mut String) {
        let _ = write!(out, "{}", Json::Num(*value));
    }
    fn read(&self, member: Member) -> Result<f64, SimError> {
        let number = member.found.and_then(Json::as_f64);
        number
            .filter(|n| *n > 0.0)
            .ok_or_else(|| member.bad("a positive number", Some("non-numeric")))
    }
}

/// A float written with a fixed number of decimals, so response lines
/// are byte-deterministic.
pub(crate) struct Fixed(pub usize);

impl Codec<f64> for Fixed {
    fn write(&self, value: &f64, out: &mut String) {
        let _ = write!(out, "{value:.*}", self.0);
    }
    fn read(&self, member: Member) -> Result<f64, SimError> {
        let number = member.found.and_then(Json::as_f64);
        number.ok_or_else(|| member.bad("a number", Some("non-numeric")))
    }
}

/// A boolean. A mistyped request flag is named `label.key` (the
/// spelling `features.dram must be a boolean` has always had).
pub(crate) struct Flag;

impl Codec<bool> for Flag {
    fn write(&self, value: &bool, out: &mut String) {
        out.push_str(if *value { "true" } else { "false" });
    }
    fn read(&self, member: Member) -> Result<bool, SimError> {
        let Member { cx, key, found } = member;
        match found.map(Json::as_bool) {
            Some(Some(flag)) => Ok(flag),
            Some(None) if cx.side == Side::Request => {
                Err(cx.side.err(format!("{}.{key} must be a boolean", cx.label)))
            }
            _ => Err(member.bad("a boolean", None)),
        }
    }
}

/// An optional member: absent decodes as `None`, `None` is not written.
pub(crate) struct Opt<K>(pub K);

impl<T, K: Codec<T>> Codec<Option<T>> for Opt<K> {
    fn elided(&self, value: &Option<T>) -> bool {
        value.is_none()
    }
    fn write(&self, value: &Option<T>, out: &mut String) {
        if let Some(value) = value {
            self.0.write(value, out);
        }
    }
    fn read(&self, member: Member) -> Result<Option<T>, SimError> {
        member.found.map(|_| self.0.read(member)).transpose()
    }
}

/// A member with a default: absent decodes as the default, and the
/// default is not written.
pub(crate) struct Elide<K, T>(pub K, pub T);

impl<T: Clone + PartialEq, K: Codec<T>> Codec<T> for Elide<K, T> {
    fn elided(&self, value: &T) -> bool {
        *value == self.1
    }
    fn write(&self, value: &T, out: &mut String) {
        self.0.write(value, out);
    }
    fn read(&self, member: Member) -> Result<T, SimError> {
        match member.found {
            None => Ok(self.1.clone()),
            Some(_) => self.0.read(member),
        }
    }
}

/// Another declared object.
pub(crate) struct Nested;

impl<T: Wire> Codec<T> for Nested {
    fn write(&self, value: &T, out: &mut String) {
        value.write(out);
    }
    fn read(&self, member: Member) -> Result<T, SimError> {
        T::read(member.required()?)
    }
}

/// An array of one kind. The response side has always reported a
/// missing list as `missing "key" array`.
pub(crate) struct List<K>(pub K);

impl<T, K: Codec<T>> Codec<Vec<T>> for List<K> {
    fn write(&self, value: &Vec<T>, out: &mut String) {
        out.push('[');
        for (i, item) in value.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.0.write(item, out);
        }
        out.push(']');
    }
    fn read(&self, member: Member) -> Result<Vec<T>, SimError> {
        let Member { cx, key, found } = member;
        match found.and_then(Json::as_array) {
            Some(items) => items
                .iter()
                .map(|item| {
                    let found = Some(item);
                    self.0.read(Member { found, ..member })
                })
                .collect(),
            None if cx.side == Side::Response => {
                Err(cx.side.err(format!("missing \"{key}\" array")))
            }
            None => Err(member.bad("an array", None)),
        }
    }
}

/// Declares wire objects — struct, encoder and decoder — each from one
/// field list:
///
/// ```text
/// wire! {
///     /// Docs and derives, as on any struct.
///     Request "llm" => pub struct LlmRequest {
///         /// Field docs.
///         pub seq: Option<usize> = "seq": Opt(COUNT),
///     }
/// }
/// ```
///
/// The header names the [`Side`] and the [`Ctx`] label. A response
/// body may open with `in "section" { … }` groups: their fields are
/// plain fields of the struct that travel inside a nested object.
/// `check path` after the label names a `fn(&Self) -> Result<(),
/// SimError>` every decoded value must pass.
macro_rules! wire {
    ($(
        $(#[$meta:meta])*
        $side:ident $label:literal $( check $check:path )? => pub struct $name:ident {
            $( in $section:literal {
                $( $(#[$smeta:meta])* pub $sfield:ident : $sty:ty = $skey:literal : $skind:expr, )*
            } )*
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty = $key:literal : $kind:expr, )*
        }
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $($( $(#[$smeta])* pub $sfield: $sty, )*)*
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $crate::codec::Wire for $name {
            const KEYS: &'static [&'static str] = &[$( $section, $( $skey, )* )* $( $key, )*];

            fn write(&self, out: &mut String) {
                let mut object = $crate::codec::ObjectWriter::open(out);
                $(
                    let mut section = object.section($section);
                    $( section.member($skey, &self.$sfield, &$skind); )*
                    section.close();
                )*
                $( object.member($key, &self.$field, &$kind); )*
                object.close();
            }

            fn read(v: &$crate::json::Json) -> Result<Self, $crate::error::SimError> {
                use $crate::codec::Codec as _;
                let cx = $crate::codec::Ctx {
                    side: $crate::codec::Side::$side,
                    label: $label,
                };
                cx.object(v, Self::KEYS)?;
                $(
                    let section = cx.member(v, $section).required()?;
                    $( let $sfield = $skind.read(cx.member(section, $skey))?; )*
                )*
                $( let $field = $kind.read(cx.member(v, $key))?; )*
                let decoded = Self { $($( $sfield, )*)* $( $field, )* };
                $( $check(&decoded)?; )?
                Ok(decoded)
            }
        }
    )+};
}
pub(crate) use wire;
