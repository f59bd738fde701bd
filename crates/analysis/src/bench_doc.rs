//! Typed BENCH documents: one type per schema, the single owner of its
//! file format.
//!
//! | schema             | type           | file                 | writer          |
//! |--------------------|----------------|----------------------|-----------------|
//! | `bench_core/v1`    | [`CoreDoc`]    | `BENCH_core.json`    | `bench_summary` |
//! | `fault_sweep/v2`   | [`FaultsDoc`]  | `BENCH_faults.json`  | `fault_sweep`   |
//! | `bench_churn/v1`   | [`ChurnDoc`]   | `BENCH_churn.json`   | `churn_sweep`   |
//! | `bench_awake/v1`   | [`AwakeDoc`]   | `BENCH_awake.json`   | `awake_sweep`   |
//! | `bench_service/v2` | [`ServiceDoc`] | `BENCH_service.json` | `load_gen`      |
//!
//! Each type is declared once, its fields in file order, and that one
//! declaration gives it `render()` (the writer's layout: one top-level
//! field per line, one row object per line, each float at the decimals
//! its writer prints) and `parse()` (through [`Json`]: any indentation
//! reads back, a truncated file is a parse error, every field is
//! required and typed, unknown fields are rejected, and `protocol` and
//! `strategy` go through the [`Protocol`] and [`MaintainStrategy`]
//! registries). Its `check()` holds the invariants the file certifies.
//! For every file a writer produced, `render(parse(text)) == text` byte
//! for byte. [`check()`] dispatches on the `schema` tag; `bench_summary
//! --check PATH` is its front end. The columns are documented with their
//! writers.

use crate::json::{Json, JsonError};
use emst_core::{MaintainStrategy, Protocol};

/// Why a BENCH document failed to parse or check.
#[derive(Debug, Clone, PartialEq)]
pub enum DocError {
    /// The text is not JSON (a truncated file lands here).
    Json(JsonError),
    /// Valid JSON that does not follow the schema: unknown tag, or a
    /// missing, mistyped or unknown field.
    Schema(String),
    /// A well-formed document whose contents break an invariant.
    Invariant(String),
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::Json(e) => write!(f, "not json: {e}"),
            DocError::Schema(msg) => write!(f, "schema: {msg}"),
            DocError::Invariant(msg) => write!(f, "invariant: {msg}"),
        }
    }
}

impl std::error::Error for DocError {}

/// Parses `text` under the schema its `schema` tag names and checks that
/// schema's invariants; returns the tag.
pub fn check(text: &str) -> Result<&'static str, DocError> {
    fn checked<T: Object>(
        json: &Json,
        tag: &'static str,
        check: fn(&T) -> Result<(), DocError>,
    ) -> Result<&'static str, DocError> {
        check(&read_doc(json, tag)?).map(|()| tag)
    }
    let json = Json::parse(text).map_err(DocError::Json)?;
    match json.get("schema").and_then(Json::as_str) {
        Some(CoreDoc::SCHEMA) => checked(&json, CoreDoc::SCHEMA, CoreDoc::check),
        Some(FaultsDoc::SCHEMA) => checked(&json, FaultsDoc::SCHEMA, FaultsDoc::check),
        Some(ChurnDoc::SCHEMA) => checked(&json, ChurnDoc::SCHEMA, ChurnDoc::check),
        Some(AwakeDoc::SCHEMA) => checked(&json, AwakeDoc::SCHEMA, AwakeDoc::check),
        Some(ServiceDoc::SCHEMA) => checked(&json, ServiceDoc::SCHEMA, ServiceDoc::check),
        tag => Err(DocError::Schema(format!("unknown schema tag {tag:?}"))),
    }
}

/// Declares BENCH objects: structs whose fields, in file order, are
/// their JSON keys, each with its reader and renderer. An `f64` field
/// carries the decimals its writer prints (`= 3`); without them it
/// prints the shortest form that reads back exactly. A schema tag after
/// the name (`= "…"`) makes the object a top-level document with
/// `SCHEMA`, `parse()` and `render()`.
macro_rules! bench_objects {
    ($(
        $(#[$meta:meta])*
        $name:ident $(= $tag:literal)? {
            $($field:ident: $ty:ty $(= $decimals:literal)?,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $(pub $field: $ty,)*
        }

        impl Object for $name {
            const KEYS: &'static [&'static str] = &[$(stringify!($field)),*];

            fn from_json(json: &Json, at: &str) -> Result<Self, DocError> {
                Ok($name {
                    $($field: field(json, at, stringify!($field))?,)*
                })
            }

            fn values(&self) -> Vec<Option<String>> {
                vec![$(self.$field.show(decimals!($($decimals)?)),)*]
            }
        }

        $(impl $name {
            /// The schema tag.
            pub const SCHEMA: &'static str = $tag;

            /// Parses a document of this schema.
            pub fn parse(text: &str) -> Result<$name, DocError> {
                read_doc(&Json::parse(text).map_err(DocError::Json)?, $tag)
            }

            /// Renders the document in its writer's format.
            pub fn render(&self) -> String {
                render_doc($tag, self)
            }
        })?
    )*};
}

macro_rules! decimals {
    () => {
        None
    };
    ($decimals:literal) => {
        Some($decimals)
    };
}

bench_objects! {
    /// A recorded claim at one instance size, and whether it held.
    #[derive(Copy, PartialEq, Eq)]
    Verdict {
        n: usize,
        pass: bool,
    }

    /// `BENCH_core.json`: per-protocol wall time and throughput.
    CoreDoc = "bench_core/v1" {
        seed: u64,
        reps: usize,
        guard: Option<WallGuard>,
        flatness: Option<FlatGuard>,
        rows: Vec<CoreRow>,
    }

    /// The wall-time regression guard of a [`CoreDoc`].
    WallGuard {
        protocol: Protocol,
        n: usize,
        baseline_mean_ms: f64,
        max_ratio: f64,
        measured_best_ms: f64 = 3,
        ratio: f64 = 3,
        pass: bool,
    }

    /// The throughput-flatness guard of a [`CoreDoc`].
    FlatGuard {
        protocol: Protocol,
        base_n: usize,
        target_n: usize,
        min_ratio: f64,
        ratio: f64 = 3,
        pass: bool,
    }

    /// One `(protocol, n)` row of a [`CoreDoc`].
    CoreRow {
        protocol: Protocol,
        n: usize,
        mean_ms: f64 = 3,
        best_ms: f64 = 3,
        nodes_per_s: f64 = 0,
        messages: u64,
        best_msgs_per_s: f64 = 0,
    }

    /// `BENCH_faults.json`: reliability under link loss, with and without
    /// repair.
    FaultsDoc = "fault_sweep/v2" {
        seed: u64,
        trials: usize,
        rows: Vec<FaultsRow>,
    }

    /// One `(protocol, n, p)` row of a [`FaultsDoc`]: means over the
    /// trials, `degraded_stage` the modal stage that exhausted its retry
    /// budget (`null` when no trial degraded).
    FaultsRow {
        protocol: Protocol,
        n: usize,
        p: f64,
        completed: f64 = 3,
        repaired: f64 = 3,
        weight_ratio: f64 = 4,
        energy: f64 = 3,
        energy_x: f64 = 3,
        repaired_energy: f64 = 3,
        repair_attempts: f64 = 2,
        drops: f64 = 1,
        retries: f64 = 1,
        timeouts: f64 = 1,
        degraded_stage: Option<String>,
    }

    /// `BENCH_churn.json`: incremental maintenance vs recomputation.
    ChurnDoc = "bench_churn/v1" {
        seed: u64,
        trials: usize,
        epochs: usize,
        violations: u64,
        incremental_win: Verdict,
        rows: Vec<ChurnRow>,
    }

    /// One `(n, rate, strategy)` row of a [`ChurnDoc`]: means over the
    /// trials.
    #[derive(Default)]
    ChurnRow {
        n: usize,
        rate: f64,
        strategy: MaintainStrategy,
        epochs: usize,
        bootstrap_energy: f64 = 4,
        maintenance_energy: f64 = 4,
        energy_per_round: f64 = 5,
        messages: f64 = 1,
        rounds: f64 = 1,
        edges_added: f64 = 1,
        edges_removed: f64 = 1,
        violations: u64,
    }

    /// `BENCH_awake.json`: awake rounds next to energy across protocols.
    AwakeDoc = "bench_awake/v1" {
        seed: u64,
        trials: usize,
        lowawake_win: Verdict,
        rows: Vec<AwakeRow>,
    }

    /// One `(n, protocol)` row of an [`AwakeDoc`]: means over the trials.
    AwakeRow {
        n: usize,
        protocol: Protocol,
        awake_total: f64 = 1,
        awake_max: f64 = 1,
        energy: f64 = 4,
        messages: f64 = 1,
        rounds: f64 = 1,
    }

    /// `BENCH_service.json`: closed-loop throughput and latency of the
    /// trial server.
    ServiceDoc = "bench_service/v2" {
        clients: usize,
        requests: usize,
        n: usize,
        protocol: Protocol,
        cold_ratio: f64,
        warm_keys: usize,
        wall_s: f64,
        rps: f64,
        p50_ms: f64,
        p99_ms: f64,
        cache_hits: u64,
        cache_misses: u64,
        cache_hit_rate: f64,
        cache_evictions: u64,
        responses_2xx: u64,
        responses_4xx: u64,
        responses_5xx: u64,
        retries: u64,
        turnaways: u64,
    }
}

/// Returns an invariant error with the formatted message unless `cond`
/// holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(DocError::Invariant(format!($($msg)+)));
        }
    };
}

impl CoreDoc {
    /// Rows present and every recorded guard passed.
    pub fn check(&self) -> Result<(), DocError> {
        ensure!(!self.rows.is_empty(), "rows array is empty");
        if let Some(g) = &self.guard {
            ensure!(g.pass, "wall-time guard tripped at {:.3}x", g.ratio);
        }
        if let Some(f) = &self.flatness {
            ensure!(
                f.pass,
                "throughput-flatness guard tripped at {:.3}x",
                f.ratio
            );
        }
        Ok(())
    }
}

impl FaultsDoc {
    /// Rows present, probabilities and fractions in [0, 1], and each
    /// `p = 0` row its protocol's own energy baseline.
    pub fn check(&self) -> Result<(), DocError> {
        ensure!(!self.rows.is_empty(), "rows array is empty");
        for (i, r) in self.rows.iter().enumerate() {
            let fractions = [r.p, r.completed, r.repaired];
            ensure!(
                fractions.iter().all(|x| *x <= 1.0),
                "rows[{i}]: p, completed or repaired above 1"
            );
            ensure!(
                r.p > 0.0 || r.energy_x == 1.0,
                "rows[{i}]: the p = 0 row has energy_x {}",
                r.energy_x
            );
        }
        Ok(())
    }
}

impl ChurnDoc {
    /// The claim `rows` support: at the largest size, incremental
    /// maintenance spends less energy than recomputation at some rate.
    pub fn incremental_win_of(rows: &[ChurnRow]) -> Verdict {
        let n = rows.iter().map(|r| r.n).max().unwrap_or(0);
        let energy = |rate: f64, strategy| {
            rows.iter()
                .find(|r| r.n == n && r.rate == rate && r.strategy == strategy)
                .map(|r| r.maintenance_energy)
        };
        let pass = rows.iter().any(|r| {
            r.n == n
                && r.strategy == MaintainStrategy::Incremental
                && energy(r.rate, MaintainStrategy::Recompute)
                    .is_some_and(|rec| r.maintenance_energy < rec)
        });
        Verdict { n, pass }
    }

    /// Rows present, zero violations, and the incremental win — recorded
    /// and re-derived from the rows.
    pub fn check(&self) -> Result<(), DocError> {
        ensure!(!self.rows.is_empty(), "rows array is empty");
        let violations = self.rows.iter().map(|r| r.violations).sum::<u64>() + self.violations;
        ensure!(violations == 0, "records {violations} invariant violations");
        let win = Self::incremental_win_of(&self.rows);
        ensure!(
            self.incremental_win.pass && win == self.incremental_win,
            "incremental maintenance does not beat recomputation at n={}",
            win.n
        );
        Ok(())
    }
}

impl AwakeDoc {
    /// The claim `rows` support: at the largest size, `ghs_lowawake`'s
    /// busiest node is awake for fewer rounds than `ghs_modified`'s.
    pub fn lowawake_win_of(rows: &[AwakeRow]) -> Verdict {
        let n = rows.iter().map(|r| r.n).max().unwrap_or(0);
        let awake_max = |name: &str| {
            rows.iter()
                .find(|r| r.n == n && r.protocol.name() == name)
                .map(|r| r.awake_max)
        };
        let pass = matches!(
            (awake_max("ghs_lowawake"), awake_max("ghs_modified")),
            (Some(low), Some(ghs)) if low < ghs
        );
        Verdict { n, pass }
    }

    /// Rows present and the low-awake pin — recorded and re-derived from
    /// the rows.
    pub fn check(&self) -> Result<(), DocError> {
        ensure!(!self.rows.is_empty(), "rows array is empty");
        let win = Self::lowawake_win_of(&self.rows);
        ensure!(
            self.lowawake_win.pass && win == self.lowawake_win,
            "low-awake pin broken: ghs_lowawake does not beat ghs_modified on max awake \
             rounds at n={}",
            win.n
        );
        Ok(())
    }
}

impl ServiceDoc {
    /// Positive throughput, `p50 ≤ p99`, ratios in [0, 1] and no server
    /// errors.
    pub fn check(&self) -> Result<(), DocError> {
        let (p50, p99) = (self.p50_ms, self.p99_ms);
        ensure!(self.rps > 0.0, "rps is {} (want > 0)", self.rps);
        ensure!(
            p50 <= p99,
            "latency percentiles disordered (p50 {p50} ms, p99 {p99} ms)"
        );
        ensure!(
            self.cold_ratio <= 1.0,
            "cold_ratio is {} (want [0, 1])",
            self.cold_ratio
        );
        ensure!(
            self.cache_hit_rate <= 1.0,
            "cache_hit_rate is {} (want [0, 1])",
            self.cache_hit_rate
        );
        ensure!(
            self.responses_5xx == 0,
            "records {} server errors (5xx)",
            self.responses_5xx
        );
        Ok(())
    }
}

/// Reads a whole document whose `schema` tag must be `tag`.
fn read_doc<T: Object>(json: &Json, tag: &str) -> Result<T, DocError> {
    match json.get("schema").and_then(Json::as_str) {
        Some(found) if found == tag => read_object(json, "document", &["schema"]),
        found => Err(DocError::Schema(format!(
            "schema tag {found:?}, want {tag:?}"
        ))),
    }
}

/// The top-level layout every writer shares: one field per line at a
/// two-space indent, the schema tag first.
fn render_doc<T: Object>(tag: &str, doc: &T) -> String {
    let schema = format!("\"schema\": \"{tag}\"");
    let lines: Vec<String> = std::iter::once(schema)
        .chain(doc.fields())
        .map(|line| format!("  {line}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Reads `json` as a `T`; `at` names it in errors, `known` lists keys
/// read elsewhere. A key no field declares is a schema error, so a
/// drifted writer cannot add columns nobody checks.
fn read_object<T: Object>(json: &Json, at: &str, known: &[&str]) -> Result<T, DocError> {
    let mut keys = json
        .keys()
        .ok_or_else(|| DocError::Schema(format!("{at}: not an object")))?;
    match keys.find(|k| !T::KEYS.contains(k) && !known.contains(k)) {
        Some(key) => Err(DocError::Schema(format!("{at}: unknown field {key:?}"))),
        None => T::from_json(json, at),
    }
}

/// Reads the field `key` of the object `json` found at `at`.
fn field<T: Cell>(json: &Json, at: &str, key: &str) -> Result<T, DocError> {
    T::read(json.get(key), &format!("{at}.{key}"))
}

/// A struct declared by `bench_objects!`.
trait Object: Sized {
    /// Its keys, in file order.
    const KEYS: &'static [&'static str];

    fn from_json(json: &Json, at: &str) -> Result<Self, DocError>;

    /// Each field's text in `KEYS` order; `None` omits the field.
    fn values(&self) -> Vec<Option<String>>;

    /// `"key": value` per present field.
    fn fields(&self) -> impl Iterator<Item = String> {
        let values = self.values().into_iter();
        let fields = Self::KEYS.iter().zip(values);
        fields.filter_map(|(key, value)| Some(format!("\"{key}\": {}", value?)))
    }
}

/// A value that can fill a BENCH field.
trait Cell: Sized {
    /// Reads the field's value (`None`: its key is absent); `at` names
    /// the field in errors.
    fn read(v: Option<&Json>, at: &str) -> Result<Self, DocError>;

    /// The field's text, floats at `decimals`; `None` omits the field.
    fn show(&self, decimals: Option<usize>) -> Option<String>;
}

fn typed<T>(v: Option<T>, at: &str) -> Result<T, DocError> {
    v.ok_or_else(|| DocError::Schema(format!("{at}: missing or mistyped")))
}

/// Cells holding one JSON scalar: how to read it and how to print it.
macro_rules! scalar_cells {
    ($($ty:ty: $read:expr, $show:expr;)*) => {$(
        impl Cell for $ty {
            fn read(v: Option<&Json>, at: &str) -> Result<Self, DocError> {
                typed(v.and_then($read), at)
            }

            fn show(&self, _: Option<usize>) -> Option<String> {
                Some($show(self))
            }
        }
    )*};
}

scalar_cells! {
    u64: Json::as_u64, u64::to_string;
    usize: |v: &Json| v.as_u64()?.try_into().ok(), usize::to_string;
    bool: Json::as_bool, bool::to_string;
    Protocol: |v: &Json| Protocol::from_name(v.as_str()?, 0), |p: &Protocol| quote(p.name());
    MaintainStrategy: |v: &Json| MaintainStrategy::from_name(v.as_str()?),
        |s: &MaintainStrategy| quote(s.name());
    // A string or `null`.
    Option<String>: |v: &Json| match v {
        Json::Null => Some(None),
        v => v.as_str().map(|s| Some(s.to_string())),
    }, |s: &Option<String>| s.as_deref().map_or("null".into(), quote);
}

fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

impl Cell for f64 {
    /// Every float a BENCH document records is a time, rate, count,
    /// energy or ratio, so a negative one is mistyped.
    fn read(v: Option<&Json>, at: &str) -> Result<Self, DocError> {
        typed(v.and_then(Json::as_f64).filter(|x| *x >= 0.0), at)
    }

    fn show(&self, decimals: Option<usize>) -> Option<String> {
        Some(match decimals {
            Some(d) => format!("{self:.d$}"),
            None => self.to_string(),
        })
    }
}

/// A nested object, printed on one line.
impl<T: Object> Cell for T {
    fn read(v: Option<&Json>, at: &str) -> Result<Self, DocError> {
        read_object(typed(v, at)?, at, &[])
    }

    fn show(&self, _: Option<usize>) -> Option<String> {
        Some(format!(
            "{{{}}}",
            self.fields().collect::<Vec<_>>().join(", ")
        ))
    }
}

/// An object the writer may leave out.
impl<T: Object> Cell for Option<T> {
    fn read(v: Option<&Json>, at: &str) -> Result<Self, DocError> {
        v.map(|v| read_object(v, at, &[])).transpose()
    }

    fn show(&self, decimals: Option<usize>) -> Option<String> {
        self.as_ref()?.show(decimals)
    }
}

/// A `rows` array: one row object per line.
impl<T: Object> Cell for Vec<T> {
    fn read(v: Option<&Json>, at: &str) -> Result<Self, DocError> {
        let rows = typed(v.and_then(Json::as_arr), at)?;
        let rows = rows.iter().enumerate();
        rows.map(|(i, row)| read_object(row, &format!("{at}[{i}]"), &[]))
            .collect()
    }

    fn show(&self, _: Option<usize>) -> Option<String> {
        let rows: Vec<String> = self.iter().filter_map(|row| row.show(None)).collect();
        Some(format!("[\n    {}\n  ]", rows.join(",\n    ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: &str = r#"{
  "schema": "bench_churn/v1",
  "seed": 7,
  "trials": 1,
  "epochs": 2,
  "violations": 0,
  "incremental_win": {"n": 300, "pass": true},
  "rows": [
    {"n": 300, "rate": 0.01, "strategy": "incremental", "epochs": 2, "bootstrap_energy": 1.0000, "maintenance_energy": 0.5000, "energy_per_round": 0.10000, "messages": 10.0, "rounds": 5.0, "edges_added": 1.0, "edges_removed": 1.0, "violations": 0},
    {"n": 300, "rate": 0.01, "strategy": "recompute", "epochs": 2, "bootstrap_energy": 1.0000, "maintenance_energy": 2.0000, "energy_per_round": 0.20000, "messages": 40.0, "rounds": 10.0, "edges_added": 1.0, "edges_removed": 1.0, "violations": 0}
  ]
}
"#;

    #[test]
    fn round_trips_and_checks() {
        let doc = ChurnDoc::parse(CHURN).unwrap();
        assert_eq!(doc.render(), CHURN);
        doc.check().unwrap();
        assert_eq!(check(CHURN), Ok(ChurnDoc::SCHEMA));
    }

    #[test]
    fn reindented_documents_parse() {
        let flat: String = CHURN.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(ChurnDoc::parse(&flat).unwrap().render(), CHURN);
    }

    #[test]
    fn schema_drift_is_a_parse_error() {
        for (from, to) in [
            ("\"strategy\": \"recompute\"", "\"strategy\": \"rebuild\""),
            (
                "\"edges_removed\": 1.0, \"violations\": 0}\n  ]",
                "\"violations\": 0}\n  ]",
            ),
            ("\"epochs\": 2,", "\"epochs\": 2, \"extra\": 1,"),
            ("\"seed\": 7", "\"seed\": -7"),
            ("\"rate\": 0.01", "\"rate\": -0.01"),
            ("bench_churn/v1", "bench_churn/v9"),
        ] {
            let text = CHURN.replacen(from, to, 1);
            assert!(
                matches!(check(&text), Err(DocError::Schema(_))),
                "accepted {to:?}"
            );
        }
        assert!(matches!(
            check(&CHURN[..CHURN.len() / 2]),
            Err(DocError::Json(_))
        ));
        assert!(AwakeDoc::parse(CHURN).is_err(), "wrong schema for the type");
    }

    #[test]
    fn check_rejects_broken_invariants() {
        for (from, to) in [
            ("2.0000", "0.2500"),
            ("\"violations\": 0", "\"violations\": 3"),
            ("\"pass\": true", "\"pass\": false"),
        ] {
            let text = CHURN.replacen(from, to, 1);
            assert!(
                matches!(check(&text), Err(DocError::Invariant(_))),
                "accepted {to:?}"
            );
        }
    }
}
