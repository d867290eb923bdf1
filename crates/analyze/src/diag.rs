//! The diagnostics model: stable codes, severities, spans, and the text
//! and JSON renderers shared by the prepare-time hook, EXPLAIN, and the
//! `fsdm-analyze` lint binary.

use std::fmt;

use fsdm_sqljson::Span;

/// How bad a finding is. `Error` findings fail the workload-lint CI
/// budget; warnings and infos are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: a tuning or materialization opportunity.
    Info,
    /// Suspicious: the query almost certainly does not mean this.
    Warning,
    /// Provably wrong against the observed collection.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The stable diagnostic codes. Numbering is append-only: codes are part
/// of the CI contract and never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// FA001: the path names a field no ingested document has.
    UnknownPath,
    /// FA002: a comparison or item method is inconsistent with every
    /// scalar kind observed at the path.
    TypeMismatch,
    /// FA003: a filter predicate that constant-folds to true or false.
    DeadPredicate,
    /// FA004: an array step over a path never observed as an array, or a
    /// strict-mode field step that would need an explicit `[*]`.
    MissingArrayStep,
    /// FA005: the path occurs in fewer documents than the `add_vc`
    /// frequency threshold.
    LowFrequencyPath,
    /// FA006: the path fails `JsonPath::is_streamable`, so TEXT storage
    /// streams only the path's streamable prefix and runs the DOM engine
    /// on the captured subtree.
    UnstreamablePath,
    /// FA007: a singleton-scalar path eligible for `add_vc` that is not
    /// materialized as a virtual column.
    VcCandidate,
    /// PK001: a plan expression references a column position outside its
    /// input schema, or a scan/view names a table/view that does not
    /// exist.
    UnknownColumn,
    /// PK002: a predicate, aggregate argument, or join key whose operand
    /// types can never compare/compute under the executor's coercion
    /// rules.
    PlanTypeMismatch,
    /// PK003: a comparison against an operand that is always SQL NULL, so
    /// the predicate can never be true under three-valued logic.
    NullComparison,
    /// PK004: wrong scalar-function/aggregate arity, or duplicate output
    /// column names in a Project/GroupBy/Window schema.
    ArityMismatch,
    /// PK005: a Sort or window ORDER BY key that does not pin an order
    /// (empty key list, constant key, or duplicated key expression).
    UnstableOrderKey,
    /// PK006: an optimizer rewrite changed the plan's inferred schema,
    /// nullability, determinism, or parallel-safety class, or failed the
    /// idempotence check.
    RewriteDivergence,
    /// SN001: a function may acquire a lock it (transitively) already
    /// holds — a guaranteed deadlock on `std::sync::Mutex`.
    DoubleLock,
    /// SN002: two locks are acquired against the catalog-declared lock
    /// hierarchy (higher rank while holding a lower rank).
    LockOrderInversion,
    /// SN003: a lock guard is live across a call into the morsel
    /// executor, serializing the parallel pipeline.
    LockAcrossExecutor,
    /// SN004: a lock guard is live across a panic-capable site
    /// (`unwrap`, `expect`, slice indexing), risking mutex poisoning.
    LockAcrossPanic,
    /// SN005: an atomic operation's `Ordering` violates the
    /// catalog-declared discipline for that atomic (monotonic counters
    /// stay `Relaxed`; handshakes need `Acquire`/`Release`).
    AtomicOrdering,
    /// SN006: a scoped-worker closure captures a `&mut` binding that
    /// outlives the spawn site, aliasing it across workers.
    MutCaptureAliasing,
    /// SN007: a thread is spawned outside the morsel executor
    /// (`crates/store/src/parallel.rs`), bypassing the degree control.
    SpawnOutsideExecutor,
    /// SN008: a failpoint is fired with a name that is not a constant
    /// declared in `fsdm_fault::catalog` (or the catalog file and its
    /// `ALL` slice disagree), so the name could never be armed.
    UndeclaredFailpoint,
}

impl Code {
    /// The stable `FAnnn` identifier.
    pub fn id(&self) -> &'static str {
        match self {
            Code::UnknownPath => "FA001",
            Code::TypeMismatch => "FA002",
            Code::DeadPredicate => "FA003",
            Code::MissingArrayStep => "FA004",
            Code::LowFrequencyPath => "FA005",
            Code::UnstreamablePath => "FA006",
            Code::VcCandidate => "FA007",
            Code::UnknownColumn => "PK001",
            Code::PlanTypeMismatch => "PK002",
            Code::NullComparison => "PK003",
            Code::ArityMismatch => "PK004",
            Code::UnstableOrderKey => "PK005",
            Code::RewriteDivergence => "PK006",
            Code::DoubleLock => "SN001",
            Code::LockOrderInversion => "SN002",
            Code::LockAcrossExecutor => "SN003",
            Code::LockAcrossPanic => "SN004",
            Code::AtomicOrdering => "SN005",
            Code::MutCaptureAliasing => "SN006",
            Code::SpawnOutsideExecutor => "SN007",
            Code::UndeclaredFailpoint => "SN008",
        }
    }

    /// Kebab-case name, matching the issue-tracker vocabulary.
    pub fn slug(&self) -> &'static str {
        match self {
            Code::UnknownPath => "unknown-path",
            Code::TypeMismatch => "type-mismatch",
            Code::DeadPredicate => "dead-predicate",
            Code::MissingArrayStep => "missing-array-step",
            Code::LowFrequencyPath => "low-frequency-path",
            Code::UnstreamablePath => "unstreamable-path",
            Code::VcCandidate => "vc-candidate",
            Code::UnknownColumn => "unknown-column",
            Code::PlanTypeMismatch => "plan-type-mismatch",
            Code::NullComparison => "null-comparison",
            Code::ArityMismatch => "arity-or-duplicate",
            Code::UnstableOrderKey => "unstable-order-key",
            Code::RewriteDivergence => "rewrite-divergence",
            Code::DoubleLock => "double-lock",
            Code::LockOrderInversion => "lock-order-inversion",
            Code::LockAcrossExecutor => "lock-across-executor",
            Code::LockAcrossPanic => "lock-across-panic",
            Code::AtomicOrdering => "atomic-ordering",
            Code::MutCaptureAliasing => "mut-capture-aliasing",
            Code::SpawnOutsideExecutor => "spawn-outside-executor",
            Code::UndeclaredFailpoint => "undeclared-failpoint",
        }
    }

    /// Severity a finding of this code carries.
    pub fn severity(&self) -> Severity {
        match self {
            Code::UnknownPath => Severity::Error,
            Code::TypeMismatch | Code::DeadPredicate | Code::MissingArrayStep => Severity::Warning,
            Code::LowFrequencyPath => Severity::Warning,
            Code::UnstreamablePath | Code::VcCandidate => Severity::Info,
            Code::UnknownColumn | Code::PlanTypeMismatch => Severity::Error,
            Code::ArityMismatch | Code::RewriteDivergence => Severity::Error,
            Code::NullComparison | Code::UnstableOrderKey => Severity::Warning,
            // every concurrency finding is a correctness hazard: there
            // is no advisory tier for a deadlock or a data race
            Code::DoubleLock
            | Code::LockOrderInversion
            | Code::LockAcrossExecutor
            | Code::LockAcrossPanic
            | Code::AtomicOrdering
            | Code::MutCaptureAliasing
            | Code::SpawnOutsideExecutor
            | Code::UndeclaredFailpoint => Severity::Error,
        }
    }
}

/// One finding of the semantic analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to `code.severity()`).
    pub severity: Severity,
    /// Location inside [`Diagnostic::path`] (the shared
    /// [`fsdm_sqljson::Span`] position type of the path parser).
    pub span: Span,
    /// Text of the path expression the finding is about.
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analyzer can tell.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a finding at `span` of `path` with the code's default
    /// severity.
    pub fn new(code: Code, span: Span, path: &str, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            path: path.to_string(),
            message,
            help: None,
        }
    }

    /// Attach a help suggestion.
    pub fn with_help(mut self, help: &str) -> Diagnostic {
        self.help = Some(help.to_string());
        self
    }

    /// The offending snippet of the path text, char-boundary safe.
    pub fn snippet(&self) -> &str {
        self.span.slice(&self.path)
    }

    /// One JSON object (the lint binary's `--json` element shape).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        push_kv(&mut out, "code", self.code.id());
        out.push_str(", ");
        push_kv(&mut out, "name", self.code.slug());
        out.push_str(", ");
        push_kv(&mut out, "severity", self.severity.label());
        out.push_str(&format!(", \"start\": {}, \"end\": {}, ", self.span.start, self.span.end));
        push_kv(&mut out, "path", &self.path);
        out.push_str(", ");
        push_kv(&mut out, "message", &self.message);
        if let Some(h) = &self.help {
            out.push_str(", ");
            push_kv(&mut out, "help", h);
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    /// Compiler-style text rendering:
    ///
    /// ```text
    /// FA001 error [unknown-path]: no ingested document has field `persno` — $.persno (near `.persno`)
    ///   help: check the field name against the DataGuide
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {} — {}",
            self.code.id(),
            self.severity.label(),
            self.code.slug(),
            self.message,
            self.path
        )?;
        let near = self.snippet();
        if !near.is_empty() && near != self.path {
            write!(f, " (near `{near}`)")?;
        }
        if let Some(h) = &self.help {
            write!(f, "\n  help: {h}")?;
        }
        Ok(())
    }
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": \"");
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a batch of findings as a text report, one finding per
/// paragraph, sorted most severe first (stable within a severity).
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let mut out = String::new();
    for d in sorted {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Render a batch of findings as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&d.render_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(
            Code::UnknownPath,
            Span::new(1, 8),
            "$.persno",
            "no ingested document has field `persno`".to_string(),
        )
        .with_help("check the field name against the DataGuide")
    }

    #[test]
    fn codes_are_stable() {
        let all = [
            Code::UnknownPath,
            Code::TypeMismatch,
            Code::DeadPredicate,
            Code::MissingArrayStep,
            Code::LowFrequencyPath,
            Code::UnstreamablePath,
            Code::VcCandidate,
            Code::UnknownColumn,
            Code::PlanTypeMismatch,
            Code::NullComparison,
            Code::ArityMismatch,
            Code::UnstableOrderKey,
            Code::RewriteDivergence,
            Code::DoubleLock,
            Code::LockOrderInversion,
            Code::LockAcrossExecutor,
            Code::LockAcrossPanic,
            Code::AtomicOrdering,
            Code::MutCaptureAliasing,
            Code::SpawnOutsideExecutor,
            Code::UndeclaredFailpoint,
        ];
        let ids: Vec<&str> = all.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            vec![
                "FA001", "FA002", "FA003", "FA004", "FA005", "FA006", "FA007", "PK001", "PK002",
                "PK003", "PK004", "PK005", "PK006", "SN001", "SN002", "SN003", "SN004", "SN005",
                "SN006", "SN007", "SN008",
            ]
        );
        for c in all {
            assert!(c.slug().chars().all(|ch| ch.is_ascii_lowercase() || ch == '-'));
        }
        assert_eq!(Code::UnknownPath.severity(), Severity::Error);
        assert_eq!(Code::UnknownColumn.severity(), Severity::Error);
        assert_eq!(Code::DoubleLock.severity(), Severity::Error);
        assert_eq!(Code::SpawnOutsideExecutor.severity(), Severity::Error);
        assert!(Severity::Error > Severity::Warning && Severity::Warning > Severity::Info);
    }

    #[test]
    fn code_registry_has_no_duplicates_or_gaps() {
        // same discipline as the obs metric catalog: each series is
        // contiguous from 001 and every id/slug is unique
        let all = [
            Code::UnknownPath,
            Code::TypeMismatch,
            Code::DeadPredicate,
            Code::MissingArrayStep,
            Code::LowFrequencyPath,
            Code::UnstreamablePath,
            Code::VcCandidate,
            Code::UnknownColumn,
            Code::PlanTypeMismatch,
            Code::NullComparison,
            Code::ArityMismatch,
            Code::UnstableOrderKey,
            Code::RewriteDivergence,
            Code::DoubleLock,
            Code::LockOrderInversion,
            Code::LockAcrossExecutor,
            Code::LockAcrossPanic,
            Code::AtomicOrdering,
            Code::MutCaptureAliasing,
            Code::SpawnOutsideExecutor,
            Code::UndeclaredFailpoint,
        ];
        for series in ["FA", "PK", "SN"] {
            let mut nums: Vec<u32> = all
                .iter()
                .map(|c| c.id())
                .filter(|id| id.starts_with(series))
                .filter_map(|id| id[2..].parse().ok())
                .collect();
            nums.sort_unstable();
            let expect: Vec<u32> = (1..=nums.len() as u32).collect();
            assert_eq!(nums, expect, "{series} series must be contiguous from 001");
        }
        let mut slugs: Vec<&str> = all.iter().map(|c| c.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), all.len(), "slugs must be unique");
    }

    #[test]
    fn text_rendering_has_code_path_and_help() {
        let text = sample().to_string();
        assert!(text.starts_with("FA001 error [unknown-path]:"), "{text}");
        assert!(text.contains("$.persno"), "{text}");
        assert!(text.contains("near `.persno`"), "{text}");
        assert!(text.contains("help: check the field name"), "{text}");
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut d = sample();
        d.message = "odd \"quote\"".to_string();
        let json = d.render_json();
        assert!(json.contains("\"code\": \"FA001\""), "{json}");
        assert!(json.contains("\"severity\": \"error\""), "{json}");
        assert!(json.contains("odd \\\"quote\\\""), "{json}");
        assert!(json.contains("\"start\": 1, \"end\": 8"), "{json}");
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'), "{arr}");
        assert_eq!(arr.matches("\"code\"").count(), 2);
    }

    #[test]
    fn batch_text_sorts_errors_first() {
        let info = Diagnostic::new(Code::VcCandidate, Span::point(0), "$.a", "vc".to_string());
        let err = sample();
        let text = render_text(&[info, err]);
        let first = text.lines().next().unwrap_or_default();
        assert!(first.starts_with("FA001"), "{text}");
    }
}
