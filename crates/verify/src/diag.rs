//! Structured diagnostics with source spans into the scenario description.
//!
//! Every analysis pass reports through [`Report`]: a list of
//! [`Diagnostic`]s, each carrying a severity, the pass that produced it, and
//! optionally a [`Span`] pointing at the line of the scenario description it
//! concerns. Rendering excerpts the offending line, compiler-style, so a
//! diagnostic is actionable without re-deriving the scenario by hand.

use serde::json::Value;
use serde::Serialize;
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Observation only; never blocks dispatch.
    Info,
    /// Suspicious but runnable; blocks dispatch unless warnings are allowed.
    Warning,
    /// A definite violation; always blocks dispatch.
    Error,
}

impl Severity {
    /// Lowercase name, as rendered.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.name().into())
    }
}

/// A source span: a 1-based line of the scenario description.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Span {
    /// 1-based line number into [`Report::source`].
    pub line: u32,
}

impl Span {
    /// Span covering line `line` (1-based).
    pub fn line(line: u32) -> Self {
        Span { line }
    }
}

/// One finding of one analysis pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which pass produced it: `protocol`, `deadlock`, `storage`, `grammar`.
    pub pass: &'static str,
    /// The finding, naming the tasks/clusters/nonterminals involved.
    pub message: String,
    /// Where in the scenario description it points, when it has a location.
    pub span: Option<Span>,
}

impl Serialize for Diagnostic {
    /// The machine-readable form shared by the serve layer's HTTP
    /// rejection bodies and `fem2-report --check --json`: the severity as
    /// `kind`, the producing pass, the message, and the 1-based source
    /// line (`null` for findings with no location).
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), self.severity.to_value()),
            ("pass".into(), Value::Str(self.pass.into())),
            ("message".into(), Value::Str(self.message.clone())),
            (
                "line".into(),
                match self.span {
                    Some(s) => Value::UInt(u64::from(s.line)),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// The outcome of analyzing one subject (a scenario script or a grammar).
#[derive(Clone, Debug)]
pub struct Report {
    /// What was analyzed (scenario or grammar name).
    pub subject: String,
    /// The scenario description the spans index into: empty for grammars,
    /// and left empty by `check_script` when no diagnostic has a span.
    pub source: String,
    /// All findings, in pass order then discovery order. Deterministic.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject` over `source`.
    pub fn new(subject: impl Into<String>, source: impl Into<String>) -> Self {
        Report {
            subject: subject.into(),
            source: source.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Append a finding.
    pub fn push(
        &mut self,
        severity: Severity,
        pass: &'static str,
        span: Option<Span>,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            severity,
            pass,
            message: message.into(),
            span,
        });
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// No errors and no warnings (info findings don't spoil cleanliness).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warning_count() == 0
    }

    /// Whether this report blocks scenario dispatch. Errors always block;
    /// warnings block unless `allow_warnings`.
    pub fn blocks(&self, allow_warnings: bool) -> bool {
        self.error_count() > 0 || (!allow_warnings && self.warning_count() > 0)
    }

    /// Render compiler-style, excerpting the scenario line each spanned
    /// diagnostic points at. Deterministic for golden-file comparison.
    pub fn render(&self) -> String {
        let lines: Vec<&str> = self.source.lines().collect();
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.pass, d.message));
            if let Some(span) = d.span {
                out.push_str(&format!("  --> {}:{}\n", self.subject, span.line));
                if let Some(text) = lines.get(span.line as usize - 1) {
                    out.push_str(&format!("   | {text}\n"));
                }
            }
        }
        out.push_str(&format!(
            "{}: {} ({} error(s), {} warning(s))\n",
            self.subject,
            self.status(),
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl Report {
    /// The status word of this report, as rendered and as serialized:
    /// `REJECTED`, `PASSED WITH WARNINGS`, or `CLEAN`.
    pub fn status(&self) -> &'static str {
        if self.error_count() > 0 {
            "REJECTED"
        } else if self.warning_count() > 0 {
            "PASSED WITH WARNINGS"
        } else {
            "CLEAN"
        }
    }
}

impl Serialize for Report {
    /// The machine-readable report: subject, status, counts, and every
    /// diagnostic in [`Diagnostic`]'s JSON form. The scenario source is
    /// not embedded (it can be large); spans carry the line numbers.
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("subject".into(), Value::Str(self.subject.clone())),
            ("status".into(), Value::Str(self.status().into())),
            ("errors".into(), Value::UInt(self.error_count() as u64)),
            ("warnings".into(), Value::UInt(self.warning_count() as u64)),
            (
                "diagnostics".into(),
                Value::Arr(self.diagnostics.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn counts_and_cleanliness() {
        let mut r = Report::new("s", "line one\nline two");
        assert!(r.is_clean());
        assert!(!r.blocks(false));
        r.push(Severity::Info, "storage", None, "fyi");
        assert!(r.is_clean(), "info does not spoil cleanliness");
        r.push(Severity::Warning, "protocol", Some(Span::line(2)), "hm");
        assert!(!r.is_clean());
        assert!(r.blocks(false));
        assert!(!r.blocks(true), "allow_warnings passes warnings");
        r.push(Severity::Error, "deadlock", Some(Span::line(1)), "bad");
        assert!(r.blocks(true), "errors always block");
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn render_excerpts_spanned_lines() {
        let mut r = Report::new("demo", "alpha\nbeta");
        r.push(Severity::Error, "protocol", Some(Span::line(2)), "oops");
        let text = r.render();
        assert!(text.contains("error[protocol]: oops"));
        assert!(text.contains("--> demo:2"));
        assert!(text.contains("| beta"));
        assert!(text.contains("REJECTED"));
    }

    #[test]
    fn render_status_lines() {
        let clean = Report::new("a", "").render();
        assert!(clean.contains("CLEAN"));
        let mut warn = Report::new("b", "");
        warn.push(Severity::Warning, "storage", None, "w");
        assert!(warn.render().contains("PASSED WITH WARNINGS"));
    }

    #[test]
    fn diagnostic_json_form_is_kind_pass_message_line() {
        let mut r = Report::new("demo", "alpha\nbeta");
        r.push(Severity::Error, "deadlock", Some(Span::line(2)), "cycle");
        r.push(Severity::Info, "storage", None, "fyi");
        let json = serde_json::to_string(&r).unwrap();
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get_field("subject").unwrap(), &Value::Str("demo".into()));
        assert_eq!(
            v.get_field("status").unwrap(),
            &Value::Str("REJECTED".into())
        );
        assert_eq!(v.get_field("errors").unwrap(), &Value::UInt(1));
        let diags = match v.get_field("diagnostics").unwrap() {
            Value::Arr(items) => items,
            other => panic!("diagnostics must be an array, got {other:?}"),
        };
        assert_eq!(diags.len(), 2);
        assert_eq!(
            diags[0].get_field("kind").unwrap(),
            &Value::Str("error".into())
        );
        assert_eq!(
            diags[0].get_field("pass").unwrap(),
            &Value::Str("deadlock".into())
        );
        assert_eq!(
            diags[0].get_field("message").unwrap(),
            &Value::Str("cycle".into())
        );
        assert_eq!(diags[0].get_field("line").unwrap(), &Value::UInt(2));
        assert_eq!(diags[1].get_field("line").unwrap(), &Value::Null);
    }

    #[test]
    fn status_word_matches_render() {
        let mut r = Report::new("s", "");
        assert_eq!(r.status(), "CLEAN");
        r.push(Severity::Warning, "storage", None, "w");
        assert_eq!(r.status(), "PASSED WITH WARNINGS");
        r.push(Severity::Error, "protocol", None, "e");
        assert_eq!(r.status(), "REJECTED");
        assert!(r.render().contains(r.status()));
    }
}
