//! Structured diagnostics for the pre-solve constraint linter.
//!
//! Every finding carries a stable code (`AMS-Exxx` for errors, `AMS-Wxxx`
//! for warnings, `AMS-Hxxx` for hints), the offending entities by name, and
//! a fix suggestion. Codes are part of the public interface: tools may
//! match on them, so existing codes never change meaning.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational; the placement may simply be slower or looser.
    Hint,
    /// Suspicious but not fatal; the solve proceeds.
    Warning,
    /// The constraint system is provably broken or unsatisfiable; the
    /// placer refuses to encode.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Hint => "hint",
        })
    }
}

/// Stable diagnostic codes emitted by the constraint linter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiagCode {
    /// `AMS-E001`: a symmetry pair joins cells of different dimensions or
    /// regions, so no mirror placement exists.
    SymmetryHeightMismatch,
    /// `AMS-E002`: a symmetry pair references a cell id outside the design.
    SymmetryDanglingCell,
    /// `AMS-E003`: `share_axis_with` references itself, a later group, or a
    /// missing group — the axis-sharing chain cannot be resolved.
    SymmetryCyclicShare,
    /// `AMS-E004`: a cell appears in more than one pair of the same group,
    /// forcing two mirror partners onto the same position.
    SymmetryOverconstrained,
    /// `AMS-E005`: an array references a cell id outside the design.
    ArrayDanglingCell,
    /// `AMS-E006`: array members differ in dimensions or region (Eq. 9
    /// assumes congruent devices).
    ArrayRaggedCells,
    /// `AMS-E007`: an array pattern's device groups do not form a valid
    /// partition of the array (Eq. 9–10 cardinality rules).
    ArrayBadPattern,
    /// `AMS-E008`: a region has no feasible dimension candidate (Eq. 4–5) —
    /// its target area cannot fit between its minimum cell sizes and the
    /// die.
    RegionInfeasible,
    /// `AMS-E009`: the regions' minimum footprints (including edge
    /// reservations) exceed, in aggregate, the die area their extension
    /// margins leave them.
    DieOverflow,
    /// `AMS-E010`: a region's power-group row bands cannot fit its height
    /// under any dimension candidate (Eq. 12).
    PowerRowOverflow,
    /// `AMS-E011`: the pin-density threshold `λ_th` is below the pin count
    /// of a single cell, so every window overlapping it violates Eq. 14,
    /// or the design's pins exceed `λ_th` times the number of windows.
    PinDensityInfeasible,
    /// `AMS-E012`: the QF_BV scaling overflows the 64-bit term width
    /// (die dimensions or net weights too large for `bits_for`).
    BitWidthOverflow,
    /// `AMS-E013`: two constraints contradict each other (a cell mirrored
    /// onto itself, a cell in two different arrays, a duplicate array
    /// member).
    ContradictoryConstraint,
    /// `AMS-E014`: a cluster or extension references a missing cell,
    /// region, or array.
    DanglingReference,
    /// `AMS-E015`: `freeze_fraction` is not a finite value in `[0, 1]`.
    FreezeFractionInvalid,
    /// `AMS-E016`: the wirelength ζ tightening schedule is broken —
    /// `zeta_start`, `zeta_step`, or `zeta_min` is non-finite or outside
    /// its valid range, so the optimization loop cannot converge.
    ZetaScheduleInvalid,
    /// `AMS-E017`: a conflict budget of zero — the solve can never take a
    /// single step; use `None` to disable budgeting instead.
    ZeroBudget,
    /// `AMS-E018`: a zero-length wall-clock deadline — the solve expires
    /// before it starts; use `None` to disable the deadline instead.
    ZeroDeadline,
    /// `AMS-W001`: the same pair appears in multiple symmetry groups of
    /// the same axis — redundant, and it doubles the encoding.
    DuplicateConstraint,
    /// `AMS-W002`: a constraint with no effect (empty pair list, array or
    /// cluster with fewer than two members).
    EmptyConstraint,
    /// `AMS-W003`: a primitive cell with no net connection and no
    /// constraint membership — it floats to an arbitrary position.
    UnreferencedCell,
    /// `AMS-W004`: a region at utilization 1.0 leaves no slack for
    /// non-rectangular packings; expect slow or failing solves.
    TightUtilization,
    /// `AMS-H001`: the pin-density stride exceeds the window size, leaving
    /// unchecked strips between windows.
    SparseDensityWindows,
    /// `AMS-H002`: a cluster with weight 0 synthesizes a virtual net that
    /// exerts no pull.
    IneffectiveCluster,
}

impl DiagCode {
    /// Every defined code, in code order.
    pub const ALL: [DiagCode; 24] = [
        DiagCode::SymmetryHeightMismatch,
        DiagCode::SymmetryDanglingCell,
        DiagCode::SymmetryCyclicShare,
        DiagCode::SymmetryOverconstrained,
        DiagCode::ArrayDanglingCell,
        DiagCode::ArrayRaggedCells,
        DiagCode::ArrayBadPattern,
        DiagCode::RegionInfeasible,
        DiagCode::DieOverflow,
        DiagCode::PowerRowOverflow,
        DiagCode::PinDensityInfeasible,
        DiagCode::BitWidthOverflow,
        DiagCode::ContradictoryConstraint,
        DiagCode::DanglingReference,
        DiagCode::FreezeFractionInvalid,
        DiagCode::ZetaScheduleInvalid,
        DiagCode::ZeroBudget,
        DiagCode::ZeroDeadline,
        DiagCode::DuplicateConstraint,
        DiagCode::EmptyConstraint,
        DiagCode::UnreferencedCell,
        DiagCode::TightUtilization,
        DiagCode::SparseDensityWindows,
        DiagCode::IneffectiveCluster,
    ];

    /// The stable code string, e.g. `"AMS-E001"`.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::SymmetryHeightMismatch => "AMS-E001",
            DiagCode::SymmetryDanglingCell => "AMS-E002",
            DiagCode::SymmetryCyclicShare => "AMS-E003",
            DiagCode::SymmetryOverconstrained => "AMS-E004",
            DiagCode::ArrayDanglingCell => "AMS-E005",
            DiagCode::ArrayRaggedCells => "AMS-E006",
            DiagCode::ArrayBadPattern => "AMS-E007",
            DiagCode::RegionInfeasible => "AMS-E008",
            DiagCode::DieOverflow => "AMS-E009",
            DiagCode::PowerRowOverflow => "AMS-E010",
            DiagCode::PinDensityInfeasible => "AMS-E011",
            DiagCode::BitWidthOverflow => "AMS-E012",
            DiagCode::ContradictoryConstraint => "AMS-E013",
            DiagCode::DanglingReference => "AMS-E014",
            DiagCode::FreezeFractionInvalid => "AMS-E015",
            DiagCode::ZetaScheduleInvalid => "AMS-E016",
            DiagCode::ZeroBudget => "AMS-E017",
            DiagCode::ZeroDeadline => "AMS-E018",
            DiagCode::DuplicateConstraint => "AMS-W001",
            DiagCode::EmptyConstraint => "AMS-W002",
            DiagCode::UnreferencedCell => "AMS-W003",
            DiagCode::TightUtilization => "AMS-W004",
            DiagCode::SparseDensityWindows => "AMS-H001",
            DiagCode::IneffectiveCluster => "AMS-H002",
        }
    }

    /// The short CamelCase name, e.g. `"SymmetryHeightMismatch"`.
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::SymmetryHeightMismatch => "SymmetryHeightMismatch",
            DiagCode::SymmetryDanglingCell => "SymmetryDanglingCell",
            DiagCode::SymmetryCyclicShare => "SymmetryCyclicShare",
            DiagCode::SymmetryOverconstrained => "SymmetryOverconstrained",
            DiagCode::ArrayDanglingCell => "ArrayDanglingCell",
            DiagCode::ArrayRaggedCells => "ArrayRaggedCells",
            DiagCode::ArrayBadPattern => "ArrayBadPattern",
            DiagCode::RegionInfeasible => "RegionInfeasible",
            DiagCode::DieOverflow => "DieOverflow",
            DiagCode::PowerRowOverflow => "PowerRowOverflow",
            DiagCode::PinDensityInfeasible => "PinDensityInfeasible",
            DiagCode::BitWidthOverflow => "BitWidthOverflow",
            DiagCode::ContradictoryConstraint => "ContradictoryConstraint",
            DiagCode::DanglingReference => "DanglingReference",
            DiagCode::FreezeFractionInvalid => "FreezeFractionInvalid",
            DiagCode::ZetaScheduleInvalid => "ZetaScheduleInvalid",
            DiagCode::ZeroBudget => "ZeroBudget",
            DiagCode::ZeroDeadline => "ZeroDeadline",
            DiagCode::DuplicateConstraint => "DuplicateConstraint",
            DiagCode::EmptyConstraint => "EmptyConstraint",
            DiagCode::UnreferencedCell => "UnreferencedCell",
            DiagCode::TightUtilization => "TightUtilization",
            DiagCode::SparseDensityWindows => "SparseDensityWindows",
            DiagCode::IneffectiveCluster => "IneffectiveCluster",
        }
    }

    /// Severity, derived from the code letter (E/W/H).
    pub fn severity(self) -> Severity {
        match self.code().as_bytes()[4] {
            b'E' => Severity::Error,
            b'W' => Severity::Warning,
            _ => Severity::Hint,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.title())
    }
}

/// One linter finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// Human-readable description of this specific instance.
    pub message: String,
    /// Names of the offending entities (cells, regions, constraints).
    pub entities: Vec<String>,
    /// A concrete fix suggestion, when one is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no entities or suggestion.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            message: message.into(),
            entities: Vec::new(),
            suggestion: None,
        }
    }

    /// Adds an offending entity name.
    pub fn entity(mut self, name: impl Into<String>) -> Diagnostic {
        self.entities.push(name.into());
        self
    }

    /// Adds offending entity names.
    pub fn entities<I, S>(mut self, names: I) -> Diagnostic
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.entities.extend(names.into_iter().map(Into::into));
        self
    }

    /// Sets the fix suggestion.
    pub fn suggest(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }

    /// Severity of this diagnostic (derived from the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.code.code(),
            self.code.title(),
            self.message
        )?;
        if !self.entities.is_empty() {
            write!(f, "\n  affects: {}", self.entities.join(", "))?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// The collected findings of one linter run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Records a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Whether nothing was found at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any error-severity finding exists (the placer's gate).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Number of findings at a given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// Whether some finding carries the given code.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} hint(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Hint)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in DiagCode::ALL {
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert!(c.code().starts_with("AMS-"));
        }
        assert_eq!(DiagCode::SymmetryHeightMismatch.code(), "AMS-E001");
        assert_eq!(DiagCode::PowerRowOverflow.code(), "AMS-E010");
        assert_eq!(DiagCode::ZeroDeadline.code(), "AMS-E018");
        assert_eq!(DiagCode::UnreferencedCell.code(), "AMS-W003");
    }

    #[test]
    fn severity_follows_code_letter() {
        assert_eq!(DiagCode::RegionInfeasible.severity(), Severity::Error);
        assert_eq!(DiagCode::DuplicateConstraint.severity(), Severity::Warning);
        assert_eq!(DiagCode::SparseDensityWindows.severity(), Severity::Hint);
    }

    #[test]
    fn report_accounting() {
        let mut r = LintReport::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(DiagCode::UnreferencedCell, "cell floats").entity("c0"));
        assert!(!r.is_clean() && !r.has_errors());
        r.push(
            Diagnostic::new(DiagCode::RegionInfeasible, "no candidates")
                .entity("core")
                .suggest("raise die_slack"),
        );
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(r.has_code(DiagCode::RegionInfeasible));
        let shown = r.to_string();
        assert!(shown.contains("error[AMS-E008]"));
        assert!(shown.contains("help: raise die_slack"));
        assert!(shown.contains("1 error(s), 1 warning(s), 0 hint(s)"));
    }
}
