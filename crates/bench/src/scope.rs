//! Experiment sizing: quick / default / full / huge sweeps.

/// How much work an experiment should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// CI-sized: small systems, few seeds (seconds).
    Quick,
    /// What `paperbench` runs when no scope is named (a few minutes).
    Default,
    /// Adds the largest classic sizes (tens of minutes).
    Full,
    /// The scale frontier: n = 4096/8192 AER runs with extra seeds —
    /// feasible since the parallel runner and the scale-aware retry
    /// schedule (hours serial, minutes on a many-core box).
    Huge,
    /// Beyond the frontier: n = 16384/32768 engine-bench regimes and
    /// n = 16384 AER sweeps, opened by batched delivery and the shared
    /// run-state arenas. Few seeds — single runs are minutes each and
    /// gigabytes resident.
    Extreme,
}

impl Scope {
    /// Every scope with the name `paperbench --scope` takes for it.
    const NAMES: [(Scope, &'static str); 5] = [
        (Scope::Quick, "quick"),
        (Scope::Default, "default"),
        (Scope::Full, "full"),
        (Scope::Huge, "huge"),
        (Scope::Extreme, "extreme"),
    ];

    /// Parses a scope name as accepted by `paperbench --scope`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Scope> {
        let named = Self::NAMES.iter().find(|(_, known)| *known == name);
        named.map(|(scope, _)| *scope)
    }

    /// The scope's canonical name (as accepted by [`Scope::parse`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        let named = Self::NAMES.iter().find(|(scope, _)| *scope == self);
        named.expect("every scope is named").1
    }

    /// System sizes for AER-involved sweeps (full protocol runs are
    /// `Θ(n·log³n)` messages, so sizes are capped accordingly).
    #[must_use]
    pub fn aer_sizes(self) -> Vec<usize> {
        match self {
            Scope::Quick => vec![32, 64, 128],
            Scope::Default => vec![64, 128, 256, 512],
            Scope::Full => vec![64, 128, 256, 512, 1024],
            Scope::Huge => vec![1024, 2048, 4096, 8192],
            Scope::Extreme => vec![4096, 8192, 16384],
        }
    }

    /// System sizes for cheap sweeps (samplers, push-only, AE phase).
    #[must_use]
    pub fn light_sizes(self) -> Vec<usize> {
        match self {
            Scope::Quick => vec![64, 256],
            Scope::Default => vec![64, 256, 1024, 4096],
            Scope::Full => vec![64, 256, 1024, 4096, 16384],
            Scope::Huge => vec![1024, 4096, 16384, 65536],
            Scope::Extreme => vec![4096, 16384, 65536],
        }
    }

    /// System sizes for the `Θ(n)`-round deterministic baseline (the
    /// huge scope reuses the full ladder — `Θ(n)` rounds of `Θ(n²)`
    /// messages dwarf even the 8192-node AER runs beyond it).
    #[must_use]
    pub fn king_sizes(self) -> Vec<usize> {
        match self {
            Scope::Quick => vec![16, 32],
            Scope::Default => vec![16, 32, 64, 128],
            Scope::Full | Scope::Huge | Scope::Extreme => vec![16, 32, 64, 128, 256],
        }
    }

    /// Seeds per configuration.
    #[must_use]
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scope::Quick => vec![1, 2],
            Scope::Default => vec![1, 2, 3, 4, 5],
            Scope::Full => (1..=10).collect(),
            Scope::Huge => (1..=12).collect(),
            Scope::Extreme => vec![1, 2],
        }
    }
}

/// Mean of f64 values, or `None` when there are no samples — the honest
/// aggregate for quantiles that may never be reached (a cell where no
/// run decided has *no* mean round count, not round count 0).
#[must_use]
pub fn mean_opt(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Table cell for an optional statistic: `n/a` when no run in the cell
/// produced the quantity (instead of a misleading `0` or a `NaN`).
#[must_use]
pub fn opt_cell(value: Option<f64>) -> String {
    value.map_or_else(|| "n/a".to_string(), crate::table::fnum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_are_ordered_by_size() {
        assert!(Scope::Quick.aer_sizes().len() <= Scope::Default.aer_sizes().len());
        assert!(Scope::Default.aer_sizes().last() <= Scope::Full.aer_sizes().last());
        assert!(Scope::Full.aer_sizes().last() < Scope::Huge.aer_sizes().last());
        assert!(Scope::Huge.aer_sizes().last() < Scope::Extreme.aer_sizes().last());
        assert!(Scope::Quick.seeds().len() < Scope::Full.seeds().len());
        assert!(Scope::Full.seeds().len() < Scope::Huge.seeds().len());
        // Extreme runs are minutes each: the scope deliberately thins
        // seeds below the huge scope while growing the sizes.
        assert!(Scope::Extreme.seeds().len() < Scope::Huge.seeds().len());
    }

    #[test]
    fn scope_names_parse() {
        assert_eq!(Scope::parse("quick"), Some(Scope::Quick));
        assert_eq!(Scope::parse("default"), Some(Scope::Default));
        assert_eq!(Scope::parse("full"), Some(Scope::Full));
        assert_eq!(Scope::parse("huge"), Some(Scope::Huge));
        assert_eq!(Scope::parse("extreme"), Some(Scope::Extreme));
        assert_eq!(Scope::parse("enormous"), None);
    }

    #[test]
    fn every_scope_name_round_trips() {
        for scope in [
            Scope::Quick,
            Scope::Default,
            Scope::Full,
            Scope::Huge,
            Scope::Extreme,
        ] {
            assert_eq!(Scope::parse(scope.name()), Some(scope));
        }
    }

    #[test]
    fn empty_cells_render_na_not_zero() {
        assert_eq!(mean_opt(&[]), None);
        assert_eq!(mean_opt(&[4.0, 6.0]), Some(5.0));
        assert_eq!(opt_cell(None), "n/a");
        assert_eq!(opt_cell(Some(5.0)), "5.00");
    }
}
