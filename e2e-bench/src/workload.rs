//! The four workloads, their bench-owned scenario specs, and seeds.

use proclus_core::{Proclus, ProclusModel};
use proclus_data::{DimensionSpec, ScenarioSpec};
use proclus_math::hash::{fnv1a64_continue, FNV1A_BASIS};

/// Seed every workload runs at unless told otherwise. Seed 2 is held
/// out: it is not used while writing a change, only to confirm a claim.
pub const DEFAULT_SEED: u64 = 1;

/// Rows of every workload under `--smoke`.
pub const SMOKE_ROWS: usize = 2_000;

/// Fit seeds travel through the serving API's JSON, whose numbers are
/// `f64`: keep them exactly representable.
const SEED_MASK: u64 = (1 << 53) - 1;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full fits of the paper's low-dimensional Case-1 shape.
    FitD20,
    /// Full fits of the high-dimensional shape.
    FitD100,
    /// Read-only closed-loop assignment against one served model.
    ServeAssign,
    /// Large assign batches while fit jobs keep promoting new models.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FitD20,
        Workload::FitD100,
        Workload::ServeAssign,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FitD20 => "fit-d20",
            Workload::FitD100 => "fit-d100",
            Workload::ServeAssign => "serve-assign",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `.scn` text the workload's data comes from.
    fn spec_text(self) -> &'static str {
        match self {
            Workload::FitD20 => include_str!("../workloads/fit-d20.scn"),
            Workload::FitD100 => include_str!("../workloads/fit-d100.scn"),
            Workload::ServeAssign | Workload::ServeMixed => {
                include_str!("../workloads/serve-d20.scn")
            }
        }
    }

    /// The workload's scenario at `seed` (and at smoke size).
    ///
    /// # Errors
    ///
    /// A message when the bundled spec does not parse.
    pub fn spec(self, seed: u64, smoke: bool) -> Result<ScenarioSpec, String> {
        let mut spec =
            ScenarioSpec::parse(self.spec_text()).map_err(|e| format!("{}: {e}", self.name()))?;
        spec.base.seed = seed;
        if smoke {
            spec.base.n = SMOKE_ROWS;
        }
        Ok(spec)
    }

    /// Digest of the model the first fit of this workload produces at
    /// [`DEFAULT_SEED`] and full size (for the serve workloads: the
    /// model first published). A run at the default seed must
    /// reproduce it.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::FitD20 => 0x06da_5eeb_3e8d_18a1,
            Workload::FitD100 => 0x599c_ad81_fc25_52bb,
            Workload::ServeAssign | Workload::ServeMixed => 0x06da_5eeb_3e8d_18a1,
        }
    }
}

/// The default-configuration fit for `spec`: `k` clusters of its mean
/// subspace dimensionality, single-threaded, seeded with `seed`.
pub fn fit_params(spec: &ScenarioSpec, seed: u64) -> Proclus {
    let l = match &spec.base.dims {
        DimensionSpec::Poisson { mean } => *mean,
        DimensionSpec::Fixed(v) => v.iter().sum::<usize>() as f64 / v.len().max(1) as f64,
    };
    Proclus::new(spec.base.k, l).seed(seed).threads(1)
}

/// The `i`-th seed derived from a run's `seed`; the 0-th is `seed`
/// itself (masked), so seed 1 reproduces the `.scn` files as written.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        return seed & SEED_MASK;
    }
    // splitmix64 finalizer over the (seed, i) pair.
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & SEED_MASK
}

/// FNV-1a over a model's assignment, cluster dimensions and objective
/// bits: equal digests mean the same clustering.
pub fn model_digest(model: &ProclusModel) -> u64 {
    let mut h = FNV1A_BASIS;
    for a in model.assignment() {
        let id: i64 = a.map_or(-1, |c| c as i64);
        h = fnv1a64_continue(h, &id.to_le_bytes());
    }
    for c in model.clusters() {
        h = fnv1a64_continue(h, &(c.dimensions.len() as u64).to_le_bytes());
        for &d in &c.dimensions {
            h = fnv1a64_continue(h, &(d as u64).to_le_bytes());
        }
    }
    fnv1a64_continue(h, &model.objective().to_bits().to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generation digests of every bench-owned spec at seeds 1 and 2:
    /// an edit to a spec, to the scenario zoo, or a drift in the
    /// generator cannot silently change what a workload measures.
    #[test]
    fn workload_specs_generate_pinned_data() {
        let pinned: [(&str, u64, u64); 6] = [
            ("fit-d20", 1, 0xec29_aeca_daef_582f),
            ("fit-d20", 2, 0x646b_dff9_d87b_06fc),
            ("fit-d100", 1, 0xcaa3_6b9a_9ff0_5d1c),
            ("fit-d100", 2, 0xfdee_ec01_1574_5caf),
            ("serve-assign", 1, 0xec29_aeca_daef_582f),
            ("serve-assign", 2, 0x646b_dff9_d87b_06fc),
        ];
        let got: Vec<(&str, u64, u64)> = pinned
            .iter()
            .map(|&(name, seed, _)| {
                let w = Workload::parse(name).unwrap();
                (name, seed, w.spec(seed, false).unwrap().digest().unwrap())
            })
            .collect();
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn specs_parse_with_the_expected_fit_shapes() {
        let d20 = Workload::FitD20.spec(1, false).unwrap();
        let p = fit_params(&d20, 1);
        assert_eq!((p.k, p.l, d20.base.d), (5, 5.0, 20));
        let d100 = Workload::FitD100.spec(1, false).unwrap();
        let p = fit_params(&d100, 1);
        assert_eq!((p.k, p.l, d100.base.d), (10, 80.0, 100));
        assert_eq!(
            Workload::ServeMixed.spec(3, true).unwrap().base.n,
            SMOKE_ROWS
        );
        assert_eq!(Workload::ServeMixed.spec(3, true).unwrap().base.seed, 3);
    }

    #[test]
    fn derived_seeds_fit_in_json_numbers_and_start_at_the_seed() {
        assert_eq!(derive_seed(1, 0), 1);
        assert_eq!(derive_seed(u64::MAX, 0), SEED_MASK);
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|i| derive_seed(1, i)).collect();
        assert_eq!(seeds.len(), 64);
        assert!(seeds.iter().all(|&s| s <= SEED_MASK));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
