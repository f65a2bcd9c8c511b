//! Declarative specification of a synthetic dataset.

/// How many (and which) dimensions each generated cluster gets.
#[derive(Clone, Debug, PartialEq)]
pub enum DimensionSpec {
    /// Per-cluster dimensionality is a `Poisson(mean)` realization,
    /// clamped to `[2, d]` as in §4.1 of the paper.
    Poisson {
        /// Mean of the Poisson variable (the paper's μ; the average
        /// cluster dimensionality the file is built for).
        mean: f64,
    },
    /// Exact per-cluster dimensionalities, e.g. the paper's Case 2 file
    /// uses `[7, 3, 2, 6, 2]`. Which *particular* dimensions are chosen
    /// still follows the inherited-sharing rule.
    Fixed(Vec<usize>),
}

/// Full specification of a synthetic dataset in the style of §4.1.
///
/// Build one with [`SyntheticSpec::new`] (or the `paper_case1` /
/// `paper_case2` presets), tweak fields through the builder methods, and
/// call [`generate`](crate::generator::GeneratedDataset::from_spec) /
/// [`SyntheticSpec::generate`].
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticSpec {
    /// Total number of points `N` (cluster points + outliers).
    pub n: usize,
    /// Dimensionality `d` of the full space.
    pub d: usize,
    /// Number of clusters `k`.
    pub k: usize,
    /// Cluster dimensionalities.
    pub dims: DimensionSpec,
    /// Fraction of points generated as uniform outliers
    /// (the paper's `F_outlier = 5%`).
    pub outlier_fraction: f64,
    /// Coordinate domain `[lo, hi]` on every axis (paper: `[0, 100]`).
    pub domain: (f64, f64),
    /// Base spread `r` of the per-dimension Gaussians (paper: `r = 2`).
    pub spread: f64,
    /// Upper bound `s` of the per-(cluster, dimension) uniform scale
    /// factor `s_ij ∈ [1, s]` (paper: `s = 2`).
    pub scale_max: f64,
    /// Minimum cluster size as a fraction of the even share `N_c / k`
    /// (default 0.5).
    ///
    /// Cluster sizes are proportional to `Exp(1)` realizations (§4.1),
    /// which occasionally produces degenerate clusters of a handful of
    /// points — unfindable by *any* method whose bad-medoid threshold
    /// is `(N/k)·0.1`, and unlike the paper's own files (whose smallest
    /// cluster holds 16.5% of the points, ratio ≈ 1.5 across clusters).
    /// The floor redistributes points from the largest clusters until
    /// every cluster reaches `min_size_ratio · N_c / k`, preserving the
    /// exponential skew above the floor. Set to 0 to disable.
    pub min_size_ratio: f64,
    /// PRNG seed; identical specs generate identical datasets.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A spec with the paper's fixed parameters
    /// (`[0,100]` domain, 5% outliers, `r = s = 2`) and Poisson cluster
    /// dimensionalities of mean `l`.
    pub fn new(n: usize, d: usize, k: usize, l: f64) -> Self {
        Self {
            n,
            d,
            k,
            dims: DimensionSpec::Poisson { mean: l },
            outlier_fraction: 0.05,
            domain: (0.0, 100.0),
            spread: 2.0,
            scale_max: 2.0,
            min_size_ratio: 0.5,
            seed: 0,
        }
    }

    /// The paper's **Case 1** accuracy file: `N = 100_000`, `d = 20`,
    /// `k = 5`, every cluster in (a different) 7-dimensional subspace.
    pub fn paper_case1(seed: u64) -> Self {
        Self {
            dims: DimensionSpec::Fixed(vec![7; 5]),
            seed,
            ..Self::new(100_000, 20, 5, 7.0)
        }
    }

    /// The paper's **Case 2** accuracy file: `N = 100_000`, `d = 20`,
    /// `k = 5`, cluster dimensionalities `{7, 3, 2, 6, 2}`
    /// (average `l = 4`).
    pub fn paper_case2(seed: u64) -> Self {
        Self {
            dims: DimensionSpec::Fixed(vec![7, 3, 2, 6, 2]),
            seed,
            ..Self::new(100_000, 20, 5, 4.0)
        }
    }

    /// Replace the per-cluster dimensionalities with exact values.
    pub fn fixed_dims(mut self, dims: Vec<usize>) -> Self {
        self.dims = DimensionSpec::Fixed(dims);
        self
    }

    /// Set the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the outlier fraction (`0.0 ..= 0.5`).
    pub fn outlier_fraction(mut self, f: f64) -> Self {
        self.outlier_fraction = f;
        self
    }

    /// Set the minimum cluster size as a fraction of the even share
    /// (`0.0 ..= 1.0`; 0 disables the floor).
    pub fn min_size_ratio(mut self, r: f64) -> Self {
        self.min_size_ratio = r;
        self
    }

    /// Average cluster dimensionality implied by this spec: the Poisson
    /// mean, or the mean of the fixed list.
    pub fn average_cluster_dims(&self) -> f64 {
        match &self.dims {
            DimensionSpec::Poisson { mean } => *mean,
            DimensionSpec::Fixed(v) => {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<usize>() as f64 / v.len() as f64
                }
            }
        }
    }

    /// Validate the spec, returning a human-readable complaint if it is
    /// unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if self.d < 2 {
            return Err(format!("d must be at least 2, got {}", self.d));
        }
        if addressable_cells(self.n, self.d).is_none() {
            return Err(format!(
                "{} x {} coordinates overflow the address space",
                self.n, self.d
            ));
        }
        if !(0.0..=0.5).contains(&self.outlier_fraction) {
            // NaN fails the range check too. The upper bound is a
            // hard requirement, not taste: at 1.0 every point is an
            // outlier and no cluster exists to recover, and beyond 0.5
            // the "clusters" are a minority signal no projected method
            // is specified against.
            return Err(format!(
                "outlier_fraction must be in [0, 0.5] (1.0 would leave no cluster points), got {}",
                self.outlier_fraction
            ));
        }
        // A non-finite bound passes `lo >= hi` comparisons (NaN
        // compares false) and then silently produces garbage
        // coordinates, so finiteness is checked explicitly.
        if !(self.domain.0.is_finite() && self.domain.1.is_finite()) {
            return Err(format!(
                "domain bounds must be finite, got [{}, {}]",
                self.domain.0, self.domain.1
            ));
        }
        if self.domain.0 >= self.domain.1 {
            return Err(format!(
                "domain must be a non-empty interval, got [{}, {}]",
                self.domain.0, self.domain.1
            ));
        }
        // Same trap as the domain: NaN spread/scale_max slip past
        // one-sided comparisons and panic inside the Gaussian sampler.
        if !(self.spread.is_finite() && self.spread > 0.0) {
            return Err(format!(
                "spread must be finite and > 0, got {}",
                self.spread
            ));
        }
        if !(self.scale_max.is_finite() && self.scale_max >= 1.0) {
            return Err(format!(
                "scale_max must be finite and >= 1, got {}",
                self.scale_max
            ));
        }
        // Each per-dimension std is U[1, scale_max] · spread, so two
        // finite factors can still hand the samplers an infinite std.
        if !(self.spread * self.scale_max).is_finite() {
            return Err(format!(
                "spread * scale_max must be finite, got {:?} * {:?}",
                self.spread, self.scale_max
            ));
        }
        if !(0.0..=1.0).contains(&self.min_size_ratio) {
            return Err(format!(
                "min_size_ratio must be in [0, 1], got {}",
                self.min_size_ratio
            ));
        }
        match &self.dims {
            DimensionSpec::Poisson { mean } => {
                if !(mean.is_finite() && *mean > 0.0) {
                    return Err(format!("Poisson mean must be positive, got {mean}"));
                }
                // Knuth's sampler underflows above 700; the generated
                // count is clamped to [2, d] anyway, so means beyond
                // the sampler's range are spec errors, not data.
                if *mean > 700.0 {
                    return Err(format!(
                        "Poisson mean must be at most 700 (sampler range), got {mean}"
                    ));
                }
            }
            DimensionSpec::Fixed(v) => {
                if v.len() != self.k {
                    return Err(format!(
                        "fixed dims list has {} entries but k = {}",
                        v.len(),
                        self.k
                    ));
                }
                if let Some(bad) = v.iter().find(|&&m| m < 2 || m > self.d) {
                    return Err(format!(
                        "cluster dimensionality {bad} outside [2, {}]",
                        self.d
                    ));
                }
            }
        }
        // Every cluster needs at least one point alongside the outliers.
        let cluster_points = (self.n as f64 * (1.0 - self.outlier_fraction)) as usize;
        if cluster_points < self.k {
            return Err(format!(
                "only {cluster_points} cluster points for {} clusters",
                self.k
            ));
        }
        Ok(())
    }
}

/// `rows · cols` as a count of `f64` cells, or `None` when a buffer
/// of them could not exist: the count overflows `usize`, or its bytes
/// exceed `isize::MAX`, the bound of every Rust allocation.
pub(crate) fn addressable_cells(rows: usize, cols: usize) -> Option<usize> {
    let cells = rows.checked_mul(cols)?;
    let bytes = cells.checked_mul(std::mem::size_of::<f64>())?;
    (bytes <= isize::MAX as usize).then_some(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_section_4() {
        let c1 = SyntheticSpec::paper_case1(1);
        assert_eq!(c1.n, 100_000);
        assert_eq!(c1.d, 20);
        assert_eq!(c1.k, 5);
        assert_eq!(c1.dims, DimensionSpec::Fixed(vec![7; 5]));
        assert_eq!(c1.outlier_fraction, 0.05);
        assert_eq!(c1.domain, (0.0, 100.0));
        assert_eq!(c1.average_cluster_dims(), 7.0);

        let c2 = SyntheticSpec::paper_case2(1);
        assert_eq!(c2.dims, DimensionSpec::Fixed(vec![7, 3, 2, 6, 2]));
        assert_eq!(c2.average_cluster_dims(), 4.0);
        assert!(c1.validate().is_ok());
        assert!(c2.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(SyntheticSpec::new(0, 20, 5, 5.0).validate().is_err());
        assert!(SyntheticSpec::new(100, 20, 0, 5.0).validate().is_err());
        assert!(SyntheticSpec::new(100, 1, 2, 5.0).validate().is_err());
        assert!(SyntheticSpec::new(100, 20, 5, 5.0)
            .outlier_fraction(0.9)
            .validate()
            .is_err());
        // Fixed list of the wrong length.
        assert!(SyntheticSpec::new(100, 20, 5, 5.0)
            .fixed_dims(vec![3, 3])
            .validate()
            .is_err());
        // Fixed entry below the minimum of 2.
        assert!(SyntheticSpec::new(100, 20, 2, 5.0)
            .fixed_dims(vec![1, 5])
            .validate()
            .is_err());
        // Fixed entry above d.
        assert!(SyntheticSpec::new(100, 20, 2, 5.0)
            .fixed_dims(vec![21, 5])
            .validate()
            .is_err());
        // Too few cluster points for k clusters.
        assert!(SyntheticSpec::new(5, 20, 10, 5.0).validate().is_err());
    }

    #[test]
    fn validation_catches_non_finite_fields() {
        // Every one of these used to slip past one-sided comparisons
        // (NaN compares false) and panic or emit garbage downstream.
        let base = || SyntheticSpec::new(100, 10, 3, 4.0);
        let mut s = base();
        s.domain = (f64::NAN, 100.0);
        assert!(s.validate().is_err());
        let mut s = base();
        s.domain = (0.0, f64::INFINITY);
        assert!(s.validate().is_err());
        let mut s = base();
        s.spread = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = base();
        s.scale_max = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = base();
        s.outlier_fraction = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_catches_overflowing_products() {
        let base = || SyntheticSpec::new(100, 10, 3, 4.0);
        // Each factor is finite; U[1, scale_max] · spread is not.
        let mut s = base();
        s.spread = 1e300;
        s.scale_max = 1e10;
        assert!(s.validate().unwrap_err().contains("spread * scale_max"));
        let mut s = base();
        s.scale_max = 1e308;
        assert!(s.validate().is_err());
        assert!(matches!(
            s.try_generate(),
            Err(crate::DataError::InvalidSpec(_))
        ));
        // n · d coordinates: overflowing usize, or f64 bytes past isize.
        let mut s = base();
        s.d = usize::MAX;
        assert!(s.validate().unwrap_err().contains("overflow"));
        let mut s = base();
        s.n = 1 << 61;
        s.d = 2;
        assert!(s.validate().unwrap_err().contains("overflow"));
        assert_eq!(addressable_cells(1 << 30, 4), Some(1 << 32));
    }

    #[test]
    fn a_non_finite_coordinate_fails_generation() {
        // Validates, but a std of up to 1e308 meets the normal tail.
        let mut s = SyntheticSpec::new(100, 10, 3, 4.0);
        s.spread = 1e307;
        s.scale_max = 10.0;
        assert!(s.validate().is_ok());
        match s.try_generate() {
            Err(crate::DataError::InvalidSpec(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn validation_bounds_the_poisson_mean() {
        // The Knuth sampler asserts lambda <= 700; a huge mean must be
        // a typed spec error, not a generation-time panic.
        let s = SyntheticSpec::new(100, 10, 3, 1e6);
        assert!(s.validate().is_err());
        let err = s.try_generate().unwrap_err();
        assert!(matches!(err, crate::DataError::InvalidSpec(_)), "{err}");
        assert!(SyntheticSpec::new(100, 10, 3, 700.0).validate().is_ok());
    }

    #[test]
    fn k1_and_d2_specs_generate_usable_files() {
        // k = 1: no sharing rule, single cluster plus outliers.
        let ds = SyntheticSpec::new(300, 6, 1, 3.0).seed(3).generate();
        assert_eq!(ds.clusters.len(), 1);
        assert_eq!(ds.len(), 300);
        assert!(ds.clusters[0].size > 0);
        // d = 2: every cluster is clamped to the full 2-dim space.
        let ds = SyntheticSpec::new(300, 2, 3, 2.0).seed(3).generate();
        assert_eq!(ds.points.cols(), 2);
        assert!(ds.clusters.iter().all(|c| c.dims == vec![0, 1]));
        assert!(ds.clusters.iter().all(|c| c.size > 0));
    }

    #[test]
    fn outlier_fraction_edges() {
        // 0.0 is fully supported: no outlier rows at all.
        let ds = SyntheticSpec::new(400, 8, 4, 3.0)
            .outlier_fraction(0.0)
            .seed(11)
            .generate();
        assert_eq!(ds.outlier_count(), 0);
        assert_eq!(ds.clusters.iter().map(|c| c.size).sum::<usize>(), 400);
        // 1.0 (and anything past 0.5) is a typed error: there would be
        // no cluster points left to cluster.
        let err = SyntheticSpec::new(400, 8, 4, 3.0)
            .outlier_fraction(1.0)
            .try_generate()
            .unwrap_err();
        assert!(matches!(err, crate::DataError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("outlier_fraction"), "{err}");
    }

    #[test]
    fn builder_methods_chain() {
        let s = SyntheticSpec::new(1000, 10, 3, 4.0)
            .seed(99)
            .outlier_fraction(0.1);
        assert_eq!(s.seed, 99);
        assert_eq!(s.outlier_fraction, 0.1);
    }
}
