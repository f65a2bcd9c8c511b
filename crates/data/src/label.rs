//! Ground-truth labels for generated data.

use std::fmt;

/// Ground-truth label of a generated point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// Generated as part of input cluster `i` (0-based).
    Cluster(usize),
    /// Generated uniformly at random over the whole space.
    Outlier,
}

impl Label {
    /// The cluster index, if this is a cluster point.
    #[inline]
    pub fn cluster(self) -> Option<usize> {
        match self {
            Label::Cluster(i) => Some(i),
            Label::Outlier => None,
        }
    }

    /// `true` for outlier labels.
    #[inline]
    pub fn is_outlier(self) -> bool {
        matches!(self, Label::Outlier)
    }

    /// The label's integer id in the binary formats and the scenario
    /// digest: the cluster index, or −1 for an outlier.
    #[inline]
    pub fn id(self) -> i64 {
        match self {
            Label::Cluster(i) => i as i64,
            Label::Outlier => -1,
        }
    }

    /// The inverse of [`Label::id`]; `None` for ids below −1.
    #[inline]
    pub fn from_id(id: i64) -> Option<Self> {
        match id {
            -1 => Some(Label::Outlier),
            _ => usize::try_from(id).ok().map(Label::Cluster),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The paper letters its input clusters A, B, C, ...
            Label::Cluster(i) if *i < 26 => {
                write!(f, "{}", (b'A' + *i as u8) as char)
            }
            Label::Cluster(i) => write!(f, "C{i}"),
            Label::Outlier => write!(f, "Out."),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_accessor() {
        assert_eq!(Label::Cluster(3).cluster(), Some(3));
        assert_eq!(Label::Outlier.cluster(), None);
        assert!(Label::Outlier.is_outlier());
        assert!(!Label::Cluster(0).is_outlier());
    }

    #[test]
    fn ids_round_trip_and_outlier_is_minus_one() {
        assert_eq!(Label::Outlier.id(), -1);
        assert_eq!(Label::Cluster(7).id(), 7);
        for l in [Label::Outlier, Label::Cluster(0), Label::Cluster(41)] {
            assert_eq!(Label::from_id(l.id()), Some(l));
        }
        assert_eq!(Label::from_id(-2), None);
        assert_eq!(Label::from_id(i64::MIN), None);
    }

    #[test]
    fn display_letters_like_the_paper() {
        assert_eq!(Label::Cluster(0).to_string(), "A");
        assert_eq!(Label::Cluster(4).to_string(), "E");
        assert_eq!(Label::Cluster(30).to_string(), "C30");
        assert_eq!(Label::Outlier.to_string(), "Out.");
    }
}
