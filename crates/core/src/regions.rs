//! Per-region redundancy policies (paper §5).
//!
//! "Stripe-aligned subsets of an AFRAID's storage space could be
//! permanently flagged with different redundancy properties, from full
//! RAID 5 redundancy-preservation to zero-redundancy RAID 0-style
//! storage. Data could then be mapped to portions of the array that
//! provided different redundancy guarantees" \[Wilkes91\].
//!
//! A [`RegionMap`] assigns each stripe one of three modes:
//!
//! * [`RegionMode::Default`] — follow the array's configured policy;
//! * [`RegionMode::AlwaysProtect`] — writes always keep parity
//!   consistent (a filesystem-metadata or database-log region);
//! * [`RegionMode::NeverProtect`] — writes never touch parity and the
//!   stripes are never marked or scrubbed (scratch space, `/tmp`).

use serde::{Deserialize, Serialize};

use crate::nvram::MarkingMemory;

/// Redundancy mode of one region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionMode {
    /// Follow the array-wide parity policy.
    Default,
    /// RAID 5 semantics regardless of the array policy.
    AlwaysProtect,
    /// RAID 0 semantics: no parity maintenance, no marking, no scrub.
    NeverProtect,
}

/// A stripe-aligned region with an assigned mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// First stripe of the region.
    pub first_stripe: u64,
    /// Number of stripes.
    pub stripes: u64,
    /// Redundancy mode.
    pub mode: RegionMode,
}

/// An ordered, non-overlapping set of regions over the stripe space.
///
/// Stripes not covered by any region use [`RegionMode::Default`].
///
/// # Examples
///
/// ```
/// use afraid::regions::{Region, RegionMap, RegionMode};
///
/// let map = RegionMap::new(vec![Region {
///     first_stripe: 0,
///     stripes: 100,
///     mode: RegionMode::AlwaysProtect,
/// }]);
/// assert_eq!(map.mode_of(50), RegionMode::AlwaysProtect);
/// assert_eq!(map.mode_of(100), RegionMode::Default);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RegionMap {
    /// Regions sorted by `first_stripe`.
    regions: Vec<Region>,
}

impl RegionMap {
    /// An empty map: everything follows the array policy.
    pub const fn none() -> RegionMap {
        RegionMap {
            regions: Vec::new(),
        }
    }

    /// Builds a map from regions, sorting and validating them.
    ///
    /// # Panics
    ///
    /// Panics if any region is empty or regions overlap.
    pub fn new(mut regions: Vec<Region>) -> RegionMap {
        regions.sort_by_key(|r| r.first_stripe);
        for r in &regions {
            assert!(r.stripes > 0, "empty region at stripe {}", r.first_stripe);
        }
        for w in regions.windows(2) {
            assert!(
                w[0].first_stripe + w[0].stripes <= w[1].first_stripe,
                "regions overlap at stripe {}",
                w[1].first_stripe
            );
        }
        RegionMap { regions }
    }

    /// True if no regions are defined.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The regions, sorted.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The mode governing `stripe`.
    pub fn mode_of(&self, stripe: u64) -> RegionMode {
        // Find the last region starting at or before the stripe.
        let i = self.regions.partition_point(|r| r.first_stripe <= stripe);
        if i == 0 {
            return RegionMode::Default;
        }
        let r = &self.regions[i - 1];
        if stripe < r.first_stripe + r.stripes {
            r.mode
        } else {
            RegionMode::Default
        }
    }

    /// Whether `stripe`'s parity agrees with its data: it is not
    /// marked dirty, and it lies outside a never-protected region,
    /// whose parity is never maintained. The controller and crash
    /// recovery both decide freshness here.
    pub fn parity_fresh(&self, marks: &MarkingMemory, stripe: u64) -> bool {
        !marks.is_marked(stripe) && self.mode_of(stripe) != RegionMode::NeverProtect
    }

    /// Fails the NVRAM: the marking memory loses its contents and
    /// every stripe that keeps parity is marked suspect
    /// ([`MarkingMemory::fail`]); a never-protected stripe has no
    /// parity to doubt and stays unmarked. The controller and crash
    /// recovery both fail the NVRAM here.
    pub fn fail_nvram(&self, marks: &mut MarkingMemory) {
        marks.fail();
        for r in &self.regions {
            if r.mode == RegionMode::NeverProtect {
                for stripe in r.first_stripe..r.first_stripe + r.stripes {
                    marks.clear(stripe);
                }
            }
        }
    }

    /// Validates the map against an array of `total_stripes`.
    ///
    /// # Errors
    ///
    /// Returns a description if any region extends past the array.
    pub fn validate(&self, total_stripes: u64) -> Result<(), String> {
        for r in &self.regions {
            if r.first_stripe + r.stripes > total_stripes {
                return Err(format!(
                    "region at stripe {} (+{}) extends past the array ({total_stripes} stripes)",
                    r.first_stripe, r.stripes
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> RegionMap {
        RegionMap::new(vec![
            Region {
                first_stripe: 10,
                stripes: 5,
                mode: RegionMode::AlwaysProtect,
            },
            Region {
                first_stripe: 100,
                stripes: 50,
                mode: RegionMode::NeverProtect,
            },
        ])
    }

    #[test]
    fn lookup_modes() {
        let m = map();
        assert_eq!(m.mode_of(0), RegionMode::Default);
        assert_eq!(m.mode_of(9), RegionMode::Default);
        assert_eq!(m.mode_of(10), RegionMode::AlwaysProtect);
        assert_eq!(m.mode_of(14), RegionMode::AlwaysProtect);
        assert_eq!(m.mode_of(15), RegionMode::Default);
        assert_eq!(m.mode_of(100), RegionMode::NeverProtect);
        assert_eq!(m.mode_of(149), RegionMode::NeverProtect);
        assert_eq!(m.mode_of(150), RegionMode::Default);
    }

    #[test]
    fn nvram_failure_marks_only_stripes_with_parity() {
        let mut marks = MarkingMemory::new(200, crate::nvram::MarkGranularity::STRIPE);
        map().fail_nvram(&mut marks);
        assert!(marks.has_failed());
        assert_eq!(marks.marked_count(), 150);
        for s in 0..200 {
            assert_eq!(marks.is_marked(s), !(100..150).contains(&s), "stripe {s}");
        }
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let m = RegionMap::new(vec![
            Region {
                first_stripe: 50,
                stripes: 1,
                mode: RegionMode::NeverProtect,
            },
            Region {
                first_stripe: 5,
                stripes: 1,
                mode: RegionMode::AlwaysProtect,
            },
        ]);
        assert_eq!(m.mode_of(5), RegionMode::AlwaysProtect);
        assert_eq!(m.mode_of(50), RegionMode::NeverProtect);
    }

    #[test]
    fn empty_map_is_default_everywhere() {
        let m = RegionMap::none();
        assert!(m.is_empty());
        assert_eq!(m.mode_of(12345), RegionMode::Default);
    }

    #[test]
    #[should_panic(expected = "regions overlap")]
    fn overlap_rejected() {
        let _ = RegionMap::new(vec![
            Region {
                first_stripe: 0,
                stripes: 10,
                mode: RegionMode::Default,
            },
            Region {
                first_stripe: 9,
                stripes: 2,
                mode: RegionMode::Default,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_rejected() {
        let _ = RegionMap::new(vec![Region {
            first_stripe: 0,
            stripes: 0,
            mode: RegionMode::Default,
        }]);
    }

    #[test]
    fn validate_bounds() {
        let m = map();
        assert!(m.validate(200).is_ok());
        assert!(m.validate(120).is_err());
    }

    #[test]
    fn adjacent_regions_allowed() {
        let m = RegionMap::new(vec![
            Region {
                first_stripe: 0,
                stripes: 10,
                mode: RegionMode::AlwaysProtect,
            },
            Region {
                first_stripe: 10,
                stripes: 10,
                mode: RegionMode::NeverProtect,
            },
        ]);
        assert_eq!(m.mode_of(9), RegionMode::AlwaysProtect);
        assert_eq!(m.mode_of(10), RegionMode::NeverProtect);
    }
}
