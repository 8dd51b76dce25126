//! Array configuration.

use afraid_avail::params::ModelParams;
use afraid_disk::model::DiskModel;
use afraid_disk::sched::Policy;
use afraid_sim::time::{SimDuration, SimTime};

use crate::nvram::MarkGranularity;
use crate::policy::ParityPolicy;
use crate::regions::RegionMap;

/// Complete configuration of one simulated array.
///
/// [`ArrayConfig::paper_default`] reproduces the paper's experimental
/// setup (§4.1): a 5-wide spin-synchronised array of HP C3325 disks,
/// 8 KB stripe units, CLOOK at the host, FCFS at the back end
/// (implicit in the disk model), a 100 ms timer-based idle detector,
/// a 256 KB read cache with no read-ahead, and concurrency limited to
/// the number of physical disks.
#[derive(Clone, Debug)]
pub struct ArrayConfig {
    /// Number of spindles.
    pub disks: u32,
    /// Stripe unit ("depth") in bytes.
    pub stripe_unit_bytes: u64,
    /// Disk drive model for every spindle.
    pub disk_model: DiskModel,
    /// Parity-update policy.
    pub policy: ParityPolicy,
    /// Host device-driver scheduling policy.
    pub host_policy: Policy,
    /// Quiet time before the array counts as idle.
    pub idle_delay: SimDuration,
    /// Maximum adjacent stripes coalesced into one scrub batch; also
    /// the scrubber's preemption granularity.
    pub scrub_batch: u64,
    /// Marking-memory granularity (bits per stripe).
    pub mark_granularity: MarkGranularity,
    /// Array-controller read cache size in bytes (no read-ahead).
    pub read_cache_bytes: u64,
    /// Availability model parameters (used by `MttdlTarget`).
    pub params: ModelParams,
    /// Maintain the shadow content model (verifies parity arithmetic).
    /// Not free: making every run keep it measured 1.23x the wall time
    /// of `sweep --full` and 1.27x the CPU time of `paper all` on
    /// 2 vCPUs, with peak RSS 15.5 -> 22.9 MB on the latter.
    pub shadow: bool,
    /// Per-region redundancy overrides (paper §5); empty = the whole
    /// array follows `policy`.
    pub regions: RegionMap,
    /// Latent-error injection and background-scrubbing knobs.
    pub scrub: ScrubConfig,
    /// Transient-fault injection and retry/eviction knobs.
    pub faults: FaultConfig,
    /// Silent-corruption injection and checksum verification knobs.
    pub integrity: IntegrityConfig,
}

/// Configuration of the latent sector error process and the
/// idle-driven tour scrubber (see [`crate::scrub`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScrubConfig {
    /// Run background scrub tours during idle periods.
    pub enabled: bool,
    /// Disk reads per second the scrubber may consume (token bucket).
    pub iops_budget: f64,
    /// Target time for one full tour of the array. Advisory: the tour
    /// is paced by `iops_budget`, and this sets the availability
    /// model's expected detection window and the acceptance bound
    /// checked by tests.
    pub tour_period: SimDuration,
    /// Mean latent sector errors per disk per simulated hour
    /// (0 disables the error process entirely).
    pub latent_rate_per_disk_hour: f64,
}

/// Seed for the latent sector error process and the tour origins.
pub const LATENT_SEED: u64 = 0x5eed_1a7e;

/// Master seed for the per-disk silent-fault streams.
pub const INTEGRITY_SEED: u64 = 0xc044_5eed;

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            enabled: false,
            iops_budget: 50.0,
            tour_period: SimDuration::from_secs(3600),
            latent_rate_per_disk_hour: 0.0,
        }
    }
}

/// Transient per-I/O fault injection and the controller's recovery
/// policy (see [`afraid_disk::fault`] and the retry machinery in
/// [`crate::controller`]).
///
/// The default configuration is *inactive*: no injectors are built,
/// no random numbers are drawn and no extra events are scheduled, so
/// a run with the default `FaultConfig` is bit-identical to one from
/// before the subsystem existed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability one disk command attempt reports a transient media
    /// error (retries redraw).
    pub media_error_per_io: f64,
    /// Probability one disk command attempt hangs until the command
    /// timeout.
    pub timeout_per_io: f64,
    /// Command timeout: a command whose service exceeds this reports a
    /// timeout to the controller at the deadline.
    pub io_timeout: SimDuration,
    /// Retries after a failed first attempt, with exponential backoff.
    pub max_retries: u32,
    /// EWMA health score at which a disk is proactively evicted
    /// (0 disables eviction).
    pub evict_threshold: f64,
    /// EWMA weight of the newest observation in the health score.
    pub health_alpha: f64,
    /// Spare installation delay after a health eviction, used when the
    /// run options don't specify one.
    pub evict_spare_delay: SimDuration,
    /// Fail-slow window, if one disk should limp.
    pub fail_slow: Option<FailSlowConfig>,
    /// Master seed for the per-disk fault streams.
    pub seed: u64,
}

/// One disk limps: mechanical service times inflate by `factor` for
/// commands starting within `duration` of `start`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailSlowConfig {
    /// Which disk limps.
    pub disk: u32,
    /// When the limp begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Service-time multiplier (>= 1).
    pub factor: f64,
}

impl FaultConfig {
    /// True when any fault process is configured. Inactive configs
    /// install no injectors, keeping the no-fault path byte-identical.
    pub fn active(&self) -> bool {
        self.media_error_per_io > 0.0 || self.timeout_per_io > 0.0 || self.fail_slow.is_some()
    }
}

/// Silent-corruption injection rates and the checksum layer's policy
/// knobs (see [`crate::integrity`]).
///
/// The default is fully *inactive*: no corruption is injected, no
/// checksum state is built, no random numbers are drawn — a run with
/// the default `IntegrityConfig` is bit-identical to one from before
/// the subsystem existed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntegrityConfig {
    /// Probability one client read of a unit returns flipped bits
    /// (transient: the platter stays correct).
    pub bit_flip_per_read: f64,
    /// Probability one unit write persists only part of its payload.
    pub torn_write_per_io: f64,
    /// Probability one unit write is acknowledged but never persisted.
    pub lost_write_per_io: f64,
    /// Probability one unit write lands on a neighbouring unit of the
    /// same disk instead of its target.
    pub misdirected_write_per_io: f64,
    /// Verify every client read against the per-unit checksum map and
    /// repair (or declare) mismatches.
    pub verify_reads: bool,
    /// Verify checksums during scrub batches and scrub tours, *before*
    /// parity is rebuilt — otherwise a scrub would launder corruption
    /// into freshly consistent parity.
    pub verify_scrub: bool,
}

impl IntegrityConfig {
    /// True when any silent corruption is being injected.
    pub fn injecting(&self) -> bool {
        self.bit_flip_per_read > 0.0
            || self.torn_write_per_io > 0.0
            || self.lost_write_per_io > 0.0
            || self.misdirected_write_per_io > 0.0
    }

    /// True when the integrity subsystem needs to be built at all:
    /// either corruption is injected or some verification is on.
    pub fn active(&self) -> bool {
        self.injecting() || self.verify_reads || self.verify_scrub
    }
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            bit_flip_per_read: 0.0,
            torn_write_per_io: 0.0,
            lost_write_per_io: 0.0,
            misdirected_write_per_io: 0.0,
            verify_reads: false,
            verify_scrub: false,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            media_error_per_io: 0.0,
            timeout_per_io: 0.0,
            io_timeout: SimDuration::from_millis(500),
            max_retries: 4,
            evict_threshold: 0.0,
            health_alpha: 0.3,
            evict_spare_delay: SimDuration::from_secs(10),
            fail_slow: None,
            seed: 0xf417_5eed,
        }
    }
}

impl ArrayConfig {
    /// The paper's experimental configuration with the given policy.
    pub fn paper_default(policy: ParityPolicy) -> ArrayConfig {
        ArrayConfig {
            disks: 5,
            stripe_unit_bytes: 8 * 1024,
            disk_model: DiskModel::hp_c3325(),
            policy,
            host_policy: Policy::Clook,
            idle_delay: SimDuration::from_millis(100),
            scrub_batch: 8,
            mark_granularity: MarkGranularity::STRIPE,
            read_cache_bytes: 256 * 1024,
            params: ModelParams::default(),
            shadow: false,
            regions: RegionMap::none(),
            scrub: ScrubConfig::default(),
            faults: FaultConfig::default(),
            integrity: IntegrityConfig::default(),
        }
    }

    /// A small fast array over the unit-test disk model: useful in
    /// tests and examples that need quick, readable numbers.
    pub fn small_test(policy: ParityPolicy) -> ArrayConfig {
        ArrayConfig {
            disk_model: DiskModel::test_disk(),
            read_cache_bytes: 0,
            shadow: true,
            ..ArrayConfig::paper_default(policy)
        }
    }

    /// Number of data disks (`disks - 1`).
    pub fn n_data(&self) -> u32 {
        self.disks - 1
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(3..=64).contains(&self.disks) {
            return Err(format!("disks must be 3..=64, got {}", self.disks));
        }
        if self.stripe_unit_bytes == 0 || !self.stripe_unit_bytes.is_multiple_of(512) {
            return Err(format!(
                "stripe unit must be a positive multiple of 512, got {}",
                self.stripe_unit_bytes
            ));
        }
        let unit_sectors = self.stripe_unit_bytes / 512;
        let rows = u64::from(self.mark_granularity.bits());
        if !unit_sectors.is_multiple_of(rows) {
            return Err(format!(
                "mark granularity of {rows} rows must divide the stripe unit \
                 ({unit_sectors} sectors)"
            ));
        }
        if self.scrub_batch == 0 {
            return Err("scrub batch must be at least one stripe".to_string());
        }
        if self.idle_delay.is_zero() {
            return Err("idle delay must be positive".to_string());
        }
        self.params.validate()?;
        if self.disk_model.geometry.capacity_sectors() < unit_sectors {
            return Err("disk smaller than one stripe unit".to_string());
        }
        let stripes = self.disk_model.geometry.capacity_sectors() / unit_sectors;
        self.regions.validate(stripes)?;
        if !self.scrub.iops_budget.is_finite() || self.scrub.iops_budget <= 0.0 {
            return Err(format!(
                "scrub IOPS budget must be positive, got {}",
                self.scrub.iops_budget
            ));
        }
        if self.scrub.tour_period.is_zero() {
            return Err("scrub tour period must be positive".to_string());
        }
        if !self.scrub.latent_rate_per_disk_hour.is_finite()
            || self.scrub.latent_rate_per_disk_hour < 0.0
        {
            return Err(format!(
                "latent error rate must be finite and non-negative, got {}",
                self.scrub.latent_rate_per_disk_hour
            ));
        }
        let f = &self.faults;
        for (name, p) in [
            ("media error probability", f.media_error_per_io),
            ("timeout probability", f.timeout_per_io),
            ("evict threshold", f.evict_threshold),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if f.io_timeout.is_zero() {
            return Err("I/O timeout must be positive".to_string());
        }
        if f.max_retries > 16 {
            return Err(format!("max retries must be <= 16, got {}", f.max_retries));
        }
        if !(f.health_alpha > 0.0 && f.health_alpha <= 1.0) {
            return Err(format!(
                "health EWMA alpha must be in (0, 1], got {}",
                f.health_alpha
            ));
        }
        if f.evict_spare_delay.is_zero() {
            return Err("evict spare delay must be positive".to_string());
        }
        if let Some(fs) = f.fail_slow {
            if fs.disk >= self.disks {
                return Err(format!(
                    "fail-slow disk {} out of range for {} disks",
                    fs.disk, self.disks
                ));
            }
            if !fs.factor.is_finite() || fs.factor < 1.0 {
                return Err(format!("fail-slow factor must be >= 1, got {}", fs.factor));
            }
            if fs.duration.is_zero() {
                return Err("fail-slow duration must be positive".to_string());
            }
        }
        let i = &self.integrity;
        for (name, p) in [
            ("bit-flip probability", i.bit_flip_per_read),
            ("torn-write probability", i.torn_write_per_io),
            ("lost-write probability", i.lost_write_per_io),
            ("misdirected-write probability", i.misdirected_write_per_io),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if i.active() && !self.shadow {
            return Err(
                "integrity subsystem requires the shadow content model (set shadow = true)"
                    .to_string(),
            );
        }
        Ok(())
    }
}

impl crate::driver::RunOptions {
    /// Checks the options against the array they will run on, the
    /// way [`ArrayConfig::validate`] checks the array itself. Each
    /// message starts with the offending field's name and a colon.
    /// The driver keeps its own assertions as invariants.
    pub fn validate(&self, cfg: &ArrayConfig) -> Result<(), String> {
        if let Some((disk, _)) = self.fail_disk {
            if disk >= cfg.disks {
                return Err(format!(
                    "fail_disk: no such disk {disk} in a {}-disk array",
                    cfg.disks
                ));
            }
        }
        if self.spare_delay.is_some() && !self.continue_degraded {
            return Err("spare_delay: a spare needs continue_degraded".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        assert!(c.validate().is_ok());
        assert_eq!(c.disks, 5);
        assert_eq!(c.n_data(), 4);
        assert_eq!(c.stripe_unit_bytes, 8192);
        assert_eq!(c.idle_delay, SimDuration::from_millis(100));
    }

    #[test]
    fn small_test_is_valid() {
        assert!(ArrayConfig::small_test(ParityPolicy::AlwaysRaid5)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.disks = 2;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.stripe_unit_bytes = 1000;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.mark_granularity = MarkGranularity::rows(32);
        assert_eq!(c.stripe_unit_bytes / 512, 16);
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.scrub_batch = 0;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.idle_delay = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.scrub.iops_budget = 0.0;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.scrub.tour_period = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.scrub.latent_rate_per_disk_hour = -1.0;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.media_error_per_io = 1.5;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.timeout_per_io = -0.1;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.io_timeout = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.health_alpha = 0.0;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.max_retries = 99;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.fail_slow = Some(FailSlowConfig {
            disk: 7,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            factor: 2.0,
        });
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.faults.fail_slow = Some(FailSlowConfig {
            disk: 1,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            factor: 0.5,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn faults_are_inactive_by_default() {
        let c = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        assert!(!c.faults.active());
        let mut c = c;
        c.faults.media_error_per_io = 1e-4;
        assert!(c.faults.active());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn integrity_is_inactive_by_default() {
        let c = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        assert!(!c.integrity.active());
        assert!(!c.integrity.injecting());
        // Injection rates and verification both activate the subsystem.
        let mut inj = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        inj.integrity.torn_write_per_io = 1e-3;
        assert!(inj.integrity.injecting() && inj.integrity.active());
        assert!(inj.validate().is_ok());
        let mut ver = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        ver.integrity.verify_reads = true;
        assert!(!ver.integrity.injecting());
        assert!(ver.integrity.active());
        assert!(ver.validate().is_ok());
    }

    #[test]
    fn integrity_validation_rejects_bad_configs() {
        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.integrity.bit_flip_per_read = 1.5;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        c.integrity.misdirected_write_per_io = -0.1;
        assert!(c.validate().is_err());

        // Active integrity needs the shadow ground truth.
        let mut c = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        assert!(!c.shadow);
        c.integrity.verify_reads = true;
        assert!(c.validate().is_err());
        c.shadow = true;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scrubbing_is_off_by_default() {
        let c = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        assert!(!c.scrub.enabled);
        assert_eq!(c.scrub.latent_rate_per_disk_hour, 0.0);
    }
}
