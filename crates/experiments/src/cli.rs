//! Minimal command-line options shared by all experiment binaries.

use bitrobust_core::TrainMethod;
use bitrobust_quant::QuantScheme;

use crate::zoo::{DatasetKind, ZooSpec};

/// Options parsed from the command line.
///
/// Every experiment binary accepts:
///
/// * `--quick` — fewer epochs and chips (smoke-test mode);
/// * `--chips N` — number of random chips for RErr averaging (at least
///   1);
/// * `--seed S` — base RNG seed;
/// * `--no-cache` — ignore the model zoo cache and retrain.
///
/// Binaries that drive the sweep orchestrator additionally accept:
///
/// * `--resume` — reuse the on-disk sweep store, skipping completed cells
///   (the default: resuming is always byte-safe because cells are keyed by
///   a content hash of their full identity);
/// * `--fresh` — delete the binary's sweep store first and recompute every
///   cell.
///
/// All binaries also accept `--obs <spec>` (`off|counters|trace` or
/// `trace:<path>`), which overrides the `BITROBUST_OBS` environment
/// variable; see `bitrobust_obs` for the full schema. Observability is
/// bit-neutral — results are identical with it on or off.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Reduced-effort mode for smoke tests.
    pub quick: bool,
    /// Number of random chips per RErr estimate.
    pub chips: usize,
    /// Base seed.
    pub seed: u64,
    /// Skip the on-disk model cache.
    pub no_cache: bool,
    /// Delete the sweep store before running (`--fresh`); the default is
    /// to resume from it.
    pub fresh: bool,
    /// `--obs` spec, if given (applied by [`ExpOptions::from_args`];
    /// `parse` stays a pure function for tests).
    pub obs: Option<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self { quick: false, chips: 20, seed: 0, no_cache: false, fresh: false, obs: None }
    }
}

impl ExpOptions {
    /// Parses `std::env::args`, ignoring unknown flags, and applies the
    /// `--obs` spec (if any) to the global observability config. A bad
    /// option value (`--chips 0`, an unknown obs spec) exits with status 2
    /// and a usage message rather than failing deep inside a campaign or
    /// silently recording nothing.
    pub fn from_args() -> Self {
        let opts = Self::parse(&std::env::args().skip(1).collect::<Vec<String>>())
            .unwrap_or_else(|e| usage_error(&e));
        if let Some(spec) = &opts.obs {
            match bitrobust_obs::ObsConfig::parse(spec) {
                Ok(cfg) => bitrobust_obs::init(&cfg.with_env_paths()),
                Err(e) => usage_error(&format!("--obs: {e}")),
            }
        }
        opts
    }

    /// Parses an argument list (exposed separately so flag handling is
    /// unit-testable; later flags win).
    ///
    /// # Errors
    ///
    /// Returns a message if the options ask for zero chips.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    opts.quick = true;
                    opts.chips = opts.chips.min(5);
                }
                "--no-cache" => opts.no_cache = true,
                "--fresh" => opts.fresh = true,
                "--resume" => opts.fresh = false,
                "--chips" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.chips = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                "--obs" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.obs = Some(v.clone());
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        if opts.chips == 0 {
            return Err("--chips: RErr needs at least one chip".to_string());
        }
        Ok(opts)
    }

    /// Scales an epoch budget down in quick mode.
    pub fn epochs(&self, full: usize) -> usize {
        if self.quick {
            (full / 3).max(2)
        } else {
            full
        }
    }

    /// The standard zoo spec for `kind`, with this run's epoch budget
    /// ([`ExpOptions::epochs`]) and seed applied.
    pub fn zoo_spec(
        &self,
        kind: DatasetKind,
        scheme: Option<QuantScheme>,
        method: TrainMethod,
    ) -> ZooSpec {
        let mut spec = ZooSpec::new(kind, scheme, method);
        spec.epochs = self.epochs(spec.epochs);
        spec.seed = self.seed;
        spec
    }
}

/// Prints `message` and the option summary to stderr, then exits with
/// status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: [--quick] [--chips N (N >= 1)] [--seed S] [--no-cache] [--fresh | --resume] \
         [--obs off|counters|trace|trace:<path>]"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn parse(args: &[&str]) -> ExpOptions {
        try_parse(args).expect("valid options")
    }

    #[test]
    fn defaults_are_sane() {
        let o = ExpOptions::default();
        assert!(!o.quick);
        assert_eq!(o.chips, 20);
        assert!(!o.fresh, "sweeps resume by default");
    }

    #[test]
    fn quick_reduces_epochs() {
        let mut o = ExpOptions::default();
        assert_eq!(o.epochs(30), 30);
        o.quick = true;
        assert_eq!(o.epochs(30), 10);
        assert_eq!(o.epochs(3), 2);
    }

    #[test]
    fn parses_flags_and_values() {
        let o = parse(&["--quick", "--chips", "3", "--seed", "7", "--no-cache"]);
        assert!(o.quick);
        assert_eq!(o.chips, 3);
        assert_eq!(o.seed, 7);
        assert!(o.no_cache);
        // Unknown flags are ignored, missing values leave defaults.
        let o = parse(&["--wat", "--chips"]);
        assert_eq!(o.chips, 20);
    }

    #[test]
    fn obs_spec_is_captured_not_applied_by_parse() {
        assert_eq!(parse(&[]).obs, None);
        assert_eq!(
            parse(&["--obs", "trace:/tmp/t.json"]).obs.as_deref(),
            Some("trace:/tmp/t.json")
        );
        // parse() never validates or installs the spec — that happens in
        // from_args, keeping this function pure for tests.
        assert_eq!(parse(&["--obs", "not-a-level"]).obs.as_deref(), Some("not-a-level"));
        assert_eq!(parse(&["--obs"]).obs, None);
    }

    #[test]
    fn zero_chips_is_rejected_at_parse_time() {
        assert!(try_parse(&["--chips", "0"]).unwrap_err().contains("--chips"));
        assert!(try_parse(&["--chips", "0", "--quick"]).is_err());
        assert_eq!(parse(&["--chips", "1"]).chips, 1);
    }

    #[test]
    fn zoo_spec_applies_epoch_budget_and_seed() {
        let o = parse(&["--quick", "--seed", "7"]);
        let spec = o.zoo_spec(DatasetKind::Cifar10, None, TrainMethod::Normal);
        assert_eq!(spec.epochs, o.epochs(DatasetKind::Cifar10.default_epochs()));
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn fresh_and_resume_toggle_with_last_flag_winning() {
        assert!(parse(&["--fresh"]).fresh);
        assert!(!parse(&["--resume"]).fresh);
        assert!(!parse(&["--fresh", "--resume"]).fresh);
        assert!(parse(&["--resume", "--fresh"]).fresh);
    }
}
