//! The builder is the only construction path for engine configurations:
//! every invalid parameter combination must come back as the right typed
//! [`ConfigError`] — no panicking path remains.

use edmstream::core::config::ConfigError;
use edmstream::{EdmConfig, EdmError, EdmStream, Euclidean, TauMode};

#[test]
fn nonpositive_radius_is_rejected() {
    for r in [0.0, -1.0] {
        match EdmConfig::builder(r).build() {
            Err(ConfigError::NonPositiveRadius { r: got }) => assert_eq!(got, r),
            other => panic!("r = {r}: expected NonPositiveRadius, got {other:?}"),
        }
    }
}

#[test]
fn nonpositive_beta_is_rejected_as_out_of_range() {
    for beta in [0.0, -0.5] {
        match EdmConfig::builder(1.0).beta(beta).build() {
            Err(ConfigError::BetaOutOfRange { beta: got, lo, hi }) => {
                assert_eq!(got, beta);
                assert!(lo < hi, "admissible range must be reported non-empty");
            }
            other => panic!("beta = {beta}: expected BetaOutOfRange, got {other:?}"),
        }
    }
}

#[test]
fn zero_rate_is_rejected() {
    match EdmConfig::builder(1.0).rate(0.0).build() {
        Err(ConfigError::NonPositiveRate { rate }) => assert_eq!(rate, 0.0),
        other => panic!("expected NonPositiveRate, got {other:?}"),
    }
}

#[test]
fn zero_cadences_and_capacities_are_rejected() {
    assert_eq!(
        EdmConfig::builder(1.0).init_points(0).build().unwrap_err(),
        ConfigError::ZeroInitPoints
    );
    assert_eq!(
        EdmConfig::builder(1.0).tau_every(0).build().unwrap_err(),
        ConfigError::ZeroTauEvery
    );
    assert_eq!(
        EdmConfig::builder(1.0).maintenance_every(0).build().unwrap_err(),
        ConfigError::ZeroMaintenanceEvery
    );
    assert_eq!(
        EdmConfig::builder(1.0).event_capacity(0).build().unwrap_err(),
        ConfigError::ZeroEventCapacity
    );
}

#[test]
fn nonpositive_static_tau_is_rejected() {
    match EdmConfig::builder(1.0).tau_mode(TauMode::Static(-2.0)).build() {
        Err(ConfigError::NonPositiveStaticTau { tau }) => assert_eq!(tau, -2.0),
        other => panic!("expected NonPositiveStaticTau, got {other:?}"),
    }
}

#[test]
fn config_errors_convert_into_edm_errors() {
    let err: EdmError = EdmConfig::builder(0.0).build().unwrap_err().into();
    assert!(matches!(err, EdmError::Config(ConfigError::NonPositiveRadius { .. })));
    assert!(err.to_string().contains("radius"));
}

#[test]
fn valid_builds_construct_working_engines() {
    // The full setter surface in one chain; the engine takes the config
    // without any validation step of its own.
    let cfg = EdmConfig::builder(0.5)
        .rate(100.0)
        .beta(6e-5)
        .init_points(8)
        .tau_every(32)
        .maintenance_every(16)
        .tau0(2.0)
        .recycle_horizon(60.0)
        .age_adjusted_threshold(true)
        .event_capacity(256)
        .build()
        .expect("valid configuration");
    assert_eq!(cfg.event_capacity(), 256);
    let mut engine = EdmStream::new(cfg, Euclidean);
    for i in 0..32 {
        engine.insert(&edmstream::DenseVector::from([0.0, 0.0]), i as f64 / 100.0);
    }
    assert!(engine.is_initialized());
    assert_eq!(engine.snapshot(0.32).n_clusters(), 1);
}
