//! Differential validation against the simulator, positive half: programs
//! the verifier passes as error-free must run to completion (no deadlock,
//! no fault) on a real cluster. The seeded generator covers integer loops,
//! FREP bodies, SSR streams, DMA copies with wait loops and SPMD barriers —
//! every shape the checks reason about.

use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_sim::testing::{observe_with, random_program, Rng};
use snitch_verify::{error_count, report, verify};

/// 40 seeds across single-core and SPMD shapes: the verifier must report
/// zero errors, and the simulator must agree by running each program to
/// completion (`observe_with` panics on deadlock or fault).
#[test]
fn verifier_passed_programs_do_not_deadlock() {
    for seed in 0..40u64 {
        let mut rng = Rng(0x5eed_0000 + seed);
        let cores = [1usize, 2, 4][(seed % 3) as usize];
        let frags = 3 + (seed % 5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let config = ClusterConfig { cores, ..ClusterConfig::default() };
        let diags = verify(&program, &SystemConfig::from(config));
        assert_eq!(
            error_count(&diags),
            0,
            "seed {seed}: generator output must verify clean\n{}",
            report(&format!("seed {seed}"), &diags)
        );
        // The sim is the ground truth the severity contract is calibrated
        // against: error-free implies it completes.
        let obs = observe_with(&program, cores, |_| {});
        assert!(obs.stats.cycles > 0, "seed {seed} ran");
    }
}
