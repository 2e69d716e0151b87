//! Cross-backend agreement: the coarse profile-driven backend and the
//! fine-grained physical backend — two independent mechanisms on the same
//! event kernel — must agree on recovered TFLOPs when run from the same
//! experiment spec, reproducing the paper's simulator-validation result
//! (Fig. 6).

use pipefill::core::experiments::validation::{Fig6Agreement, AGREEMENT_TOLERANCE};
use pipefill::core::experiments::{Experiment, Grid};

#[test]
fn coarse_and_physical_backends_agree_on_recovered_tflops() {
    let grid = |seeds| Grid {
        seeds,
        iterations: 200,
        ..Grid::default()
    };
    let t = Fig6Agreement.run(&grid(3));
    assert_eq!(t.len(), 3);
    let column = |name| t.f64_column(name);
    let (seeds, coarse, physical) = (
        column("seed"),
        column("coarse_recovered"),
        column("physical_recovered"),
    );
    let (error, slowdown) = (column("relative_error"), column("physical_slowdown"));
    for i in 0..t.len() {
        let seed = seeds[i];
        println!(
            "seed {seed}: coarse {:.3} vs physical {:.3} TFLOPS/GPU (error {:.2}%, slowdown {:.2}%)",
            coarse[i],
            physical[i],
            100.0 * error[i],
            100.0 * slowdown[i],
        );
        assert!(
            coarse[i] > 0.0 && physical[i] > 0.0,
            "seed {seed}: a backend recovered nothing"
        );
        assert!(
            error[i] < AGREEMENT_TOLERANCE,
            "seed {seed}: backends disagree by {:.1}% (tolerance {:.0}%): coarse {} vs physical {}",
            100.0 * error[i],
            100.0 * AGREEMENT_TOLERANCE,
            coarse[i],
            physical[i],
        );
        // The physical run must stay inside the paper's overhead budget —
        // agreement on throughput is meaningless if the main job is being
        // throttled to get it.
        assert!(
            slowdown[i] < 0.02,
            "seed {seed}: slowdown {:.2}% breaches the 2% budget",
            100.0 * slowdown[i]
        );
    }
    // Determinism across the parallel sweep: re-running a seed reproduces
    // its row exactly.
    let again = Fig6Agreement.run(&grid(2));
    assert_eq!(again.filter("seed", 2u64), t.filter("seed", 2u64));
}
