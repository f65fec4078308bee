//! The paper's published numbers, the one copy every driver compares
//! against: Table I (instruction mixes and the Eq. 1–3 estimators) and
//! Figure 2a–c (IPC, power, speedup and energy improvement), both in
//! [`Kernel::paper`] order, plus the headline geomeans the paper quotes.

use copift::estimate::MixCounts;

use crate::registry::Kernel;

/// One Table I row: per-unit instruction mixes (4 elements for the vector
/// kernels, 8 points for Monte Carlo) and the estimators derived from them.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Kernel.
    pub kernel: Kernel,
    /// Baseline mix.
    pub base: MixCounts,
    /// Thread imbalance `TI` of the baseline mix.
    pub ti: f64,
    /// COPIFT mix.
    pub copift: MixCounts,
    /// Expected IPC `I′` (Eq. 2).
    pub i_prime: f64,
    /// First-order speedup `S″ = 1 + TI` (Eq. 3).
    pub s_double_prime: f64,
    /// Expected speedup `S′` (Eq. 1).
    pub s_prime: f64,
}

const fn mix(n_int: u64, n_fp: u64) -> MixCounts {
    MixCounts { n_int, n_fp }
}

const fn t1(
    kernel: Kernel,
    base: MixCounts,
    ti: f64,
    copift: MixCounts,
    [i_prime, s_double_prime, s_prime]: [f64; 3],
) -> Table1Row {
    Table1Row { kernel, base, ti, copift, i_prime, s_double_prime, s_prime }
}

/// Table I.
pub const TABLE1: [Table1Row; 6] = [
    t1(Kernel::PiXoshiro, mix(172, 56), 0.33, mix(200, 56), [1.28, 1.33, 1.14]),
    t1(Kernel::PolyXoshiro, mix(172, 80), 0.47, mix(200, 80), [1.40, 1.47, 1.26]),
    t1(Kernel::PiLcg, mix(44, 56), 0.79, mix(72, 56), [1.78, 1.79, 1.39]),
    t1(Kernel::PolyLcg, mix(44, 80), 0.55, mix(72, 80), [1.90, 1.55, 1.55]),
    t1(Kernel::Logf, mix(39, 52), 0.75, mix(57, 36), [1.63, 1.75, 1.60]),
    t1(Kernel::Expf, mix(43, 52), 0.83, mix(43, 36), [1.84, 1.83, 2.21]),
];

/// One Figure 2 row; pairs are `(baseline, COPIFT)`.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Row {
    /// Kernel.
    pub kernel: Kernel,
    /// Steady-state IPC (Figure 2a).
    pub ipc: (f64, f64),
    /// Average power in mW (Figure 2b).
    pub power_mw: (f64, f64),
    /// Speedup (Figure 2c).
    pub speedup: f64,
    /// Energy improvement (Figure 2c).
    pub energy: f64,
}

const fn f2(
    kernel: Kernel,
    ipc: (f64, f64),
    power_mw: (f64, f64),
    [speedup, energy]: [f64; 2],
) -> Fig2Row {
    Fig2Row { kernel, ipc, power_mw, speedup, energy }
}

/// Figure 2a–c.
pub const FIG2: [Fig2Row; 6] = [
    f2(Kernel::PiXoshiro, (0.96, 1.24), (37.9, 39.0), [1.15, 1.12]),
    f2(Kernel::PolyXoshiro, (0.96, 1.36), (37.4, 38.4), [1.26, 1.22]),
    f2(Kernel::PiLcg, (0.86, 1.50), (41.5, 43.6), [1.32, 1.17]),
    f2(Kernel::PolyLcg, (0.89, 1.75), (38.7, 40.1), [1.58, 1.34]),
    f2(Kernel::Logf, (0.92, 1.48), (42.1, 45.1), [1.62, 1.61]),
    f2(Kernel::Expf, (0.92, 1.63), (41.8, 46.2), [2.05, 1.93]),
];

/// The geometric means the paper quotes for Figure 2 (its power ratio is
/// the quoted 1.07×, not the geomean of the Figure 2b bars).
#[derive(Clone, Copy, Debug)]
pub struct Geomeans {
    /// IPC gain, COPIFT over baseline.
    pub ipc_gain: f64,
    /// Power ratio, COPIFT over baseline.
    pub power_ratio: f64,
    /// Speedup.
    pub speedup: f64,
    /// Energy improvement.
    pub energy: f64,
}

/// The headline geomeans.
pub const GEOMEANS: Geomeans =
    Geomeans { ipc_gain: 1.62, power_ratio: 1.07, speedup: 1.47, energy: 1.37 };

/// The headline peak COPIFT IPC (Figure 2a's highest bar).
#[must_use]
pub fn peak_ipc() -> f64 {
    FIG2.iter().map(|r| r.ipc.1).fold(0.0, f64::max)
}

/// The row with the headline peak speedup (Figure 2c's highest bar).
#[must_use]
pub fn peak_speedup() -> Fig2Row {
    FIG2.into_iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)).expect("six rows")
}

/// Mean absolute percentage error of `(ours, paper)` pairs: the mean of
/// `|ours - paper| / paper`, in percent.
#[must_use]
pub fn mape_pct(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) = pairs
        .into_iter()
        .fold((0.0, 0u32), |(s, n), (ours, paper)| (s + (ours - paper).abs() / paper, n + 1));
    100.0 * sum / f64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copift::estimate::{i_prime, s_double_prime, s_prime, thread_imbalance};

    #[test]
    fn rows_follow_the_paper_kernel_order() {
        let paper = Kernel::paper();
        assert_eq!(TABLE1.map(|r| r.kernel).to_vec(), paper);
        assert_eq!(FIG2.map(|r| r.kernel).to_vec(), paper);
    }

    #[test]
    fn mape_of_exact_values_is_zero() {
        assert_eq!(mape_pct([(2.0, 2.0), (1.0, 1.0)]), 0.0);
        assert!((mape_pct([(1.1, 1.0), (0.9, 1.0)]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn the_peak_speedup_is_on_exp() {
        assert_eq!(peak_speedup().kernel, Kernel::Expf);
    }

    #[test]
    fn estimators_reproduce_table1() {
        for r in TABLE1 {
            let name = r.kernel.name();
            let (i_p, s_pp, s_p) = (r.i_prime, r.s_double_prime, r.s_prime);
            assert!(
                (i_prime(r.copift) - i_p).abs() < 0.01,
                "{name}: I' {} vs paper {i_p}",
                i_prime(r.copift)
            );
            assert!(
                (s_double_prime(r.base) - s_pp).abs() < 0.01,
                "{name}: S'' {} vs paper {s_pp}",
                s_double_prime(r.base)
            );
            assert!(
                (s_prime(r.base, r.copift) - s_p).abs() < 0.01,
                "{name}: S' {} vs paper {s_p}",
                s_prime(r.base, r.copift)
            );
        }
    }

    #[test]
    fn table1_thread_imbalance() {
        for r in TABLE1 {
            let t = thread_imbalance(r.base);
            assert!((t - r.ti).abs() < 0.01, "{}: {t} vs {}", r.kernel.name(), r.ti);
        }
    }
}
