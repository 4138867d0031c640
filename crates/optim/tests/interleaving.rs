//! The resumable solve's interleaving pin: several [`Solve`]s driven
//! round-robin, in a shuffled order each round, each end bit-identical
//! to its solo [`minimize`] run — θ bits, value bits, `iterations`,
//! `function_evals` and the error variant. A λ-sweep answers many
//! solves' probes in one batched call per round and relies on exactly
//! this: a solve's path depends only on the answers to its own probes.

use blinkml_linalg::Matrix;
use blinkml_optim::problem::Rosenbrock;
use blinkml_optim::{
    minimize, MinimizeWorkspace, Objective, OptimError, OptimOptions, OptimResult,
    QuadraticObjective, Solve, StopCheck,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tridiagonal SPD quadratic of dimension `d`.
fn quadratic(d: usize) -> QuadraticObjective {
    let mut a = Matrix::zeros(d, d);
    for i in 0..d {
        a[(i, i)] = 3.0 + (i % 5) as f64;
        if i + 1 < d {
            a[(i, i + 1)] = -1.0;
            a[(i + 1, i)] = -1.0;
        }
    }
    let b = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
    QuadraticObjective::new(a, b)
}

/// `f(θ) = Σθ` reporting the gradient `−1`: every direction the driver
/// takes ascends, so its first line search finds no step.
struct WrongGradient;

impl Objective for WrongGradient {
    fn dim(&self) -> usize {
        3
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        grad.fill(-1.0);
        theta.iter().sum()
    }
}

/// Records every point it evaluates.
struct Recording<'o> {
    inner: &'o dyn Objective,
    points: RefCell<Vec<Vec<f64>>>,
}

impl Objective for Recording<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value_grad_into(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        self.points.borrow_mut().push(theta.to_vec());
        self.inner.value_grad_into(theta, grad)
    }
}

/// Options whose stop probe asks to stop on its `polls`-th poll; every
/// call makes a fresh counter, so a solo run and an interleaved run
/// see the same probe.
fn cancel_on_poll(polls: usize) -> OptimOptions {
    let count = Arc::new(AtomicUsize::new(0));
    OptimOptions {
        stop_check: Some(StopCheck::new(move || {
            count.fetch_add(1, Ordering::Relaxed) + 1 >= polls
        })),
        ..OptimOptions::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(
    a: &Result<OptimResult, OptimError>,
    b: &Result<OptimResult, OptimError>,
    tag: &str,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(bits(&a.theta), bits(&b.theta), "{tag}: θ");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{tag}: value");
            assert_eq!(a.iterations, b.iterations, "{tag}: iterations");
            assert_eq!(a.function_evals, b.function_evals, "{tag}: function_evals");
            assert_eq!(a.converged, b.converged, "{tag}: converged");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{tag}: error"),
        _ => panic!("{tag}: {a:?} vs {b:?}"),
    }
}

/// One case: a tag, the objective, the start point, and its options
/// (built fresh per run, so every run gets its own stop counter).
type Case<'o> = (
    &'static str,
    &'o dyn Objective,
    Vec<f64>,
    fn() -> OptimOptions,
);

#[test]
fn interleaved_solves_are_bitwise_solo_solves() {
    let q8 = quadratic(8);
    let q150 = quadratic(150);
    let defaults: fn() -> OptimOptions = OptimOptions::default;
    let cases: Vec<Case> = vec![
        ("rosenbrock", &Rosenbrock, vec![-1.2, 1.0], defaults),
        ("rosenbrock 2", &Rosenbrock, vec![0.5, -0.3], defaults),
        ("dense d=8", &q8, vec![0.1; 8], defaults),
        ("limited d=150", &q150, vec![0.0; 150], defaults),
        ("line search fails", &WrongGradient, vec![0.5; 3], defaults),
        ("cancelled", &Rosenbrock, vec![-1.2, 1.0], || {
            cancel_on_poll(5)
        }),
        ("cancelled limited", &q150, vec![0.3; 150], || {
            cancel_on_poll(4)
        }),
        ("iteration cap", &Rosenbrock, vec![-1.2, 1.0], || {
            OptimOptions {
                max_iterations: 7,
                ..OptimOptions::default()
            }
        }),
        ("dimension mismatch", &q8, vec![0.0; 7], defaults),
    ];

    // Rosenbrock's first search from (-1.2, 1) overshoots at α = 1 and
    // zooms: its second probe lies inside its first.
    let recording = Recording {
        inner: &Rosenbrock,
        points: RefCell::new(Vec::new()),
    };
    minimize(&recording, &[-1.2, 1.0], &OptimOptions::default()).unwrap();
    let points = recording.points.into_inner();
    let dist = |p: &[f64]| (p[0] + 1.2).hypot(p[1] - 1.0);
    assert!(dist(&points[2]) < dist(&points[1]), "a zoom probe");

    let solo: Vec<_> = cases
        .iter()
        .map(|(_, obj, theta0, options)| minimize(*obj, theta0, &options()))
        .collect();
    assert!(matches!(
        solo[4],
        Err(OptimError::LineSearchFailed { iteration: 0 })
    ));
    assert!(matches!(solo[5], Err(OptimError::Cancelled)));
    assert!(matches!(solo[6], Err(OptimError::Cancelled)));
    assert!(matches!(
        solo[7],
        Ok(OptimResult {
            converged: false,
            iterations: 7,
            ..
        })
    ));
    assert!(matches!(solo[8], Err(OptimError::DimensionMismatch { .. })));

    for seed in [1u64, 2, 3] {
        let options: Vec<OptimOptions> = cases.iter().map(|case| (case.3)()).collect();
        let mut workspaces: Vec<MinimizeWorkspace> =
            cases.iter().map(|_| MinimizeWorkspace::new()).collect();
        let mut solves: Vec<Solve> = cases
            .iter()
            .zip(&options)
            .zip(&mut workspaces)
            .map(|(((_, obj, theta0, _), options), ws)| Solve::new(obj.dim(), theta0, options, ws))
            .collect();
        let mut rng = seed;
        loop {
            let mut order: Vec<usize> = (0..solves.len())
                .filter(|&i| !solves[i].is_done())
                .collect();
            if order.is_empty() {
                break;
            }
            shuffle(&mut order, &mut rng);
            for i in order {
                let (theta, grad) = solves[i].probe().expect("an unfinished solve has a probe");
                let value = cases[i].1.value_grad_into(theta, grad);
                solves[i].tell(value);
            }
        }
        for ((solve, solo), (tag, ..)) in solves.into_iter().zip(&solo).zip(&cases) {
            assert_same(&solve.finish(), solo, &format!("{tag}, order seed {seed}"));
        }
    }
}

/// Fisher-Yates with an xorshift64 stream.
fn shuffle(order: &mut [usize], state: &mut u64) {
    for i in (1..order.len()).rev() {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        order.swap(i, (*state % (i as u64 + 1)) as usize);
    }
}
