//! Kernel-equivalence suite: the blocked/parallel kernels must match the
//! naive reference numerically and be **bit-identical** across thread
//! counts (`DRQ_THREADS` ∈ {1, 2, 8}). Shapes deliberately avoid tile
//! multiples: odd m/k/n, padding, stride 2.

use drq_tensor::{
    col2im_accumulate, im2col, matmul, matmul_reference, parallel, Im2ColLayout, Shape4, Tensor,
    XorShiftRng, IM2COL_PAR_MIN_ELEMS,
};
use std::sync::Mutex;

/// `set_max_threads` is process-global; serialize the tests that sweep it.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// Runs `f` once per thread count (1, 2, 8 and every available thread)
/// and asserts all results are bit-equal; returns the result.
fn assert_thread_invariant<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let _guard = THREAD_KNOB.lock().unwrap();
    parallel::set_max_threads(1);
    let base = f();
    for t in [2, 8, 0] {
        parallel::set_max_threads(t);
        assert_eq!(f(), base, "result changed at {} threads", parallel::max_threads());
    }
    parallel::set_max_threads(0);
    base
}

/// Channel count that makes a `k`×`k` layout over `h`×`w` maps at `stride`
/// (padding 1) produce a column matrix above the sharding cutoff.
fn sharded_layout(h: usize, w: usize, k: usize, stride: usize) -> Im2ColLayout {
    let probe = Im2ColLayout::new(Shape4::new(1, 1, h, w), k, k, stride, 1);
    let c = IM2COL_PAR_MIN_ELEMS / (probe.rows() * probe.cols()) + 1;
    let layout = Im2ColLayout::new(Shape4::new(1, c, h, w), k, k, stride, 1);
    assert!(layout.rows() * layout.cols() >= IM2COL_PAR_MIN_ELEMS);
    layout
}

#[test]
fn matmul_matches_reference_on_non_tile_shapes() {
    let mut rng = XorShiftRng::new(41);
    // (m, k, n) straddling the small-product cutoff and the MC/KC/NR tiles.
    for &(m, k, n) in &[
        (1, 1, 1),
        (7, 5, 3),
        (17, 19, 23),
        (65, 129, 33),
        (127, 63, 65),
        (96, 300, 31),
        (5, 1111, 9),
    ] {
        let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
        let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        let tol = 1e-4 * (k as f32).sqrt().max(1.0);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < tol, "({m},{k},{n}): {x} vs {y}");
        }
    }
}

#[test]
fn matmul_bits_stable_across_thread_counts() {
    let mut rng = XorShiftRng::new(43);
    for &(m, k, n) in &[(67, 129, 31), (256, 80, 50), (9, 511, 140)] {
        let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
        let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);
        assert_thread_invariant(|| matmul(&a, &b).as_slice().to_vec());
    }
}

#[test]
fn im2col_bits_stable_across_thread_counts() {
    let mut rng = XorShiftRng::new(47);
    // Odd geometry: 5 channels, 13x11 maps, stride 2, padding 1.
    let x = Tensor::from_fn(&[2, 5, 13, 11], |_| rng.next_f32() - 0.5);
    let layout = Im2ColLayout::new(Shape4::new(2, 5, 13, 11), 3, 3, 2, 1);
    for image in 0..2 {
        assert_thread_invariant(|| im2col(&x, &layout, image).as_slice().to_vec());
    }
}

#[test]
fn im2col_parallel_matches_large_case() {
    // Sized from the cutoff so the sharded path runs; compare every thread
    // count against a scalar re-derivation of the definition.
    let mut rng = XorShiftRng::new(53);
    let layout = sharded_layout(34, 30, 3, 1);
    let s = layout.input;
    let (c, h, w) = (s.c, s.h, s.w);
    let x = Tensor::from_fn(&[1, c, h, w], |_| rng.next_f32() - 0.5);
    let cols = assert_thread_invariant(|| im2col(&x, &layout, 0));
    for row in 0..layout.rows() {
        let ch = row / 9;
        let ky = (row % 9) / 3;
        let kx = row % 3;
        for oy in 0..layout.out_h {
            for ox in 0..layout.out_w {
                let iy = (oy + ky) as isize - 1;
                let ix = (ox + kx) as isize - 1;
                let expect = if iy < 0 || iy as usize >= h || ix < 0 || ix as usize >= w {
                    0.0
                } else {
                    x.as_slice()[s.offset(0, ch, iy as usize, ix as usize)]
                };
                assert_eq!(cols[[row, oy * layout.out_w + ox]], expect);
            }
        }
    }
}

#[test]
fn col2im_parallel_matches_large_case() {
    // Sized from the cutoff so the sharded path runs, with stride 2 and odd
    // maps; accumulates onto a non-zero gradient and compares every thread
    // count bitwise against a scalar scatter in the same tap order.
    let mut rng = XorShiftRng::new(61);
    let layout = sharded_layout(41, 37, 3, 2);
    let s = layout.input;
    let y = Tensor::from_fn(&[layout.rows(), layout.cols()], |_| rng.next_f32() - 0.5);
    let start = Tensor::from_fn(&[1, s.c, s.h, s.w], |_| rng.next_f32() - 0.5);
    let grad = assert_thread_invariant(|| {
        let mut grad = start.clone();
        col2im_accumulate(&y, &layout, &mut grad, 0);
        grad
    });
    let mut expect = start.clone();
    for row in 0..layout.rows() {
        let (ch, ky, kx) = (row / 9, (row % 9) / 3, row % 3);
        for oy in 0..layout.out_h {
            for ox in 0..layout.out_w {
                let iy = (oy * 2 + ky) as isize - 1;
                let ix = (ox * 2 + kx) as isize - 1;
                if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                    expect[[0, ch, iy as usize, ix as usize]] += y[[row, oy * layout.out_w + ox]];
                }
            }
        }
    }
    assert_eq!(grad.as_slice(), expect.as_slice());
}

#[test]
fn col2im_bits_stable_across_thread_counts() {
    let mut rng = XorShiftRng::new(59);
    let layout = Im2ColLayout::new(Shape4::new(1, 6, 21, 17), 3, 3, 2, 1);
    let y = Tensor::from_fn(&[layout.rows(), layout.cols()], |_| rng.next_f32() - 0.5);
    assert_thread_invariant(|| {
        let mut grad = Tensor::<f32>::zeros(&[1, 6, 21, 17]);
        col2im_accumulate(&y, &layout, &mut grad, 0);
        grad.as_slice().to_vec()
    });
}

#[test]
fn col2im_accumulates_on_top_of_existing_gradient() {
    // The accumulate contract: pre-existing values are added to, not
    // overwritten — and that holds identically in the parallel path.
    let layout = Im2ColLayout::new(Shape4::new(1, 2, 5, 5), 1, 1, 1, 0);
    let y = Tensor::<f32>::full(&[layout.rows(), layout.cols()], 2.0);
    let mut grad = Tensor::<f32>::full(&[1, 2, 5, 5], 1.0);
    col2im_accumulate(&y, &layout, &mut grad, 0);
    assert!(grad.as_slice().iter().all(|&g| g == 3.0));
}
