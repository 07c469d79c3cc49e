//! `im2col`/`col2im` transforms.
//!
//! Section IV-B of the paper describes an im2col/pack engine in every PE page
//! that regularizes feature maps for the systolic array. The same transform
//! also backs the software convolution: conv = im2col followed by a matrix
//! multiply against the flattened kernels.

use std::ops::Range;

use crate::{parallel, try_conv_out_dim, Element, Shape4, ShapeError, Tensor};

/// Column matrices smaller than this many elements are filled (and
/// scattered back by [`col2im_accumulate_into`]) inline, on one thread;
/// larger ones shard their rows (channels) across workers.
///
/// The fill is a memory-bound copy, so a second worker pays for its spawn
/// only on large matrices. Timed per call into a reused buffer on a
/// 2-vCPU host: at 147 K elements (16×32×32, 3×3) two threads took 60 µs
/// against 41–47 µs for one, and col2im 76–82 against 69–83 µs; at 452 K
/// (256×14×14) two took 183–188 µs against 285–349 µs, and col2im 230–306
/// against 427–454 µs. The cutoff sits between the two.
pub const IM2COL_PAR_MIN_ELEMS: usize = 256 * 1024;

/// Geometry of an [`im2col`] expansion.
///
/// # Examples
///
/// ```
/// use drq_tensor::{Im2ColLayout, Shape4};
///
/// let l = Im2ColLayout::new(Shape4::new(1, 3, 8, 8), 3, 3, 1, 1);
/// assert_eq!(l.out_h, 8);
/// assert_eq!(l.rows(), 3 * 9);
/// assert_eq!(l.cols(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2ColLayout {
    /// Input shape (NCHW).
    pub input: Shape4,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same for both axes).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Im2ColLayout {
    /// Computes the layout for a convolution over `input`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input. Use
    /// [`Self::try_new`] for a non-panicking variant.
    pub fn new(input: Shape4, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        Self::try_new(input, kh, kw, stride, pad).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked variant of [`Self::new`]: returns a [`ShapeError`] when the
    /// geometry is invalid (zero kernel/stride, or a kernel larger than the
    /// padded input along either axis — which covers zero-sized spatial
    /// dims), so generated geometries can be rejected without panicking.
    ///
    /// # Examples
    ///
    /// ```
    /// use drq_tensor::{Im2ColLayout, Shape4};
    ///
    /// assert!(Im2ColLayout::try_new(Shape4::new(1, 1, 8, 8), 3, 3, 1, 1).is_ok());
    /// assert!(Im2ColLayout::try_new(Shape4::new(1, 1, 2, 2), 5, 5, 1, 0).is_err());
    /// assert!(Im2ColLayout::try_new(Shape4::new(1, 1, 0, 4), 1, 1, 1, 0).is_err());
    /// ```
    pub fn try_new(
        input: Shape4,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        let out_h = try_conv_out_dim(input.h, kh, stride, pad)?;
        let out_w = try_conv_out_dim(input.w, kw, stride, pad)?;
        Ok(Self { input, kh, kw, stride, pad, out_h, out_w })
    }

    /// Rows of the column matrix: one per (channel, ky, kx) kernel tap.
    pub fn rows(&self) -> usize {
        self.input.c * self.kh * self.kw
    }

    /// Columns of the column matrix per image: one per output position.
    pub fn cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Expands one image of a batch into its column matrix.
///
/// The result has shape `[rows, cols]` where `rows = C*KH*KW` and
/// `cols = OH*OW`; positions that fall into the zero padding produce
/// `T::ZERO`. Layout matches what the systolic array consumes: each column is
/// one kernel window, flattened channel-major. A wrapper over
/// [`im2col_into`].
///
/// # Panics
///
/// Panics if `image >= input.n` or the tensor is not rank 4.
pub fn im2col<T: Element>(x: &Tensor<T>, layout: &Im2ColLayout, image: usize) -> Tensor<T> {
    let s = layout.input;
    assert_eq!(x.shape(), &s.as_array(), "input shape mismatch with layout");
    assert!(image < s.n, "image index {image} out of range (batch {})", s.n);
    let mut out = Tensor::<T>::zeros(&[layout.rows(), layout.cols()]);
    let img_len = s.c * s.h * s.w;
    im2col_into(&x.as_slice()[image * img_len..][..img_len], layout, out.as_mut_slice());
    out
}

/// Expands one image `x` (`[C, H, W]`, the geometry of `layout.input`;
/// its batch size is not read) into the caller's `[rows, cols]` column
/// matrix `out`, writing every element (padding taps get `T::ZERO`).
///
/// Each row (one `(channel, ky, kx)` kernel tap) is filled by row slices:
/// per output row inside the input, the zero margins and one copy (a
/// strided gather when `stride > 1`) of the in-bounds output-column
/// interval. Large expansions shard rows across threads; each row is
/// produced by exactly one worker, so results are identical for every
/// thread count.
///
/// # Panics
///
/// Panics if `x` or `out` has the wrong length.
pub fn im2col_into<T: Element>(x: &[T], layout: &Im2ColLayout, out: &mut [T]) {
    let s = layout.input;
    let (rows, cols) = (layout.rows(), layout.cols());
    assert_eq!(x.len(), s.c * s.h * s.w, "image length mismatch with layout");
    assert_eq!(out.len(), rows * cols, "column matrix length mismatch with layout");
    if rows == 0 || cols == 0 {
        return;
    }
    let (ow, stride, pad) = (layout.out_w, layout.stride, layout.pad);
    let yspans = valid_spans(s.h, layout.out_h, layout.kh, stride, pad);
    let xspans = valid_spans(s.w, ow, layout.kw, stride, pad);
    let rows_per_task = if rows * cols < IM2COL_PAR_MIN_ELEMS {
        rows
    } else {
        rows.div_ceil(4 * parallel::max_threads()).max(1)
    };
    parallel::for_each_chunk_mut(out, rows_per_task * cols, |ci, chunk| {
        for (local, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let row = ci * rows_per_task + local;
            let (c, tap) = (row / (layout.kh * layout.kw), row % (layout.kh * layout.kw));
            let (ky, kx) = (tap / layout.kw, tap % layout.kw);
            let (ys, xs) = (&yspans[ky], &xspans[kx]);
            let xc = &x[c * s.h * s.w..][..s.h * s.w];
            for (oy, seg) in orow.chunks_exact_mut(ow).enumerate() {
                if xs.is_empty() || !ys.contains(&oy) {
                    seg.fill(T::ZERO);
                    continue;
                }
                let src = &xc[(oy * stride + ky - pad) * s.w + xs.start * stride + kx - pad..];
                seg[..xs.start].fill(T::ZERO);
                gather(&mut seg[xs.clone()], src, stride);
                seg[xs.end..].fill(T::ZERO);
            }
        }
    });
}

/// Scatters a column-matrix gradient back onto an image (the adjoint of
/// [`im2col`]), accumulating into `grad` at batch index `image`. A wrapper
/// over [`col2im_accumulate_into`].
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn col2im_accumulate(
    cols: &Tensor<f32>,
    layout: &Im2ColLayout,
    grad: &mut Tensor<f32>,
    image: usize,
) {
    let s = layout.input;
    assert_eq!(grad.shape(), &s.as_array(), "gradient shape mismatch with layout");
    assert_eq!(cols.shape(), &[layout.rows(), layout.cols()], "column shape mismatch");
    assert!(image < s.n, "image index out of range");
    let img_len = s.c * s.h * s.w;
    let slab = &mut grad.as_mut_slice()[image * img_len..][..img_len];
    col2im_accumulate_into(cols.as_slice(), layout, slab);
}

/// Adds the column matrix `cv` (`[rows, cols]`) onto one image's
/// `[C, H, W]` gradient slab (the geometry of `layout.input`; its batch
/// size is not read).
///
/// Each pixel receives its taps in a fixed `(ky, kx, oy, ox)` order, added
/// onto what the slab holds; padding taps are skipped. Parallel over whole
/// channels only — the kernel taps of one channel overlap on the same
/// pixels, so they stay on one worker.
///
/// # Panics
///
/// Panics if `cv` or `slab` has the wrong length.
pub fn col2im_accumulate_into(cv: &[f32], layout: &Im2ColLayout, slab: &mut [f32]) {
    let s = layout.input;
    let plane = s.h * s.w;
    let ncols = layout.cols();
    assert_eq!(slab.len(), s.c * plane, "gradient length mismatch with layout");
    assert_eq!(cv.len(), layout.rows() * ncols, "column matrix length mismatch with layout");
    if plane == 0 || ncols == 0 {
        return;
    }
    let (ow, stride, pad) = (layout.out_w, layout.stride, layout.pad);
    let yspans = valid_spans(s.h, layout.out_h, layout.kh, stride, pad);
    let xspans = valid_spans(s.w, ow, layout.kw, stride, pad);
    let taps = layout.kh * layout.kw;
    let chans_per_task = if s.c * taps * ncols < IM2COL_PAR_MIN_ELEMS {
        s.c
    } else {
        s.c.div_ceil(4 * parallel::max_threads()).max(1)
    };
    parallel::for_each_chunk_mut(slab, chans_per_task * plane, |ci, chunk| {
        for (local, gplane) in chunk.chunks_exact_mut(plane).enumerate() {
            let c = ci * chans_per_task + local;
            for (ky, ys) in yspans.iter().enumerate() {
                for (kx, xs) in xspans.iter().enumerate().filter(|(_, xs)| !xs.is_empty()) {
                    let crow = &cv[(c * taps + ky * layout.kw + kx) * ncols..][..ncols];
                    for oy in ys.clone() {
                        let src = &crow[oy * ow + xs.start..oy * ow + xs.end];
                        let ix0 = xs.start * stride + kx - pad;
                        let dst = &mut gplane[(oy * stride + ky - pad) * s.w + ix0..];
                        // `step_by(1)` does not vectorize; stride 1 is the common case.
                        if stride == 1 {
                            for (g, &v) in dst.iter_mut().zip(src) {
                                *g += v;
                            }
                        } else {
                            for (g, &v) in dst.iter_mut().step_by(stride).zip(src) {
                                *g += v;
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Per kernel offset `kk`, the output positions whose tap lands inside an
/// axis of `len` inputs: `o·stride + kk − pad ∈ [0, len)` exactly for `o`
/// in the returned range (possibly empty).
fn valid_spans(len: usize, out: usize, k: usize, stride: usize, pad: usize) -> Vec<Range<usize>> {
    (0..k)
        .map(|kk| {
            let hi = (len + pad).saturating_sub(kk).div_ceil(stride).min(out);
            pad.saturating_sub(kk).div_ceil(stride).min(hi)..hi
        })
        .collect()
}

/// `dst[i] = src[i·stride]`: a plain copy at stride 1.
fn gather<T: Copy>(dst: &mut [T], src: &[T], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_layout() {
        // A 1x1 stride-1 im2col is just a channel-major flatten.
        let x = Tensor::<f32>::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let l = Im2ColLayout::new(x.shape4().unwrap(), 1, 1, 1, 0);
        let c = im2col(&x, &l, 0);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.as_slice(), x.as_slice());
    }

    #[test]
    fn padding_produces_zeros() {
        let x = Tensor::<f32>::full(&[1, 1, 2, 2], 1.0);
        let l = Im2ColLayout::new(x.shape4().unwrap(), 3, 3, 1, 1);
        let c = im2col(&x, &l, 0);
        // Center tap of the 3x3 kernel always lands inside the image.
        let center_row = 4;
        for col in 0..4 {
            assert_eq!(c[[center_row, col]], 1.0);
        }
        // Top-left tap at output (0,0) falls into padding.
        assert_eq!(c[[0, 0]], 0.0);
    }

    #[test]
    fn strided_window_selects_correct_values() {
        let x = Tensor::<f32>::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let l = Im2ColLayout::new(x.shape4().unwrap(), 2, 2, 2, 0);
        let c = im2col(&x, &l, 0);
        assert_eq!(c.shape(), &[4, 4]);
        // Output position (0,0): window covering values 0,1,4,5.
        assert_eq!(c[[0, 0]], 0.0);
        assert_eq!(c[[1, 0]], 1.0);
        assert_eq!(c[[2, 0]], 4.0);
        assert_eq!(c[[3, 0]], 5.0);
        // Output position (1,1): window covering 10,11,14,15.
        assert_eq!(c[[0, 3]], 10.0);
        assert_eq!(c[[3, 3]], 15.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint, which is exactly what backprop requires.
        let mut rng = crate::XorShiftRng::new(21);
        let x = Tensor::from_fn(&[1, 2, 5, 5], |_| rng.next_f32() - 0.5);
        let l = Im2ColLayout::new(x.shape4().unwrap(), 3, 3, 2, 1);
        let y = Tensor::from_fn(&[l.rows(), l.cols()], |_| rng.next_f32() - 0.5);
        let cx = im2col(&x, &l, 0);
        let lhs: f32 = cx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let mut back = Tensor::<f32>::zeros(x.shape());
        col2im_accumulate(&y, &l, &mut back, 0);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn into_variants_write_every_column_and_add_onto_the_slab() {
        // A dirty column buffer is overwritten in full (padding included),
        // and col2im adds onto the slab's contents rather than replacing
        // them, for strided, padded and 1x1 geometries.
        let mut rng = crate::XorShiftRng::new(4);
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 2), (1, 1, 0), (2, 3, 1)] {
            let x = Tensor::from_fn(&[2, 3, 5, 6], |_| rng.next_f32() - 0.5);
            let l = Im2ColLayout::new(x.shape4().unwrap(), k, k, stride, pad);
            let mut cols = vec![f32::NAN; l.rows() * l.cols()];
            im2col_into(&x.as_slice()[90..], &l, &mut cols);
            assert_eq!(cols, im2col(&x, &l, 1).as_slice());

            let y = Tensor::from_fn(&[l.rows(), l.cols()], |_| rng.next_f32() - 0.5);
            let mut slab = vec![1.0f32; 90];
            col2im_accumulate_into(y.as_slice(), &l, &mut slab);
            let mut ones = Tensor::<f32>::full(x.shape(), 1.0);
            col2im_accumulate(&y, &l, &mut ones, 0);
            assert_eq!(slab, &ones.as_slice()[..90]);
            assert!(slab.iter().any(|&v| v != 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "image index")]
    fn rejects_bad_image_index() {
        let x = Tensor::<f32>::zeros(&[1, 1, 3, 3]);
        let l = Im2ColLayout::new(x.shape4().unwrap(), 3, 3, 1, 0);
        let _ = im2col(&x, &l, 1);
    }

    #[test]
    fn quantized_elements_pass_through() {
        let x = Tensor::<i8>::from_fn(&[1, 1, 2, 2], |i| i as i8);
        let l = Im2ColLayout::new(x.shape4().unwrap(), 2, 2, 1, 0);
        let c = im2col(&x, &l, 0);
        assert_eq!(c.as_slice(), &[0, 1, 2, 3]);
    }
}
