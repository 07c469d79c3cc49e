//! The owned dense tensor type.

use crate::{Element, Shape4, ShapeError};

/// A dense, row-major, owned n-dimensional array.
///
/// `Tensor` is deliberately simple: owned `Vec` storage, contiguous row-major
/// layout, explicit shape. Rank-4 tensors are interpreted as NCHW throughout
/// the workspace. The type is the common currency between the NN framework,
/// the quantizers and the accelerator simulator.
///
/// # Examples
///
/// ```
/// use drq_tensor::Tensor;
///
/// let mut t = Tensor::<f32>::zeros(&[2, 2]);
/// t[[0, 1]] = 3.5;
/// assert_eq!(t[[0, 1]], 3.5);
/// assert_eq!(t.shape(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Element> {
    data: Vec<T>,
    shape: Vec<usize>,
    strides: Vec<usize>,
}

fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

impl<T: Element> Tensor<T> {
    /// Creates a tensor of the given shape filled with `T::ZERO`.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, T::ZERO)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: T) -> Self {
        let len = shape.iter().product();
        Self {
            data: vec![value; len],
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
        }
    }

    /// Wraps an existing vector as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the product of
    /// `shape`.
    pub fn from_vec(data: Vec<T>, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(ShapeError::element_count(expected, data.len()));
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
        })
    }

    /// Builds a tensor by evaluating `f` at every linear index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> T) -> Self {
        let len = shape.iter().product();
        let data = (0..len).map(&mut f).collect();
        Self {
            data,
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The row-major strides corresponding to [`Self::shape`].
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage in row-major order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying storage in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on element-count mismatch.
    pub fn reshape(mut self, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(ShapeError::element_count(expected, self.data.len()));
        }
        self.shape = shape.to_vec();
        self.strides = row_major_strides(&self.shape);
        Ok(self)
    }

    /// Gives the tensor `shape` in place, keeping its allocation whenever it
    /// is large enough: the buffers a training step reuses from one step to
    /// the next. Elements that remain keep their values; storage that has
    /// to grow is replaced by zeroed storage. A caller writes every element
    /// it later reads.
    ///
    /// # Examples
    ///
    /// ```
    /// use drq_tensor::Tensor;
    ///
    /// let mut t = Tensor::<f32>::zeros(&[4, 4]);
    /// let ptr = t.as_slice().as_ptr();
    /// t.resize(&[2, 3]);
    /// assert_eq!((t.shape(), t.len()), (&[2, 3][..], 6));
    /// assert_eq!(t.as_slice().as_ptr(), ptr);
    /// ```
    pub fn resize(&mut self, shape: &[usize]) {
        if self.shape != shape {
            self.shape = shape.to_vec();
            self.strides = row_major_strides(shape);
        }
        let len = shape.iter().product();
        if len > self.data.capacity() {
            self.data = vec![T::ZERO; len];
        }
        self.data.resize(len, T::ZERO);
    }

    /// Makes this tensor an element-for-element copy of `src`, reusing its
    /// allocation as [`Self::resize`] does.
    pub fn copy_from(&mut self, src: &Tensor<T>) {
        self.resize(&src.shape);
        self.data.copy_from_slice(&src.data);
    }

    /// The shape as [`Shape4`], for rank-4 (NCHW) tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank 4.
    pub fn shape4(&self) -> Result<Shape4, ShapeError> {
        Shape4::try_from(self.shape.as_slice())
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of range.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&x, (&dim, &stride))) in idx
            .iter()
            .zip(self.shape.iter().zip(self.strides.iter()))
            .enumerate()
        {
            assert!(x < dim, "index {x} out of bounds for axis {i} (len {dim})");
            off += x * stride;
        }
        off
    }

    /// Element access with bounds checking, returning `None` out of range.
    pub fn get(&self, idx: &[usize]) -> Option<&T> {
        if idx.len() != self.shape.len() || idx.iter().zip(&self.shape).any(|(&x, &d)| x >= d) {
            return None;
        }
        Some(&self.data[self.offset(idx)])
    }

    /// Applies `f` elementwise, producing a new tensor of the same shape.
    pub fn map<U: Element>(&self, f: impl FnMut(T) -> U) -> Tensor<U> {
        Tensor {
            data: self.data.iter().copied().map(f).collect(),
            shape: self.shape.clone(),
            strides: self.strides.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn zip_map<U: Element, V: Element>(
        &self,
        other: &Tensor<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Result<Tensor<V>, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(format!(
                "shape mismatch: {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
            strides: self.strides.clone(),
        })
    }
}

impl Tensor<f32> {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Scales every element by `k` in place.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Adds `other * k` into `self` elementwise (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor<f32>, k: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * k;
        }
    }
}

impl<T: Element, const N: usize> std::ops::Index<[usize; N]> for Tensor<T> {
    type Output = T;

    fn index(&self, idx: [usize; N]) -> &T {
        let off = self.offset(&idx);
        &self.data[off]
    }
}

impl<T: Element, const N: usize> std::ops::IndexMut<[usize; N]> for Tensor<T> {
    fn index_mut(&mut self, idx: [usize; N]) -> &mut T {
        let off = self.offset(&idx);
        &mut self.data[off]
    }
}

impl<T: Element> Default for Tensor<T> {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::<f32>::zeros(&[2, 3]);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Tensor::<i8>::full(&[4], 7);
        assert_eq!(f.as_slice(), &[7, 7, 7, 7]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::<f32>::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::<f32>::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::<f32>::zeros(&[2, 3, 4]);
        t[[1, 2, 3]] = 9.0;
        assert_eq!(t[[1, 2, 3]], 9.0);
        assert_eq!(t.as_slice()[t.offset(&[1, 2, 3])], 9.0);
        assert_eq!(t.get(&[1, 2, 3]), Some(&9.0));
        assert_eq!(t.get(&[2, 0, 0]), None);
        assert_eq!(t.get(&[0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let t = Tensor::<f32>::zeros(&[2, 2]);
        let _ = t[[0, 2]];
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::<i32>::from_vec((0..6).collect(), &[2, 3]).unwrap();
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[3, 2]);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::<f32>::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let b = a.map(|v| v.abs());
        assert_eq!(b.as_slice(), &[1.0, 2.0]);
        let c = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 0.0]);
        let bad = Tensor::<f32>::zeros(&[3]);
        assert!(a.zip_map(&bad, |x, _| x).is_err());
    }

    #[test]
    fn float_reductions() {
        let t = Tensor::<f32>::from_vec(vec![1.0, -4.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn strides_match_row_major() {
        let t = Tensor::<f32>::zeros(&[2, 3, 4]);
        assert_eq!(t.strides(), &[12, 4, 1]);
    }

    #[test]
    fn empty_tensor_mean_is_zero() {
        let t = Tensor::<f32>::zeros(&[0]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
    }
}
