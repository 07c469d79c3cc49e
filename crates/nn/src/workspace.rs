//! Memory a training step reuses.
//!
//! Every buffer of a training step is lent from the calling thread's
//! scratch ([`lend`]) and given back ([`give`]) once nothing reads it:
//!
//! - a layer's caches (a conv's or dense layer's input, a batch norm's
//!   normalized input, a ReLU's mask) from its training forward to its
//!   backward pass, held in the layer's [`Workspace`];
//! - activations and input gradients for one forward or backward walk
//!   ([`WalkBufs`]);
//! - a conv's column matrices and per-image gradient partials, and a dense
//!   layer's weight gradient, for one call.
//!
//! A step of the same shapes as the last one finds every buffer it needs
//! in the scratch, so it allocates none. The scratch is per thread, not
//! per network: only one walk runs at a time on a thread, so one set of
//! buffers serves every network it trains, and a second trained network (a
//! clone kept for comparison, say) holds no memory between steps.
//! Evaluation-mode forwards (`train = false`) never borrow from it.
//!
//! The scratch gives no memory back until its thread exits (for the main
//! thread, the process). A lent buffer is the smallest free one that holds
//! the request, so buffers outgrown by a later, larger step stay in the
//! free list and serve only smaller requests: a thread that trains at
//! batch 4 and then at batch 16 keeps buffers of both steps, while one that
//! steps at batch 16, then 4, then 16 keeps only the batch-16 set.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

use drq_tensor::{Element, Tensor};

/// A layer's training workspace: what its training forward leaves for its
/// backward pass.
///
/// The workspace is not part of a layer's value: a clone starts with an
/// empty one, and any two compare equal. So `net.clone()` copies
/// parameters, not megabytes of caches, and `==` compares what was
/// trained.
#[derive(Default)]
pub(crate) struct Workspace<T>(T);

impl<T: Default> Clone for Workspace<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> PartialEq for Workspace<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> fmt::Debug for Workspace<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Workspace")
    }
}

impl<T> Deref for Workspace<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Workspace<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Element types the scratch holds buffers of.
pub(crate) trait Scratch: Element {
    /// This thread's given-back buffers of this type.
    fn free() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

thread_local! {
    static FREE_F32: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static FREE_U8: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

impl Scratch for f32 {
    fn free() -> &'static LocalKey<RefCell<Vec<Vec<f32>>>> {
        &FREE_F32
    }
}

impl Scratch for u8 {
    fn free() -> &'static LocalKey<RefCell<Vec<Vec<u8>>>> {
        &FREE_U8
    }
}

/// Lends `len` elements of this thread's scratch: the smallest buffer given
/// back that holds them, or a new one. The elements hold whatever the last
/// borrower left, so the caller writes every element it reads.
pub(crate) fn lend<T: Scratch>(len: usize) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    let mut buf = T::free().with_borrow_mut(|free| {
        let fits = free.iter().enumerate().filter(|(_, b)| b.capacity() >= len);
        let best = fits.min_by_key(|(_, b)| b.capacity()).map(|(i, _)| i);
        best.map(|i| free.swap_remove(i)).unwrap_or_default()
    });
    buf.resize(len, T::ZERO);
    buf
}

/// Gives a lent buffer back to this thread's scratch.
pub(crate) fn give<T: Scratch>(buf: Vec<T>) {
    if buf.capacity() > 0 {
        T::free().with_borrow_mut(|free| free.push(buf));
    }
}

/// A tensor of `shape` in lent storage (elements unspecified).
pub(crate) fn lend_tensor<T: Scratch>(shape: &[usize]) -> Tensor<T> {
    Tensor::from_vec(lend(shape.iter().product()), shape).expect("lent length matches shape")
}

/// Gives a lent tensor's storage back; returns its capacity.
pub(crate) fn give_tensor<T: Scratch>(t: Tensor<T>) -> usize {
    let buf = t.into_vec();
    let cap = buf.capacity();
    give(buf);
    cap
}

/// Holds `cache` in `slot` until the backward pass takes it, giving back
/// whatever a training forward without a backward pass left there.
pub(crate) fn hold<T: Scratch>(slot: &mut Option<Tensor<T>>, cache: Tensor<T>) {
    if let Some(old) = slot.replace(cache) {
        give_tensor(old);
    }
}

/// The buffers of one walk over a chain of layers (see
/// [`crate::layer::chain`]): two for intermediate results and one for a
/// residual block's shortcut. A training walk lends them at the
/// capacities it needed last time, so a repeated walk finds them the
/// right size; an evaluation walk allocates and frees its own.
pub(crate) struct WalkBufs {
    pub(crate) bufs: [Tensor<f32>; 2],
    pub(crate) extra: Tensor<f32>,
}

impl WalkBufs {
    /// Buffers of capacities `caps`, lent when `train`, else empty.
    pub(crate) fn lend(caps: [usize; 3], train: bool) -> Self {
        let buf = |cap| if train { lend_tensor(&[cap]) } else { Tensor::default() };
        Self { bufs: [buf(caps[0]), buf(caps[1])], extra: buf(caps[2]) }
    }

    /// Gives the buffers back; returns their capacities for the next walk.
    pub(crate) fn give(self) -> [usize; 3] {
        let [a, b] = self.bufs;
        [a, b, self.extra].map(give_tensor)
    }
}

/// Address and capacity of every buffer in this thread's scratch, sorted.
#[cfg(test)]
pub(crate) fn scratch_buffers() -> Vec<(usize, usize)> {
    fn list<T: Scratch>(out: &mut Vec<(usize, usize)>) {
        T::free().with_borrow(|free| {
            out.extend(free.iter().map(|b| (b.as_ptr() as usize, b.capacity())));
        });
    }
    let mut out = Vec::new();
    list::<f32>(&mut out);
    list::<u8>(&mut out);
    out.sort_unstable();
    out
}
