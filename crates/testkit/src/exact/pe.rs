//! The multi-precision processing element (Fig. 8 of the paper).

use drq_quant::Precision;

/// A cycle-accurate model of the dual-mode PE.
//
/// The PE owns an INT4×INT4 multiplier. In INT4 mode one MAC completes per
/// cycle using the high nibbles of the 8-bit `W` and `F` registers (the
/// INT4 codes of clipped operands). In INT8 mode the full 8×8 product is
/// assembled from four 4×4 sub-products over four cycles, shifting partial
/// products into the `P` register exactly as Fig. 8 describes:
///
/// * cycle t:   `H(W) · H(F)` shifted left by 8;
/// * cycle t+1: `L(W) · H(F)` shifted left by 4;
/// * cycle t+2: `H(W) · L(F)` shifted left by 4;
/// * cycle t+3: `L(W) · L(F)` unshifted.
///
/// High nibbles are signed, low nibbles unsigned — the standard signed
/// radix-16 decomposition, verified against the direct 8×8 product.
///
/// # Examples
///
/// ```
/// use drq_testkit::exact::MultiPrecisionPe;
/// use drq_quant::Precision;
///
/// let mut pe = MultiPrecisionPe::new();
/// pe.load_weight(-77);
/// pe.start_mac(53, Precision::Int8);
/// let mut cycles = 0;
/// while !pe.is_done() {
///     pe.tick();
///     cycles += 1;
/// }
/// assert_eq!(cycles, 4);
/// assert_eq!(pe.product(), -77 * 53);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiPrecisionPe {
    /// Weight register (8-bit value held as i32 for arithmetic clarity).
    w: i32,
    /// Feature register.
    f: i32,
    /// Partial product register.
    p: i32,
    mode: Precision,
    /// Remaining sub-cycles of the in-flight MAC (0 = idle/done).
    remaining: u32,
}

fn high_nibble(v: i32) -> i32 {
    // Arithmetic shift of the signed 8-bit value.
    debug_assert!((-128..=127).contains(&v), "operand {v} exceeds 8 bits");
    v >> 4
}

fn low_nibble(v: i32) -> i32 {
    (v & 0xF) as u8 as i32
}

/// Flips `bit` (0..8) of an 8-bit signed value held in an `i32`, staying in
/// the signed 8-bit domain.
fn flip_bit8(v: i32, bit: u32) -> i32 {
    debug_assert!(bit < 8, "bit {bit} outside the 8-bit word");
    ((v as i8) ^ (1i8 << bit)) as i32
}

impl MultiPrecisionPe {
    /// Creates an idle PE with cleared registers.
    pub fn new() -> Self {
        Self { w: 0, f: 0, p: 0, mode: Precision::Int4, remaining: 0 }
    }

    /// Loads the (weight-stationary) weight register with an INT8 code.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds 8 signed bits.
    pub fn load_weight(&mut self, w: i32) {
        assert!((-128..=127).contains(&w), "weight {w} exceeds 8 bits");
        self.w = w;
    }

    /// Begins a MAC against feature value `f` (an INT8 code) at the given
    /// mode. INT4 mode consumes the *high nibbles* of both registers — the
    /// precision clipping of Section III-C.
    ///
    /// # Panics
    ///
    /// Panics if a MAC is already in flight, `f` exceeds 8 bits, or the
    /// mode is INT16 (the DRQ PE is 4/8-bit only).
    pub fn start_mac(&mut self, f: i32, mode: Precision) {
        assert_eq!(self.remaining, 0, "PE busy");
        assert!((-128..=127).contains(&f), "feature {f} exceeds 8 bits");
        assert!(mode != Precision::Int16, "DRQ PE supports INT4/INT8 only");
        self.f = f;
        self.mode = mode;
        self.p = 0;
        self.remaining = mode.int4_subops();
    }

    /// Advances one clock cycle. Idle ticks are no-ops.
    pub fn tick(&mut self) {
        if self.remaining == 0 {
            return;
        }
        match self.mode {
            Precision::Int4 => {
                // One-cycle 4-bit MAC on the clipped (high-nibble) operands,
                // rescaled to the INT8 domain (<< 8 total) so products from
                // both modes accumulate in one partial-sum domain.
                self.p = (high_nibble(self.w) * high_nibble(self.f)) << 8;
                self.remaining = 0;
            }
            Precision::Int8 => {
                let step = 4 - self.remaining; // 0..=3
                let term = match step {
                    0 => (high_nibble(self.w) * high_nibble(self.f)) << 8,
                    1 => (low_nibble(self.w) * high_nibble(self.f)) << 4,
                    2 => (high_nibble(self.w) * low_nibble(self.f)) << 4,
                    _ => low_nibble(self.w) * low_nibble(self.f),
                };
                self.p += term;
                self.remaining -= 1;
            }
            Precision::Int16 => unreachable!("rejected in start_mac"),
        }
    }

    /// Whether the in-flight MAC (if any) has completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// The completed product in the INT8×INT8 domain (INT4-mode products
    /// carry their `<< 8` rescale).
    pub fn product(&self) -> i32 {
        self.p
    }

    /// The weight register contents.
    pub fn weight(&self) -> i32 {
        self.w
    }

    /// Fault injection: flips one bit (0..8) of the weight register,
    /// staying in the signed 8-bit domain.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_weight_bit(&mut self, bit: u32) {
        assert!(bit < 8, "bit {bit} outside the 8-bit weight register");
        self.w = flip_bit8(self.w, bit);
    }

    /// Fault injection: flips one bit (0..8) of the feature register,
    /// staying in the signed 8-bit domain. Meaningful between
    /// [`MultiPrecisionPe::start_mac`] and the first tick — the corrupted
    /// operand feeds the whole multi-cycle MAC, like a particle strike on
    /// the latched register.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_feature_bit(&mut self, bit: u32) {
        assert!(bit < 8, "bit {bit} outside the 8-bit feature register");
        self.f = flip_bit8(self.f, bit);
    }
}

impl Default for MultiPrecisionPe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_decomposition_is_exact_for_all_operands() {
        // Exhaustive: every signed 8-bit pair must reproduce the direct
        // product through the 4-cycle datapath.
        let mut pe = MultiPrecisionPe::new();
        for w in -128..=127 {
            pe.load_weight(w);
            for f in (-128..=127).step_by(3) {
                pe.start_mac(f, Precision::Int8);
                for _ in 0..4 {
                    pe.tick();
                }
                assert!(pe.is_done());
                assert_eq!(pe.product(), w * f, "w={w} f={f}");
            }
        }
    }

    #[test]
    fn int4_mode_takes_one_cycle() {
        let mut pe = MultiPrecisionPe::new();
        pe.load_weight(0x70); // high nibble 7
        pe.start_mac(0x30, Precision::Int4); // high nibble 3
        assert!(!pe.is_done());
        pe.tick();
        assert!(pe.is_done());
        assert_eq!(pe.product(), (7 * 3) << 8);
    }

    #[test]
    fn int4_mode_uses_signed_high_nibbles() {
        let mut pe = MultiPrecisionPe::new();
        pe.load_weight(-128); // high nibble -8
        pe.start_mac(112, Precision::Int4); // high nibble 7
        pe.tick();
        assert_eq!(pe.product(), (-8 * 7) << 8);
    }

    #[test]
    fn int4_product_approximates_int8_product() {
        // The INT4 product is the INT8 product with the low nibbles dropped:
        // error bounded by |w|*15 + |f|*15 + 225 (cross terms).
        let mut pe = MultiPrecisionPe::new();
        for &(w, f) in &[(100, 100), (-100, 50), (37, -89), (-5, -5)] {
            pe.load_weight(w);
            pe.start_mac(f, Precision::Int4);
            pe.tick();
            let err = (pe.product() - w * f).abs();
            assert!(err <= w.abs() * 15 + f.abs() * 15 + 225, "w={w} f={f} err={err}");
        }
    }

    #[test]
    fn idle_tick_is_noop() {
        let mut pe = MultiPrecisionPe::new();
        pe.tick();
        assert_eq!(pe.product(), 0);
        assert!(pe.is_done());
    }

    #[test]
    fn register_bit_flips_are_involutions_in_the_8_bit_domain() {
        let mut pe = MultiPrecisionPe::new();
        pe.load_weight(-77);
        pe.flip_weight_bit(7);
        assert_eq!(pe.weight(), ((-77i8) ^ (1i8 << 7)) as i32);
        pe.flip_weight_bit(7);
        assert_eq!(pe.weight(), -77);
        // A flipped feature register corrupts the product of exactly the
        // in-flight MAC.
        pe.start_mac(53, Precision::Int8);
        pe.flip_feature_bit(0);
        for _ in 0..4 {
            pe.tick();
        }
        assert_eq!(pe.product(), -77 * 52);
    }

    #[test]
    fn flip_bit8_stays_in_domain() {
        for v in -128..=127 {
            for bit in 0..8 {
                let flipped = flip_bit8(v, bit);
                assert!((-128..=127).contains(&flipped), "v={v} bit={bit}");
                assert_eq!(flip_bit8(flipped, bit), v);
            }
        }
    }

    #[test]
    #[should_panic(expected = "PE busy")]
    fn cannot_start_while_busy() {
        let mut pe = MultiPrecisionPe::new();
        pe.start_mac(1, Precision::Int8);
        pe.start_mac(2, Precision::Int8);
    }

    #[test]
    #[should_panic(expected = "INT4/INT8 only")]
    fn rejects_int16() {
        let mut pe = MultiPrecisionPe::new();
        pe.start_mac(1, Precision::Int16);
    }
}
