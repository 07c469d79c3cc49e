//! Line buffer with dense mixed-precision packing (Section IV-B).
//!
//! The line buffer sits between the global buffer and the convolution array.
//! To raise storage utilization, insensitive values are packed into 4-bit
//! slots and sensitive values into 8-bit slots, with the binary mask (one
//! bit per region, expanded here to one bit per value for the stream)
//! deciding how each slot is decoded.

use super::StreamElement;

/// A densely packed stream of mixed 4/8-bit activation codes.
///
/// # Examples
///
/// ```
/// use drq_testkit::exact::{PackedStream, StreamElement};
///
/// let elems = vec![
///     StreamElement::new(48, false),  // 4-bit slot (INT4 code 3)
///     StreamElement::new(-77, true),  // 8-bit slot
/// ];
/// let packed = PackedStream::pack(&elems);
/// assert_eq!(packed.payload_bits(), 4 + 8);
/// // Sensitive values round-trip exactly; insensitive ones keep their
/// // clipped INT4 code (48 = 3 << 4 survives unchanged).
/// assert_eq!(packed.unpack(), elems);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStream {
    /// Packed payload, nibble-granular.
    nibbles: Vec<u8>,
    /// One sensitivity bit per element (the expanded mask).
    mask: Vec<bool>,
}

impl PackedStream {
    /// Packs elements: insensitive values store their high nibble (their
    /// INT4 code), sensitive values store both nibbles.
    ///
    /// # Panics
    ///
    /// Panics if any value exceeds 8 signed bits.
    pub fn pack(elems: &[StreamElement]) -> Self {
        let mut nibbles = Vec::new();
        let mut mask = Vec::with_capacity(elems.len());
        for e in elems {
            assert!((-128..=127).contains(&e.value), "value {} exceeds 8 bits", e.value);
            mask.push(e.sensitive);
            let byte = e.value as i8 as u8;
            if e.sensitive {
                nibbles.push(byte >> 4);
                nibbles.push(byte & 0xF);
            } else {
                // INT4 storage keeps the high nibble (the clipped code).
                nibbles.push(byte >> 4);
            }
        }
        Self { nibbles, mask }
    }

    /// Number of elements in the stream.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// Payload size in bits (excluding the mask).
    pub fn payload_bits(&self) -> usize {
        self.nibbles.len() * 4
    }

    /// Mask size in bits.
    pub fn mask_bits(&self) -> usize {
        self.mask.len()
    }

    /// Unpacks back into stream elements. Insensitive values come back with
    /// their low nibble zeroed — exactly the information the INT4 datapath
    /// consumes.
    pub fn unpack(&self) -> Vec<StreamElement> {
        let mut out = Vec::with_capacity(self.mask.len());
        let mut i = 0usize;
        for &sensitive in &self.mask {
            let value = if sensitive {
                let hi = self.nibbles[i];
                let lo = self.nibbles[i + 1];
                i += 2;
                ((hi << 4) | lo) as i8 as i32
            } else {
                let hi = self.nibbles[i];
                i += 1;
                ((hi << 4) as i8 as i32 >> 4) << 4
            };
            out.push(StreamElement::new(value, sensitive));
        }
        out
    }

    /// Number of stored nibbles (the fault-injection opportunity count:
    /// one stuck-at chance per physical 4-bit storage word).
    pub fn nibble_count(&self) -> usize {
        self.nibbles.len()
    }

    /// Fault injection: forces `bit` (0..4) of the nibble at `index` to 1 —
    /// a stuck-at-1 storage cell. Sensitive values see the corruption in
    /// whichever half-byte the nibble holds; insensitive values in their
    /// INT4 code.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `bit` is out of range.
    pub fn stuck_at(&mut self, index: usize, bit: u32) {
        assert!(index < self.nibbles.len(), "nibble {index} out of range");
        assert!(bit < 4, "bit {bit} outside the 4-bit nibble");
        self.nibbles[index] |= 1 << bit;
    }

    /// Storage saving versus an all-INT8 buffer, in `[0, 0.5]`.
    pub fn saving_vs_int8(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        let int8_bits = self.mask.len() * 8;
        1.0 - self.payload_bits() as f64 / int8_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    fn random_elems(n: usize, p_sens: f64, seed: u64) -> Vec<StreamElement> {
        let mut rng = XorShiftRng::new(seed);
        (0..n)
            .map(|_| {
                StreamElement::new(
                    rng.next_below(255) as i32 - 127,
                    rng.next_f64() < p_sens,
                )
            })
            .collect()
    }

    #[test]
    fn sensitive_values_round_trip_exactly() {
        let elems = random_elems(100, 1.0, 1);
        let packed = PackedStream::pack(&elems);
        assert_eq!(packed.unpack(), elems);
        assert_eq!(packed.payload_bits(), 800);
    }

    #[test]
    fn insensitive_values_keep_high_nibble() {
        let elems = vec![StreamElement::new(0x5C, false), StreamElement::new(-0x4Ci32, false)];
        let packed = PackedStream::pack(&elems);
        let back = packed.unpack();
        assert_eq!(back[0].value, 0x50);
        // -0x4C = 0b1011_0100 -> high nibble 1011 (as i4: -5) -> -5 << 4.
        assert_eq!(back[1].value, (-0x4Ci32 >> 4) << 4);
        assert_eq!(packed.payload_bits(), 8);
    }

    #[test]
    fn packing_saving_tracks_sensitive_fraction() {
        let all4 = PackedStream::pack(&random_elems(1000, 0.0, 2));
        let half = PackedStream::pack(&random_elems(1000, 0.5, 3));
        let all8 = PackedStream::pack(&random_elems(1000, 1.0, 4));
        assert!((all4.saving_vs_int8() - 0.5).abs() < 1e-9);
        assert!(all8.saving_vs_int8().abs() < 1e-9);
        assert!(half.saving_vs_int8() > 0.2 && half.saving_vs_int8() < 0.3);
    }

    #[test]
    fn unpacked_int4_matches_pe_clipping() {
        // The unpacked insensitive value must agree with the PE's
        // high-nibble semantics: (v >> 4) << 4.
        for v in -128..=127i32 {
            let packed = PackedStream::pack(&[StreamElement::new(v, false)]);
            assert_eq!(packed.unpack()[0].value, (v >> 4) << 4, "v={v}");
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let packed = PackedStream::pack(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.payload_bits() + packed.mask_bits(), 0);
        assert_eq!(packed.saving_vs_int8(), 0.0);
    }

    #[test]
    fn stuck_at_bits_corrupt_exactly_one_nibble() {
        let elems = vec![StreamElement::new(0x21, true), StreamElement::new(0x21, false)];
        let mut packed = PackedStream::pack(&elems);
        assert_eq!(packed.nibble_count(), 3);
        // Nibble 1 is the sensitive value's low nibble (0x1); stick bit 3.
        packed.stuck_at(1, 3);
        let back = packed.unpack();
        assert_eq!(back[0].value, 0x29);
        // The insensitive element's nibble (index 2) is untouched.
        assert_eq!(back[1].value, 0x20);
    }
}
