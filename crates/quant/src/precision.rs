//! Integer precision levels used by the accelerators.

use std::fmt;

/// An integer precision (bit-width) for quantized compute.
///
/// DRQ uses INT4 (low) and INT8 (high); Eyeriss runs INT16 throughout;
/// OLAccel mixes INT4 and INT16 (Table II of the paper).
///
/// # Examples
///
/// ```
/// use drq_quant::Precision;
///
/// assert_eq!(Precision::Int8.bits(), 8);
/// assert_eq!(Precision::Int4.q_max(), 7);
/// assert!(Precision::Int4 < Precision::Int16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// 4-bit signed integers, range [-8, 7].
    Int4,
    /// 8-bit signed integers, range [-128, 127].
    Int8,
    /// 16-bit signed integers, range [-32768, 32767].
    Int16,
}

impl Precision {
    /// All precisions, lowest first.
    pub const ALL: [Precision; 3] = [Precision::Int4, Precision::Int8, Precision::Int16];

    /// Bit-width.
    pub fn bits(self) -> u32 {
        // The variants are 0, 1, 2 in declaration order. Arithmetic in
        // place of a `match` lets a loop over
        // [`QuantParams::quantize_value`](crate::QuantParams::quantize_value)
        // hoist the range out and vectorize.
        4 << self as u32
    }

    /// Largest representable quantized magnitude (positive side).
    pub fn q_max(self) -> i32 {
        (1 << (self.bits() - 1)) - 1
    }

    /// Most negative representable quantized value.
    pub fn q_min(self) -> i32 {
        -(1 << (self.bits() - 1))
    }

    /// Number of 4-bit sub-operations an INT-N MAC decomposes into on the
    /// DRQ PE (Section IV-C1): an INT8 MAC takes four cycles of the 4-bit
    /// unit; an INT16 MAC would take sixteen.
    pub fn int4_subops(self) -> u32 {
        let r = self.bits() / 4;
        r * r
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INT{}", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_symmetric_two_complement() {
        assert_eq!(Precision::Int4.q_min(), -8);
        assert_eq!(Precision::Int4.q_max(), 7);
        assert_eq!(Precision::Int8.q_min(), -128);
        assert_eq!(Precision::Int8.q_max(), 127);
        assert_eq!(Precision::Int16.q_max(), 32767);
    }

    #[test]
    fn ordering_follows_bits() {
        assert!(Precision::Int4 < Precision::Int8);
        assert!(Precision::Int8 < Precision::Int16);
    }

    #[test]
    fn subop_counts_match_paper() {
        // Section IV-C1: INT8 mode takes 4 cycles on the INT4 MAC.
        assert_eq!(Precision::Int4.int4_subops(), 1);
        assert_eq!(Precision::Int8.int4_subops(), 4);
        assert_eq!(Precision::Int16.int4_subops(), 16);
    }

    #[test]
    fn display_is_conventional() {
        assert_eq!(Precision::Int4.to_string(), "INT4");
        assert_eq!(Precision::Int16.to_string(), "INT16");
    }
}
