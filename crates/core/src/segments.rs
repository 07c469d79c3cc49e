//! Segment maps and sensitive-region visualization (Fig. 3 of the paper).
//!
//! The paper visualizes LeNet-5 feature maps with values colour-coded into
//! three magnitude segments, showing that large (sensitive) values aggregate
//! spatially. These helpers compute the per-pixel segment map of a feature
//! map channel and render it as ASCII art for inspection.

use drq_quant::SegmentSplit;
use drq_tensor::Tensor;

/// Per-pixel segment indices of one channel of an NCHW tensor
/// (`0` = largest values = most sensitive).
///
/// # Panics
///
/// Panics if `x` is not rank 4 or indices are out of range.
///
/// # Examples
///
/// ```
/// use drq_core::segments::segment_map;
/// use drq_quant::SegmentSplit;
/// use drq_tensor::Tensor;
///
/// let x = Tensor::from_fn(&[1, 1, 2, 2], |i| i as f32);
/// let split = SegmentSplit::from_values(x.as_slice(), &[0.5]);
/// let map = segment_map(&x, 0, 0, &split);
/// assert_eq!(map[0][0], 1); // smallest value -> lowest segment
/// assert_eq!(map[1][1], 0); // largest value -> segment 0
/// ```
pub fn segment_map(
    x: &Tensor<f32>,
    image: usize,
    channel: usize,
    split: &SegmentSplit,
) -> Vec<Vec<usize>> {
    let s = x.shape4().expect("segment_map input must be rank 4");
    assert!(image < s.n && channel < s.c, "index out of range");
    let xs = x.as_slice();
    (0..s.h)
        .map(|h| {
            (0..s.w)
                .map(|w| split.segment_of(xs[s.offset(image, channel, h, w)]))
                .collect()
        })
        .collect()
}

/// Renders a segment map as ASCII art: `#` for segment 0 (sensitive), `+`
/// for segment 1, `.` for segment 2, then digits for deeper segments.
///
/// # Examples
///
/// ```
/// use drq_core::segments::render_ascii;
///
/// let art = render_ascii(&[vec![0, 1], vec![2, 0]]);
/// assert_eq!(art, "#+\n.#\n");
/// ```
pub fn render_ascii(map: &[Vec<usize>]) -> String {
    let glyph = |seg: usize| match seg {
        0 => '#',
        1 => '+',
        2 => '.',
        other => char::from_digit((other % 10) as u32, 10).unwrap_or('?'),
    };
    let mut out = String::new();
    for row in map {
        for &seg in row {
            out.push(glyph(seg));
        }
        out.push('\n');
    }
    out
}

/// Measures spatial aggregation of segment-0 pixels: the fraction of
/// segment-0 pixels having at least one segment-0 4-neighbour. Random
/// scatter scores low; blobs score near 1. This quantifies the paper's
/// claim that sensitive values "tend to aggregate in space".
#[allow(clippy::needless_range_loop)] // neighbour indexing reads clearer with y/x
pub fn aggregation_score(map: &[Vec<usize>]) -> f64 {
    let h = map.len();
    if h == 0 {
        return 0.0;
    }
    let w = map[0].len();
    let mut total = 0usize;
    let mut adjacent = 0usize;
    for y in 0..h {
        for x in 0..w {
            if map[y][x] != 0 {
                continue;
            }
            total += 1;
            let neighbours = [
                (y.wrapping_sub(1), x),
                (y + 1, x),
                (y, x.wrapping_sub(1)),
                (y, x + 1),
            ];
            if neighbours
                .iter()
                .any(|&(ny, nx)| ny < h && nx < w && map[ny][nx] == 0)
            {
                adjacent += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        adjacent as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    #[test]
    fn blob_has_high_aggregation_scatter_low() {
        let mut rng = XorShiftRng::new(1);
        // Blob map: 6x6 block of segment 0 in a 20x20 map.
        let mut blob = vec![vec![2usize; 20]; 20];
        for row in blob.iter_mut().take(11).skip(5) {
            for cell in row.iter_mut().take(11).skip(5) {
                *cell = 0;
            }
        }
        // Scatter map: same count of segment-0 pixels placed randomly.
        let mut scatter = vec![vec![2usize; 20]; 20];
        let mut placed = 0;
        while placed < 36 {
            let y = rng.next_below(20);
            let x = rng.next_below(20);
            if scatter[y][x] != 0 {
                scatter[y][x] = 0;
                placed += 1;
            }
        }
        assert!(aggregation_score(&blob) > 0.99);
        assert!(aggregation_score(&blob) > aggregation_score(&scatter));
    }

    #[test]
    fn ascii_render_shape() {
        let map = vec![vec![0, 1, 2], vec![2, 1, 0]];
        let art = render_ascii(&map);
        assert_eq!(art.lines().count(), 2);
        assert_eq!(art, "#+.\n.+#\n");
    }

    #[test]
    fn segment_map_matches_split() {
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let split = drq_quant::SegmentSplit::from_values(x.as_slice(), &[0.8, 0.2]);
        let map = segment_map(&x, 0, 1, &split);
        assert_eq!(map.len(), 3);
        // Channel 1 holds the largest values (9..18): its bottom row is all
        // segment 0.
        assert!(map[2].iter().all(|&s| s == 0));
    }

    #[test]
    fn empty_map_scores_zero() {
        assert_eq!(aggregation_score(&[]), 0.0);
        assert_eq!(aggregation_score(&[vec![1, 1], vec![2, 2]]), 0.0);
    }
}
