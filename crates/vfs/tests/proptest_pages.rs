//! Differential property test: [`Pages`] must hold exactly the bytes a
//! plain `Vec<u8>` holds after the same writes, appends, resizes,
//! truncations, splits, page replacements and bit flips, at offsets and lengths that cross
//! page boundaries. After every step the content, the length and every
//! borrowed range must agree, and the pages may hold no more capacity
//! than the pages the length spans.

use gvfs_vfs::{Pages, PAGE_SIZE};
use proptest::prelude::*;

/// Offsets and lengths reach four pages, so most ops cross a boundary.
const SPAN: usize = 4 * PAGE_SIZE;

#[derive(Debug, Clone)]
enum Op {
    Write { offset: usize, len: usize },
    Append { len: usize },
    Resize { len: usize },
    SplitOff { at: usize },
    Xor { idx: usize, mask: u8 },
    Replace { page: usize, len: usize },
    Read { start: usize, len: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPAN, 0..PAGE_SIZE + 100).prop_map(|(offset, len)| Op::Write { offset, len }),
        (0..PAGE_SIZE + 100).prop_map(|len| Op::Append { len }),
        (0..40usize).prop_map(|len| Op::Append { len }),
        (0..SPAN).prop_map(|len| Op::Resize { len }),
        (0..SPAN).prop_map(|at| Op::SplitOff { at }),
        (0..SPAN, 1u8..=255).prop_map(|(idx, mask)| Op::Xor { idx, mask }),
        (0..SPAN / PAGE_SIZE, PAGE_SIZE - 40..PAGE_SIZE + 2)
            .prop_map(|(page, len)| Op::Replace { page, len }),
        (0..SPAN, 0..2 * PAGE_SIZE).prop_map(|(start, len)| Op::Read { start, len }),
    ]
}

/// Distinct bytes per step, so a stale byte never reads as fresh.
fn fill(step: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(7).wrapping_add(step as u8)).collect()
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut pages = Pages::new();
    let mut model: Vec<u8> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Write { offset, len } => {
                let bytes = fill(step, len);
                pages.write(offset, &bytes);
                if model.len() < offset + len {
                    model.resize(offset + len, 0);
                }
                model[offset..offset + len].copy_from_slice(&bytes);
            }
            Op::Append { len } => {
                let bytes = fill(step, len);
                pages.append(&bytes);
                model.extend_from_slice(&bytes);
            }
            Op::Resize { len } => {
                pages.resize(len);
                model.resize(len, 0);
            }
            Op::SplitOff { at } => {
                let pieces = pages.split_off(at);
                let tail = if at < model.len() { model.split_off(at) } else { Vec::new() };
                let mut joined = Vec::new();
                for (off, piece) in &pieces {
                    prop_assert_eq!(*off, at + joined.len(), "step {}: piece offset", step);
                    prop_assert!(
                        piece.len() <= PAGE_SIZE && (off + piece.len()) % PAGE_SIZE == 0
                            || off + piece.len() == at + tail.len(),
                        "step {}: a piece ends at a page end or the old end",
                        step
                    );
                    joined.extend_from_slice(piece);
                }
                prop_assert_eq!(joined, tail, "step {}: split-off bytes", step);
            }
            Op::Xor { idx, mask } => {
                if idx < model.len() {
                    pages.xor(idx, mask);
                    model[idx] ^= mask;
                }
            }
            Op::Replace { page, len } => {
                let offset = page * PAGE_SIZE;
                let end = offset + len;
                let fills = len == PAGE_SIZE || len < PAGE_SIZE && end >= model.len();
                match pages.replace_page(offset, fill(step, len)) {
                    Ok(old) => {
                        prop_assert!(offset < model.len() && fills, "step {}: replaced", step);
                        let old_end = model.len().min(offset + PAGE_SIZE);
                        prop_assert_eq!(&old[..], &model[offset..old_end], "step {}: old", step);
                        model.resize(model.len().max(end), 0);
                        model[offset..end].copy_from_slice(&fill(step, len));
                    }
                    Err(bytes) => {
                        prop_assert!(offset >= model.len() || !fills, "step {}: refused", step);
                        prop_assert_eq!(bytes, fill(step, len), "step {}: returned", step);
                    }
                }
            }
            Op::Read { start, len } => {
                let s = pages.slice(start, start + len);
                let lo = start.min(model.len());
                let want = &model[lo..(start + len).min(model.len())];
                prop_assert_eq!(s.len(), want.len(), "step {}: slice length", step);
                prop_assert!(s == *want, "step {}: slice content", step);
                prop_assert!(s.iter().all(|p| !p.is_empty()), "step {}: empty piece", step);
                let touched = if s.is_empty() {
                    0
                } else {
                    (lo + s.len() - 1) / PAGE_SIZE - lo / PAGE_SIZE + 1
                };
                prop_assert_eq!(s.iter().count(), touched, "step {}: one piece per page", step);
            }
        }
        prop_assert_eq!(pages.len(), model.len(), "step {} ({:?}): len", step, op);
        prop_assert!(pages.slice(0, usize::MAX) == model[..], "step {} ({:?}): content", step, op);
        prop_assert!(
            pages.capacity() <= model.len().next_multiple_of(PAGE_SIZE),
            "step {}: {} B of capacity for {} B, more than its pages",
            step,
            pages.capacity(),
            model.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lockstep equivalence with a `Vec<u8>`.
    #[test]
    fn pages_match_a_vec(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run(&ops)?;
    }
}
