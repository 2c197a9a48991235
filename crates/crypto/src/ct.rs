//! Constant-time comparison and secret-wiping helpers.
//!
//! Signature matching during hidden-file lookup compares attacker-influenced
//! bytes against a secret-derived value; doing that with early-exit `==`
//! would leak how many leading bytes matched.  These helpers compare entire
//! slices regardless of where the first difference occurs.  [`zeroize`] is
//! the one wipe every layer uses for key material and cached plaintext.

/// Compare two byte slices in time dependent only on their lengths.
/// Returns `false` immediately if the lengths differ (length is not secret).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Constant-time selection: returns `if choice { a } else { b }` for byte
/// values without branching on `choice`.
pub fn ct_select(choice: bool, a: u8, b: u8) -> u8 {
    let mask = (choice as u8).wrapping_neg();
    (a & mask) | (b & !mask)
}

/// Overwrite a buffer with zeros (`T::default()`) in a way the optimiser
/// cannot elide.  Used for every evicted, purged or pooled plaintext buffer
/// and by the `Drop` of every type that holds key material.
pub fn zeroize<T: Copy + Default>(buf: &mut [T]) {
    buf.fill(T::default());
    // The black_box makes the zeroed contents observable, so the fill above
    // cannot be removed as a dead store ahead of a deallocation.
    std::hint::black_box(&*buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(&[0u8; 64], &[0u8; 64]));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abc", b""));
        // Differences at every position are detected, not just the first.
        assert!(!ct_eq(b"xbc", b"abc"));
        assert!(!ct_eq(b"abx", b"abc"));
    }

    #[test]
    fn zeroize_clears_bytes_and_words() {
        let mut bytes = vec![0xa5u8; 100];
        zeroize(&mut bytes);
        assert_eq!(bytes, vec![0u8; 100]);
        let mut words = [0xdead_beefu32; 8];
        zeroize(&mut words);
        assert_eq!(words, [0u32; 8]);
    }

    #[test]
    fn select() {
        assert_eq!(ct_select(true, 0xaa, 0x55), 0xaa);
        assert_eq!(ct_select(false, 0xaa, 0x55), 0x55);
    }
}
