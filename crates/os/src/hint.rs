//! CPU cache hints: the one platform instruction the engine issues outside
//! the block devices.
//!
//! A B-tree node searched by binary search reads a slot and then a cell on
//! another cache line, each probe waiting for the one before it, so a node
//! that is not in cache costs several memory round trips in a row.
//! Hinting every line of the node when it is handed out turns them into
//! about one (the pB+-tree result: Chen, Gibbons and Mowry, SIGMOD 2001).
//! The hint changes no byte and no counter; on a node already in cache it
//! costs a few instructions.

/// Ask the CPU to fetch every cache line `bytes` spans (at most 16) into
/// all cache levels, without waiting for them. The slice need not start
/// on a line boundary. Only `x86_64` issues the hint; every other target
/// compiles this to nothing.
#[inline]
pub fn prefetch(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        /// Bytes per cache line.
        const LINE: usize = 64;
        /// The most lines one call hints. The benchmark's 512-byte pages
        /// span 8 (9 when a frame does not start on a line boundary). No
        /// workload measures larger pages, so the cap is unmeasured
        /// headroom: a page past 1 KiB is hinted for its first 16 lines.
        const MAX_LINES: usize = 16;
        let Some(last) = bytes.len().checked_sub(1) else {
            return;
        };
        let start = bytes.as_ptr() as usize;
        let lines = ((start + last) / LINE - start / LINE + 1).min(MAX_LINES);
        let first = bytes.as_ptr().wrapping_sub(start % LINE);
        for line in 0..lines {
            let at = first.wrapping_add(line * LINE).cast::<i8>();
            // SAFETY: a prefetch is a hint, not an access: it never
            // dereferences `at` and never faults, whatever the address.
            // The addresses are all within the lines the slice spans.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(at) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = bytes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_length_is_hinted_without_a_panic() {
        let buf = vec![0x5Au8; 32_768 + 64];
        for len in [0, 1, 63, 64, 65, 511, 512, 4_096, 32_768] {
            prefetch(&buf[..len]);
            // Every start offset within a line, so some slices straddle
            // one line boundary more than others.
            for offset in 0..64 {
                prefetch(&buf[offset..offset + len]);
            }
        }
        assert!(buf.iter().all(|&b| b == 0x5A), "a hint changes no byte");
    }

    #[test]
    fn unaligned_sub_slices_are_hinted_without_a_panic() {
        let buf: Vec<u8> = (0..=255).cycle().take(2_048).collect();
        for (from, to) in [(1, 2), (3, 67), (63, 64), (63, 65), (65, 577), (7, 2_048)] {
            prefetch(&buf[from..to]);
        }
        prefetch(&buf[2_048..]);
        assert!(buf.iter().enumerate().all(|(i, &b)| b == i as u8));
    }
}
