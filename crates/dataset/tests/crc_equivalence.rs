//! Every CRC-32 fold computes the same checksum.
//!
//! Each supported fold is exercised through its per-fold entry point and
//! held to the textbook bitwise CRC and to slice-by-8, at the lengths and
//! alignments that take different paths: under 64 B (slice-by-8 alone),
//! the 16-byte multiples the carry-less fold takes from longer inputs, and
//! the 1–15 byte tails it leaves to slice-by-8. Streams through
//! `Crc32::write` use the fold the process resolved, so tier1.sh also runs
//! this suite under `FRAC_KERNEL_TIER=unrolled`, which resolves slice-by-8.

use frac_dataset::crc::{crc32, crc32_for_fold, Crc32};
use frac_dataset::kernels::{active_crc_fold, active_tier, CrcFold, KernelTier};
use proptest::prelude::*;

/// The reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The textbook bitwise CRC-32, one input bit per step: the reference every
/// fold must agree with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
        }
    }
    !c
}

fn supported_folds() -> Vec<CrcFold> {
    [CrcFold::SliceBy8, CrcFold::Clmul]
        .into_iter()
        .filter(|f| f.supported())
        .collect()
}

/// `n` pseudo-random bytes from `seed` (SplitMix64).
fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

#[test]
fn the_fold_follows_the_tier_override_and_leaves_the_fp_tier_alone() {
    let requested = std::env::var("FRAC_KERNEL_TIER")
        .ok()
        .and_then(|v| KernelTier::parse(&v));
    let want = if requested != Some(KernelTier::Unrolled) && CrcFold::Clmul.supported() {
        CrcFold::Clmul
    } else {
        CrcFold::SliceBy8
    };
    assert_eq!(active_crc_fold(), want);
    let tier = match requested {
        Some(KernelTier::Unrolled) => KernelTier::Unrolled,
        _ if KernelTier::Avx2Fma.supported() => KernelTier::Avx2Fma,
        _ => KernelTier::Unrolled,
    };
    assert_eq!(active_tier(), tier);
}

#[test]
fn the_check_values_hold_on_every_fold() {
    for fold in supported_folds() {
        assert_eq!(crc32_for_fold(fold, b""), 0, "{fold:?}");
        assert_eq!(crc32_for_fold(fold, b"123456789"), 0xCBF4_3926, "{fold:?}");
        // 64 zero bytes and 64 0xFF bytes: the smallest input the
        // carry-less fold takes, at both extremes of its lanes.
        assert_eq!(
            crc32_for_fold(fold, &[0u8; 64]),
            crc32_bitwise(&[0u8; 64]),
            "{fold:?}"
        );
        assert_eq!(
            crc32_for_fold(fold, &[0xFFu8; 64]),
            crc32_bitwise(&[0xFFu8; 64]),
            "{fold:?}"
        );
    }
}

#[test]
fn every_fold_matches_slice_by_8_at_every_length_and_alignment_to_1_kib() {
    let buf = bytes(0x27, 1024 + 15);
    for skip in 0..16 {
        for len in 0..=1024 {
            let data = &buf[skip..skip + len];
            let want = crc32_for_fold(CrcFold::SliceBy8, data);
            for fold in supported_folds() {
                assert_eq!(
                    crc32_for_fold(fold, data),
                    want,
                    "{fold:?} len={len} skip={skip}"
                );
            }
            assert_eq!(crc32(data), want, "active fold len={len} skip={skip}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_fold_matches_the_bitwise_reference_to_8_kib(
        len in 0usize..8193,
        skip in 0usize..16,
        seed in any::<u64>(),
    ) {
        let buf = bytes(seed, len + skip);
        let data = &buf[skip..];
        let want = crc32_bitwise(data);
        for fold in supported_folds() {
            prop_assert_eq!(crc32_for_fold(fold, data), want, "{:?} len={} skip={}", fold, len, skip);
        }
    }

    #[test]
    fn streams_split_into_up_to_four_pieces_match_the_one_shot_crc(
        len in 0usize..640,
        pieces in 1usize..5,
        skip in 0usize..16,
        seed in any::<u64>(),
    ) {
        let buf = bytes(seed, len + skip + 8 * pieces);
        let (data, cut_bytes) = buf.split_at(len + skip);
        let data = &data[skip..];
        // `pieces − 1` cut points anywhere in the data, so pieces run from
        // empty through the sub-64-byte writes slice-by-8 takes alone to
        // writes long enough for the carry-less fold.
        let mut cuts: Vec<usize> = cut_bytes
            .chunks_exact(8)
            .take(pieces - 1)
            .map(|c| (u64::from_le_bytes(c.try_into().unwrap()) % (len as u64 + 1)) as usize)
            .collect();
        cuts.sort_unstable();
        let mut c = Crc32::new();
        let mut at = 0;
        for cut in cuts.into_iter().chain([len]) {
            c.write(&data[at..cut]);
            at = cut;
        }
        let want = crc32_bitwise(data);
        prop_assert_eq!(c.finish(), want, "len={} pieces={}", len, pieces);
        prop_assert_eq!(crc32(data), want, "len={}", len);
    }
}
