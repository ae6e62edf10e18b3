//! Deterministic guest memory images.
//!
//! The functional micro-benchmarks need per-page byte volumes — how much
//! does page N compress to, what does the upload of a working set weigh —
//! without materializing 4 GiB per VM. A [`GuestMemoryImage`] assigns each
//! page a content class by hashing its page number, and draws its
//! compressed size from a small pool of *real* codec measurements taken on
//! synthesized pages of that class. The image is a pure function of
//! `(seed, mix)`: the same page always has the same class, bytes and
//! compressed size.

use oasis_mem::compress::{compress, PageClass, PageClassifier, PageMix};
use oasis_mem::{ByteSize, PageNum, PAGE_SIZE};
use oasis_sim::SimRng;

/// Number of representative pages measured per class (a power of two,
/// so a page's sample index is a mask of its hash).
const SAMPLES_PER_CLASS: usize = 16;
const _: () = assert!(SAMPLES_PER_CLASS.is_power_of_two());

/// A VM's memory content model.
#[derive(Clone, Debug)]
pub struct GuestMemoryImage {
    seed: u64,
    classifier: PageClassifier,
    num_pages: u64,
    /// Real compressed sizes of sample pages, per class.
    class_samples: [[u32; SAMPLES_PER_CLASS]; 4],
}

impl GuestMemoryImage {
    /// Creates an image of `num_pages` pages with the given content mix.
    pub fn new(seed: u64, mix: PageMix, num_pages: u64) -> Self {
        let class_samples = core::array::from_fn(|ci| {
            let class = PageClass::ALL[ci];
            core::array::from_fn(|i| {
                let page = class.synthesize(seed ^ (i as u64) << 32);
                compress(&page).len() as u32
            })
        });
        GuestMemoryImage { seed, classifier: mix.classifier(), num_pages, class_samples }
    }

    /// A 4 GiB desktop VM image.
    pub fn desktop(seed: u64) -> Self {
        GuestMemoryImage::new(seed, PageMix::desktop(), ByteSize::gib(4).pages(PAGE_SIZE))
    }

    /// Number of pages in the image.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// The content class of a page (stable per image): the class that
    /// [`PageMix::sample`] draws from a fresh generator seeded by the
    /// image seed and the page.
    #[inline]
    pub fn class_of(&self, page: PageNum) -> PageClass {
        let u = SimRng::first_f64(self.seed ^ page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.classifier.class_for(u)
    }

    /// Compressed size of a page under the real codec.
    pub fn compressed_size(&self, page: PageNum) -> ByteSize {
        let samples = &self.class_samples[self.class_of(page).index()];
        let idx = (page.0.wrapping_mul(0xA24B_AED4_963E_E407) >> 32) as usize;
        ByteSize::bytes(u64::from(samples[idx & (SAMPLES_PER_CLASS - 1)]))
    }

    /// Synthesizes the actual bytes of a page (tests / deep inspection).
    pub fn synthesize(&self, page: PageNum) -> Vec<u8> {
        self.class_of(page).synthesize(self.seed ^ page.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_deterministic() {
        let a = GuestMemoryImage::new(5, PageMix::desktop(), 1_000);
        let b = GuestMemoryImage::new(5, PageMix::desktop(), 1_000);
        for i in 0..100 {
            assert_eq!(a.class_of(PageNum(i)), b.class_of(PageNum(i)));
            assert_eq!(a.compressed_size(PageNum(i)), b.compressed_size(PageNum(i)));
        }
    }

    /// The mixes `class_of` must match `PageMix::sample` on: the two
    /// presets, a mix with zero weights inside and at the front, an
    /// all-zero mix, and one whose weights sum below zero.
    fn test_mixes() -> [PageMix; 5] {
        [
            PageMix::desktop(),
            PageMix::server(),
            PageMix { zero: 0.0, text: 0.6, code: 0.0, random: 0.4 },
            PageMix { zero: 0.0, text: 0.0, code: 0.0, random: 0.0 },
            PageMix { zero: 0.2, text: -0.9, code: 0.3, random: 0.1 },
        ]
    }

    #[test]
    fn class_of_matches_page_mix_sampling() {
        // 10^6 (seed, page) pairs per mix: 16 images, 62,500 pages each,
        // drawn over the whole page-number space.
        let mut draws = SimRng::new(0xC1A55);
        for mix in test_mixes() {
            for _ in 0..16 {
                let seed = draws.next_u64();
                let img = GuestMemoryImage::new(seed, mix, 1_000);
                for _ in 0..62_500 {
                    let page = PageNum(draws.next_u64() >> draws.below(64));
                    let mut fresh = SimRng::new(seed ^ page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    assert_eq!(
                        img.class_of(page),
                        mix.sample(&mut fresh),
                        "{mix:?} {seed} {page:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn compressed_size_matches_the_sampled_class_and_hashed_sample() {
        let mut draws = SimRng::new(0x5A3D);
        for mix in test_mixes() {
            let seed = draws.next_u64();
            let img = GuestMemoryImage::new(seed, mix, 1_000);
            let samples: Vec<Vec<u64>> = PageClass::ALL
                .iter()
                .map(|class| {
                    (0..16u64)
                        .map(|i| compress(&class.synthesize(seed ^ i << 32)).len() as u64)
                        .collect()
                })
                .collect();
            for _ in 0..20_000 {
                let page = PageNum(draws.next_u64() >> draws.below(64));
                let class = img.class_of(page);
                let pool = &samples[class.index()];
                let idx = (page.0.wrapping_mul(0xA24B_AED4_963E_E407) >> 32) as usize % pool.len();
                assert_eq!(img.compressed_size(page), ByteSize::bytes(pool[idx]), "{page:?}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GuestMemoryImage::new(1, PageMix::desktop(), 10_000);
        let b = GuestMemoryImage::new(2, PageMix::desktop(), 10_000);
        let same = (0..200).filter(|&i| a.class_of(PageNum(i)) == b.class_of(PageNum(i))).count();
        assert!(same < 200, "class assignment identical across seeds");
    }

    #[test]
    fn compressed_sizes_bounded_by_page_size() {
        let img = GuestMemoryImage::new(3, PageMix::desktop(), 10_000);
        for i in 0..500 {
            let s = img.compressed_size(PageNum(i));
            assert!(s.as_bytes() > 0);
            assert!(s.as_bytes() <= PAGE_SIZE + 1, "page {i} size {s}");
        }
    }

    #[test]
    fn mix_ratio_reflected_in_sizes() {
        let img = GuestMemoryImage::new(4, PageMix::desktop(), 100_000);
        let pages: Vec<PageNum> = (0..5_000).map(PageNum).collect();
        let compressed: ByteSize = pages.iter().map(|&p| img.compressed_size(p)).sum();
        let compressed = compressed.as_bytes() as f64;
        let raw = (pages.len() as u64 * PAGE_SIZE) as f64;
        let ratio = compressed / raw;
        let expected = PageMix::desktop().aggregate_ratio();
        assert!((ratio - expected).abs() < 0.1, "ratio {ratio} vs {expected}");
    }

    #[test]
    fn synthesized_bytes_roundtrip_with_codec() {
        let img = GuestMemoryImage::new(6, PageMix::server(), 1_000);
        for i in [0u64, 1, 99, 500] {
            let bytes = img.synthesize(PageNum(i));
            assert_eq!(bytes.len(), PAGE_SIZE as usize);
            let packed = oasis_mem::compress(&bytes);
            assert_eq!(oasis_mem::decompress(&packed).unwrap(), bytes);
        }
    }

    #[test]
    fn desktop_image_geometry() {
        let img = GuestMemoryImage::desktop(1);
        assert_eq!(img.num_pages(), 1_048_576);
    }
}
