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

use oasis_mem::compress::{compress, PageClass, PageMix};
use oasis_mem::{ByteSize, PageNum, PAGE_SIZE};
use oasis_sim::SimRng;

/// Number of representative pages measured per class.
const SAMPLES_PER_CLASS: usize = 16;

/// A VM's memory content model.
#[derive(Clone, Debug)]
pub struct GuestMemoryImage {
    seed: u64,
    mix: PageMix,
    num_pages: u64,
    /// Real compressed sizes of sample pages, per class.
    class_samples: [Vec<u32>; 4],
}

impl GuestMemoryImage {
    /// Creates an image of `num_pages` pages with the given content mix.
    pub fn new(seed: u64, mix: PageMix, num_pages: u64) -> Self {
        let class_samples = core::array::from_fn(|ci| {
            let class = PageClass::ALL[ci];
            (0..SAMPLES_PER_CLASS)
                .map(|i| {
                    let page = class.synthesize(seed ^ (i as u64) << 32);
                    compress(&page).len() as u32
                })
                .collect()
        });
        GuestMemoryImage { seed, mix, num_pages, class_samples }
    }

    /// A 4 GiB desktop VM image.
    pub fn desktop(seed: u64) -> Self {
        GuestMemoryImage::new(seed, PageMix::desktop(), ByteSize::gib(4).pages(PAGE_SIZE))
    }

    /// Number of pages in the image.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// The content class of a page (stable per image).
    pub fn class_of(&self, page: PageNum) -> PageClass {
        let mut rng = SimRng::new(self.seed ^ page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.mix.sample(&mut rng)
    }

    /// Compressed size of a page under the real codec.
    pub fn compressed_size(&self, page: PageNum) -> ByteSize {
        let class = self.class_of(page);
        let samples = &self.class_samples[class.index()];
        let idx = (page.0.wrapping_mul(0xA24B_AED4_963E_E407) >> 32) as usize % samples.len();
        ByteSize::bytes(u64::from(samples[idx]))
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
