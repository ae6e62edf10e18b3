//! Model test for the memory server's dense drive image.
//!
//! Random sequences of full and differential uploads, interleaved with
//! serves, run against both the [`MemoryServer`] and a reference model
//! that keeps each VM's image as a `BTreeMap` from page to compressed
//! size. Uploads may be empty, repeat pages, list them out of order,
//! carry sizes from 0 to one byte over a page, and name pages past the
//! VM's page count. Every receipt, served size and error must match the
//! model.

use std::collections::BTreeMap;

use oasis_host::memserver::{MemoryServer, MsError, UploadReceipt};
use oasis_mem::{ByteSize, PageNum, PAGE_SIZE};
use oasis_power::MemoryServerProfile;
use oasis_sim::check::{run, Gen};
use oasis_sim::SimDuration;
use oasis_vm::VmId;

/// The reference: each VM's image as page → compressed size.
#[derive(Default)]
struct Model {
    images: BTreeMap<VmId, BTreeMap<u64, u64>>,
}

impl Model {
    fn upload(
        &mut self,
        vm: VmId,
        num_pages: u64,
        pages: &[(PageNum, ByteSize)],
        differential: bool,
        bytes_per_sec: f64,
    ) -> Result<UploadReceipt, MsError> {
        // A failed upload leaves no image behind, so take it out first.
        let mut image = match self.images.remove(&vm) {
            Some(mut image) if differential => {
                image.retain(|&p, _| p < num_pages);
                image
            }
            _ => BTreeMap::new(),
        };
        let mut compressed = ByteSize::ZERO;
        for &(page, size) in pages {
            if page.0 >= num_pages {
                return Err(MsError::PageOutOfRange(vm, page));
            }
            if size.as_bytes() >= u64::from(u32::MAX) {
                return Err(MsError::PageTooLarge(vm, page));
            }
            image.insert(page.0, size.as_bytes());
            compressed += size;
        }
        self.images.insert(vm, image);
        let n = pages.len() as u64;
        Ok(UploadReceipt {
            pages: n,
            raw: ByteSize::bytes(n * PAGE_SIZE),
            compressed,
            duration: SimDuration::from_secs_f64(compressed.as_bytes() as f64 / bytes_per_sec),
        })
    }

    fn serve(&self, vm: VmId, page: PageNum) -> Result<ByteSize, MsError> {
        let image = self.images.get(&vm).ok_or(MsError::UnknownVm(vm))?;
        image.get(&page.0).map(|&s| ByteSize::bytes(s)).ok_or(MsError::UnknownPage(vm, page))
    }
}

/// A page size the image cannot record.
fn oversized(g: &mut Gen) -> ByteSize {
    ByteSize::bytes(u64::from(u32::MAX) + g.u64_in(0, 2))
}

#[test]
fn dense_image_matches_the_btreemap_model() {
    run(128, |g: &mut Gen| {
        let profile = MemoryServerProfile::prototype();
        let mut ms = MemoryServer::new(profile);
        let mut model = Model::default();
        let mut serving = false;
        let mut served = 0u64;
        let counts: Vec<u64> = (0..3).map(|_| g.u64_in(0, 40)).collect();
        for _ in 0..g.usize_in(1, 60) {
            let vm = VmId(g.u32_in(0, 3));
            if g.bool() {
                // Mostly the VM's own page count, sometimes another one.
                let num_pages =
                    if g.u64_in(0, 8) == 0 { g.u64_in(0, 40) } else { counts[vm.0 as usize] };
                let differential = g.bool();
                // Pages with repeats and in any order, sizes 0..=4,097;
                // empty uploads included.
                let mut pages = if num_pages == 0 {
                    Vec::new()
                } else {
                    g.vec(0, 30, |g| {
                        (
                            PageNum(g.u64_in(0, num_pages)),
                            ByteSize::bytes(g.u64_in(0, PAGE_SIZE + 2)),
                        )
                    })
                };
                // One upload in six carries a page the image refuses: past
                // the page count, or too large for its slot.
                if g.u64_in(0, 6) == 0 {
                    let bad = if g.bool() {
                        (PageNum(num_pages + g.u64_in(0, 4)), ByteSize::bytes(g.u64_in(0, 4_098)))
                    } else {
                        (PageNum(g.u64_in(0, num_pages.max(1))), oversized(g))
                    };
                    let at = g.usize_in(0, pages.len() + 1);
                    pages.insert(at, bad);
                }
                if serving {
                    ms.handoff_to_host().unwrap();
                    serving = false;
                }
                let got = ms.upload(vm, num_pages, pages.iter().copied(), differential);
                let want =
                    model.upload(vm, num_pages, &pages, differential, profile.upload_bytes_per_sec);
                assert_eq!(got, want, "case {}: upload {pages:?}", g.case());
            } else {
                if !serving {
                    ms.handoff_to_server().unwrap();
                    serving = true;
                }
                let page = PageNum(g.u64_in(0, 48));
                let want = model.serve(vm, page);
                served += u64::from(want.is_ok());
                assert_eq!(ms.serve_page(vm, page), want, "case {}", g.case());
            }
        }
        assert_eq!(ms.stats().requests, served);
    });
}

#[test]
fn failed_upload_leaves_the_vm_unknown() {
    let mut ms = MemoryServer::new(MemoryServerProfile::prototype());
    let vm = VmId(4);
    let good = (0..8).map(|p| (PageNum(p), ByteSize::bytes(700)));
    ms.upload(vm, 8, good, false).unwrap();
    // The out-of-range page comes after two in-range ones: neither the
    // old image nor a half-written new one survives.
    let bad = [0, 1, 8].map(|p| (PageNum(p), ByteSize::bytes(900)));
    assert_eq!(ms.upload(vm, 8, bad, true), Err(MsError::PageOutOfRange(vm, PageNum(8))));
    ms.handoff_to_server().unwrap();
    assert_eq!(ms.serve_page(vm, PageNum(0)), Err(MsError::UnknownVm(vm)));
    assert_eq!(ms.serve_page(vm, PageNum(5)), Err(MsError::UnknownVm(vm)));
    // A fresh full upload brings the VM back.
    ms.handoff_to_host().unwrap();
    ms.upload(vm, 8, [(PageNum(5), ByteSize::bytes(0))], false).unwrap();
    ms.handoff_to_server().unwrap();
    assert_eq!(ms.serve_page(vm, PageNum(5)), Ok(ByteSize::ZERO));
    assert_eq!(ms.serve_page(vm, PageNum(0)), Err(MsError::UnknownPage(vm, PageNum(0))));
}
