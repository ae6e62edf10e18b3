//! Memory-server deep dive: the §4.3 drive-handoff protocol and the
//! compression machinery, driven directly through the public API.
//!
//! Run with: `cargo run --release --example memory_server`

use oasis::host::guest::GuestMemoryImage;
use oasis::host::memtap::Memtap;
use oasis::host::MemoryServer;
use oasis::mem::compress::{compress, decompress, PageClass, PageMix};
use oasis::mem::PageNum;
use oasis::net::LinkSpec;
use oasis::power::MemoryServerProfile;
use oasis::vm::VmId;

fn main() {
    println!("== per-page compression (the §4.3 LZO stand-in)");
    for class in PageClass::ALL {
        let page = class.synthesize(1);
        let packed = compress(&page);
        let restored = decompress(&packed).expect("lossless");
        assert_eq!(restored, page);
        println!(
            "   {:<8} {:>5} bytes -> {:>5} bytes ({:.0}%)",
            format!("{class:?}"),
            page.len(),
            packed.len(),
            100.0 * packed.len() as f64 / page.len() as f64
        );
    }

    println!("== uploading a small VM image over the SAS path");
    let profile = MemoryServerProfile::prototype();
    let mut server = MemoryServer::new(profile);
    let image = GuestMemoryImage::new(9, PageMix::desktop(), 65_536);
    let vm = VmId(1);
    let pages = (0..20_000).map(|i| (PageNum(i), image.compressed_size(PageNum(i))));
    let receipt = server.upload(vm, image.num_pages(), pages, false).expect("drive at host");
    println!(
        "   {} pages, {} raw -> {} compressed, {:.1}s at 128 MiB/s",
        receipt.pages,
        receipt.raw,
        receipt.compressed,
        receipt.duration.as_secs_f64()
    );

    println!("== drive handoff: host detaches, low-power daemon serves");
    server.handoff_to_server().expect("drive was at host");
    let mut memtap = Memtap::new(vm, LinkSpec::gige(), profile.page_service_time);
    let mut total_latency = 0.0;
    for i in (0..20_000).step_by(1_000) {
        let size = server.serve_page(vm, PageNum(i)).expect("page stored");
        total_latency += memtap.service_fault(size).as_secs_f64();
    }
    let stats = memtap.stats();
    println!(
        "   {} faults serviced, {} fetched, mean latency {:.2} ms",
        stats.faults,
        stats.compressed_bytes,
        1_000.0 * total_latency / stats.faults as f64
    );

    println!("== differential upload after dirtying 500 pages");
    server.handoff_to_host().expect("was serving");
    let dirty = (0..500).map(|i| (PageNum(i * 7), image.compressed_size(PageNum(i * 7))));
    let diff = server.upload(vm, image.num_pages(), dirty, true).expect("drive back at host");
    println!(
        "   rewrote {} pages ({}) in {:.2}s — {}x faster than the full upload",
        diff.pages,
        diff.compressed,
        diff.duration.as_secs_f64(),
        (receipt.duration.as_secs_f64() / diff.duration.as_secs_f64()).round()
    );
}
