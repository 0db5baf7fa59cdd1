//! A binary that does not install `sintel_common::alloc::Counting` as
//! its global allocator reads zeros from the meter.

use sintel_common::alloc::{measure, Allocated};

#[test]
fn counters_read_zero_without_the_meter() {
    let (allocated, len) = measure(|| std::hint::black_box(vec![0u8; 1024]).len());
    assert_eq!(len, 1024);
    assert_eq!(allocated, Allocated { bytes: 0, events: 0, peak_live: 0 });
}
