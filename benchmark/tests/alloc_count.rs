//! The counting allocator counts a known allocation pattern exactly.

use std::hint::black_box;

use mantle_benchmark::alloc;

#[test]
fn counts_a_known_pattern_exactly() {
    alloc::mark_client_thread();
    let (count0, bytes0) = alloc::thread_totals();

    // Not counted: the thread is marked but no op is being timed.
    drop(black_box(Box::new([0u8; 64])));
    assert_eq!(alloc::thread_totals(), (count0, bytes0));

    alloc::start();
    let boxes: Vec<Box<u64>> = {
        // One allocation for the vector's buffer, ten for the boxes.
        let mut v = Vec::with_capacity(10);
        for i in 0..10u64 {
            v.push(black_box(Box::new(i)));
        }
        v
    };
    let mut bytes: Vec<u8> = Vec::with_capacity(100);
    bytes.extend(std::iter::repeat_n(7u8, 100));
    // Growing past the capacity is one reallocation, to twice the size.
    bytes.push(black_box(1));
    let zeroed = black_box(vec![0u32; 25]);
    alloc::stop();

    let (count, total) = alloc::thread_totals();
    assert_eq!(count - count0, 1 + 10 + 1 + 1 + 1);
    let expected = 10 * 8 + 10 * 8 + 100 + bytes.capacity() + 25 * 4;
    assert_eq!(total - bytes0, expected as u64);
    assert!(bytes.capacity() >= 200);

    // Frees are not allocations, and nothing counts after `stop`.
    drop((boxes, bytes, zeroed));
    drop(black_box(vec![1u8; 32]));
    assert_eq!(alloc::thread_totals().0 - count0, 14);
}

#[test]
fn unmarked_threads_count_as_background() {
    let before = alloc::background_totals();
    std::thread::spawn(|| {
        for _ in 0..50 {
            drop(black_box(vec![0u8; 128]));
        }
    })
    .join()
    .unwrap();
    let after = alloc::background_totals();
    assert!(after.0 - before.0 >= 50);
    assert!(after.1 - before.1 >= 50 * 128);
}
