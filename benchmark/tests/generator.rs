//! The generator is a pure function of `--seed`: the same seed gives the
//! same op stream (by hash), another seed a different one.

use mantle_benchmark::driver::stream_hash;
use mantle_benchmark::workloads::{
    DirMutate, MixedObjects, ObjChurn, ReadDeep, ReadLeased, Workload,
};

fn check<W: Workload>(steps: usize) {
    let a = stream_hash::<W>(11, steps);
    assert_eq!(a, stream_hash::<W>(11, steps), "{}: same seed", W::NAME);
    assert_ne!(a, stream_hash::<W>(12, steps), "{}: other seed", W::NAME);
    assert_ne!(a, 0);
}

#[test]
fn read_streams_are_functions_of_the_seed() {
    check::<ReadDeep>(3_000);
    check::<ReadLeased>(3_000);
}

#[test]
fn write_streams_are_functions_of_the_seed() {
    // More than the delete lag, so deletes are in the stream.
    check::<ObjChurn>(1_200);
    check::<MixedObjects>(3_000);
    check::<DirMutate>(20);
}
