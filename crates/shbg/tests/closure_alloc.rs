//! `BitMatrix::transitive_closure` closes the matrix in place: its
//! scratch is linear in the node count, never a second matrix.
//!
//! A counting global allocator totals the bytes requested on this
//! thread while the closure runs. On a sparse 4,096-node graph with
//! nearly as many components as nodes, the matrix itself is 2 MiB, and
//! so is each `components × words` matrix of per-component rows; a
//! closure that kept two of them requested about 4.7 MB here. The total
//! must stay below the matrix's own size.

use shbg::BitMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes requested on this thread while counting, or `None`.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation after the thread-local is torn down is
    // skipped instead of panicking inside the allocator.
    let _ = REQUESTED.try_with(|r| {
        if let Some(total) = r.get() {
            r.set(Some(total + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting only updates a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the bytes it requested from the allocator,
/// counting each reallocation at its new size.
fn requested_by(f: impl FnOnce()) -> usize {
    REQUESTED.with(|r| r.set(Some(0)));
    f();
    REQUESTED.with(|r| r.replace(None)).expect("counting")
}

#[test]
fn closure_allocates_less_than_the_matrix() {
    const N: usize = 4096;
    let mut m = BitMatrix::new(N);
    // A chain through every node...
    for a in 0..N - 1 {
        m.set(a, a + 1);
    }
    // ...with planted four-node cycles, each across a word boundary.
    for boundary in (64..N).step_by(256) {
        m.set(boundary + 1, boundary - 2);
    }
    let matrix_bytes = N * N.div_ceil(64) * 8;
    let mut sccs = 0;
    let requested = requested_by(|| sccs = m.transitive_closure());
    assert!(
        sccs > 1 && sccs < N,
        "cycles collapse, the rest stays apart"
    );
    assert!(m.get(0, N - 1) && m.get(64, 64) && !m.get(0, 0) && !m.get(N - 1, 0));
    assert!(
        requested < matrix_bytes,
        "transitive_closure requested {requested} bytes on a {matrix_bytes}-byte matrix"
    );
}
