package main

import (
	"fmt"
	"testing"
)

// Example is ghsnap -pages 2000: the soft-dirty tracker and the copy store.
// It pins every phase's restore charge and the verify line.
func Example() {
	if err := run(2000, 400, 2, "soft-dirty", "copy", true, 3); err != nil {
		fmt.Println(err)
	}
	// Output:
	// snapshot: 2000 pages, 4 regions, 5.41828ms (one-time, at container init)
	//
	// restore: 1.477922ms total — 403/4352 pages dirty, 400 restored, 0 dropped, 4 layout syscalls
	//
	// phase breakdown (Fig. 8 legend order):
	//   interrupting                      110µs    7.4%
	//   reading maps                     96.3µs    6.5%
	//   scanning page metadata         262.87µs   17.8%
	//   diffing memory layouts            5.5µs    0.4%
	//   brk()                            16.5µs    1.1%
	//   mmap()                               0s    0.0%
	//   munmap()                       50.652µs    3.4%
	//   madvise()                            0s    0.0%
	//   mprotect()                           0s    0.0%
	//   restoring memory                842.1µs   57.0%
	//   clearing soft-dirty bits           60µs    4.1%
	//   restoring registers                 6µs    0.4%
	//   detaching                          28µs    1.9%
	//
	// verify: process state is byte-identical to the snapshot ✓
	// state store (copy): 7.81 MB materialized
}

// Example_uffd is ghsnap -pages 2000 -tracker uffd -store cow.
func Example_uffd() {
	if err := run(2000, 400, 2, "uffd", "cow", true, 3); err != nil {
		fmt.Println(err)
	}
	// Output:
	// snapshot: 2000 pages, 4 regions, 1.5796ms (one-time, at container init)
	//
	// restore: 1.241397ms total — 403/4352 pages dirty, 400 restored, 0 dropped, 4 layout syscalls
	//
	// phase breakdown (Fig. 8 legend order):
	//   interrupting                      110µs    8.9%
	//   reading maps                     96.3µs    7.8%
	//   scanning page metadata         74.255µs    6.0%
	//   diffing memory layouts            5.5µs    0.4%
	//   brk()                            16.5µs    1.3%
	//   mmap()                               0s    0.0%
	//   munmap()                       50.652µs    4.1%
	//   madvise()                            0s    0.0%
	//   mprotect()                           0s    0.0%
	//   restoring memory                842.1µs   67.8%
	//   clearing soft-dirty bits        12.09µs    1.0%
	//   restoring registers                 6µs    0.5%
	//   detaching                          28µs    2.3%
	//
	// verify: process state is byte-identical to the snapshot ✓
	// state store (cow): 1.56 MB materialized
}

// TestRunRejectsDirtyOutsideHeap: a -dirty past -pages would write outside
// the heap, so run refuses it before building anything.
func TestRunRejectsDirtyOutsideHeap(t *testing.T) {
	for _, dirty := range []int{-1, 101, 300} {
		if err := run(100, dirty, 2, "soft-dirty", "copy", true, 3); err == nil {
			t.Errorf("run(100, %d, ...) = nil, want an error", dirty)
		}
	}
}
