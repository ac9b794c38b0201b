package realcheck

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"syscall"
	"testing"
)

// mremapMayMove is MREMAP_MAYMOVE: the kernel may move a mapping it cannot
// grow in place.
const mremapMayMove = 1

// TestKernelMremapMoveCarriesPagesSoftDirty is the real-kernel oracle for the
// one place vm's model follows Linux rather than a model of its own: an
// mremap move. An anonymous mapping is boxed in from above (its last page
// mprotected PROT_NONE, a region of its own) and grown with a raw mremap, so
// the kernel must move it. The moved pages must arrive present (pagemap bit
// 63) with their contents intact, as vm.Mremap carries each frame to its new
// page number. Where the kernel exposes soft-dirty bits (bit 55), a
// clear_refs before the move must not hide it: every moved page reads
// soft-dirty, which is why vm.Mremap logs a moved page dirty. Without
// soft-dirty tracking that half is skipped and says so in the log; without a
// readable pagemap the whole test is.
func TestKernelMremapMoveCarriesPagesSoftDirty(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs Linux's mremap and /proc/self/pagemap")
	}
	const n = 8
	region, err := syscall.Mmap(-1, 0, (n+1)*pageSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		t.Fatal(err)
	}
	old := regionBase(region)
	if err := syscall.Mprotect(region[n*pageSize:], syscall.PROT_NONE); err != nil {
		syscall.Munmap(region)
		t.Fatal(err)
	}
	for i := 0; i < n*pageSize; i += 512 {
		region[i] = byte(i/512*7 + 1)
	}
	want := bytes.Clone(region[:n*pageSize])
	if _, err := readPagemap(old, n); err != nil {
		syscall.Munmap(region)
		if errors.Is(err, ErrUnsupported) {
			t.Skipf("pagemap unreadable: %v", err)
		}
		t.Fatal(err)
	}
	sdErr := clearSoftDirty(old, n)
	if sdErr != nil && !errors.Is(sdErr, ErrUnsupported) {
		syscall.Munmap(region)
		t.Fatal(sdErr)
	}

	moved, _, errno := syscall.Syscall6(syscall.SYS_MREMAP, old, n*pageSize, 2*n*pageSize, mremapMayMove, 0, 0)
	if errno != 0 {
		syscall.Munmap(region)
		t.Fatalf("mremap: %v", errno)
	}
	// region still names the old range, now all but its box unmapped: free
	// the two mappings by address instead.
	defer func() {
		syscall.Syscall(syscall.SYS_MUNMAP, moved, 2*n*pageSize, 0)
		syscall.Syscall(syscall.SYS_MUNMAP, old+n*pageSize, pageSize, 0)
	}()
	if moved == old {
		t.Fatal("the kernel grew the boxed-in mapping in place")
	}
	entries, err := readPagemap(moved, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e&presentBit == 0 {
			t.Errorf("moved page %d is not present (pagemap entry %#x)", i, e)
		}
	}
	mem, err := os.Open("/proc/self/mem")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	got := make([]byte, n*pageSize)
	if _, err := mem.ReadAt(got, int64(moved)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the moved pages' contents differ from what was written before the move")
	}
	if sdErr != nil {
		t.Logf("bit 63 and contents checked; bit 55 skipped: %v", sdErr)
		return
	}
	for i, e := range entries {
		if e&softDirtyBit == 0 {
			t.Errorf("moved page %d is not soft-dirty after a clear_refs before the move", i)
		}
	}
	t.Log("bit 63, contents and bit 55 checked")
}
