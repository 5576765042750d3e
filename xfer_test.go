package repro_test

import (
	"testing"

	"repro/internal/bench"
)

// TestXferRegionZeroPerByte gates the zero-copy claim on the E-XFER
// sweep itself: a region transfer charges per page mapped and nothing
// per byte, so every payload that fits one page must cost identical
// cycles, and the large-payload slope must be a small fraction of the
// copy path's.
func TestXferRegionZeroPerByte(t *testing.T) {
	rows, err := bench.XferSweep()
	if err != nil {
		t.Fatal(err)
	}
	cell := map[int]bench.XferRow{}
	for _, r := range rows {
		cell[r.Size] = r
	}
	// 32 B and 4096 B both map exactly one page: the region cost must
	// not move by a single cycle — that difference would be a per-byte
	// charge.
	if a, b := cell[32].Region, cell[4096].Region; a != b {
		t.Errorf("region transfer cost moved with payload size within one page: %d cycles at 32 B, %d at 4096 B", a, b)
	}
	// From one page to sixteen the region path pays 15 more page maps;
	// the copy path pays 61440 more copied bytes.  The region slope must
	// be under a tenth of the copy slope or the per-byte charge leaked
	// back in.
	regionSlope := cell[65536].Region - cell[4096].Region
	copySlope := cell[65536].Copy - cell[4096].Copy
	if regionSlope*10 >= copySlope {
		t.Errorf("region slope %d cycles over 60 KiB is not <10%% of copy slope %d", regionSlope, copySlope)
	}
	// The crossover: below a page the per-page map cost dominates and
	// copying wins; from a page up region transfer wins.  The exact pins
	// below move with any cost-model change, this shape must not.
	for _, size := range []int{32, 256} {
		if cell[size].Copy >= cell[size].Region {
			t.Errorf("copy does not beat region at %d B: %d vs %d cycles", size, cell[size].Copy, cell[size].Region)
		}
	}
	for _, size := range []int{4096, 16384, 65536} {
		if cell[size].Region >= cell[size].Copy {
			t.Errorf("region does not beat copy at %d B: %d vs %d cycles", size, cell[size].Region, cell[size].Copy)
		}
	}
	// Batching amortizes the fixed crossing cost: per-op cost of an
	// 8-wide batch must be under half the one-call-per-op cost while the
	// payload is small enough for the crossing to dominate.
	for _, size := range []int{32, 256} {
		if 2*cell[size].Batched >= cell[size].Copy {
			t.Errorf("batched %d B costs %d cycles/op vs %d unbatched — crossing not amortized",
				size, cell[size].Batched, cell[size].Copy)
		}
	}
}

// TestXferFileIntensiveImproves gates the end-to-end payoff: with the
// buffer cache at 256 sectors, turning zero-copy and vectored batching
// on must not worsen either file-intensive Table 1 ratio, and must
// strictly improve FI2 (the mix with enough write-behind traffic for
// vectored flushes to matter).
func TestXferFileIntensiveImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight full systems")
	}
	fi, err := bench.XferFI(256)
	if err != nil {
		t.Fatal(err)
	}
	if fi.OnFI1 > fi.OffFI1 {
		t.Errorf("FI1 ratio regressed with features on: %.4f -> %.4f", fi.OffFI1, fi.OnFI1)
	}
	if fi.OnFI2 >= fi.OffFI2 {
		t.Errorf("FI2 ratio did not improve with features on: %.4f -> %.4f", fi.OffFI2, fi.OnFI2)
	}
}

// xferSweepPinned is the exact E-XFER sweep: cycles per payload copied,
// mapped by region, and batched eight to a carrier, at each size.
var xferSweepPinned = []bench.XferRow{
	{Size: 32, Copy: 5238, Region: 6389, Batched: 782},
	{Size: 256, Copy: 5311, Region: 6389, Batched: 871},
	{Size: 1024, Copy: 5687, Region: 6389, Batched: 2011},
	{Size: 4096, Copy: 6685, Region: 6389, Batched: 5727},
	{Size: 16384, Copy: 25061, Region: 6974, Batched: 20597},
	{Size: 65536, Copy: 84523, Region: 9314, Batched: 80059},
}

// TestXferSweepPinned checks every E-XFER cell exactly; with
// TestFileMatrixPinned it is the cycle pin under the transfer path.
func TestXferSweepPinned(t *testing.T) {
	rows, err := bench.XferSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(xferSweepPinned) {
		t.Fatalf("%d sweep rows, pinned %d", len(rows), len(xferSweepPinned))
	}
	for i, r := range rows {
		if r != xferSweepPinned[i] {
			t.Errorf("E-XFER row %+v, pinned %+v", r, xferSweepPinned[i])
		}
	}
}
