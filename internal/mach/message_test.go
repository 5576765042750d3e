package mach

import (
	"bytes"
	"testing"
)

// TestTransferPlacement pins the one bulk-payload rule every data
// protocol uses: by region descriptor when zero-copy is on and the
// payload spans at least a page, out of line otherwise — and Payload
// reads it back from wherever it was placed.
func TestTransferPlacement(t *testing.T) {
	for _, tc := range []struct {
		name     string
		x        Transfer
		size     int
		byRegion bool
	}{
		{"zero-copy, a byte under a page", Transfer{ZeroCopy: true}, PageSize - 1, false},
		{"zero-copy, one page", Transfer{ZeroCopy: true}, PageSize, true},
		{"zero-copy, many pages", Transfer{ZeroCopy: true, Batch: true}, 4*PageSize + 3, true},
		{"copy, one page", Transfer{}, PageSize, false},
		{"copy, many pages", Transfer{Batch: true}, 4 * PageSize, false},
		{"zero-copy, empty", Transfer{ZeroCopy: true}, 0, false},
	} {
		data := bytes.Repeat([]byte{0xA5}, tc.size)
		m := tc.x.Place(7, []byte("hdr"), data)
		if m.ID != 7 || string(m.Body) != "hdr" {
			t.Errorf("%s: header lost: id %d body %q", tc.name, m.ID, m.Body)
		}
		if got := len(m.Regions) == 1 && m.OOL == nil; got != tc.byRegion {
			t.Errorf("%s: %d regions, %d OOL bytes; want by region = %v", tc.name, len(m.Regions), len(m.OOL), tc.byRegion)
		}
		if !bytes.Equal(m.Payload(), data) {
			t.Errorf("%s: Payload returned %d bytes, placed %d", tc.name, len(m.Payload()), len(data))
		}
	}
}
