package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mach"
)

// E-XFER: the transfer-mode sweep behind the zero-copy and vectored-RPC
// redesign.  A reworked-RPC round trip carries the same payload three
// ways — copied (inline or out of line), mapped by shared-memory region
// descriptor, and batched eight sub-requests to a carrier crossing —
// and the per-transfer cycle cost shows where copy cost stops
// dominating crossing cost: copying wins while the payload is small
// (a region charges per page mapped, a copy per byte moved), the
// region path wins from a page up, and batching amortizes the fixed
// crossing cost that dominates small transfers.

// XferBatch is the sub-request count of the batched mode.
const XferBatch = 8

// XferSizes is the payload sweep of experiment E-XFER.
var XferSizes = []int{32, 256, 1024, 4096, 16384, 65536}

// XferRow is one payload size of the sweep: cycles per transferred
// payload under each mode (the batched column is per sub-request, i.e.
// the carrier round trip divided by XferBatch).
type XferRow struct {
	Size    int
	Copy    uint64
	Region  uint64
	Batched uint64
}

// XferSweep measures the three transfer modes across XferSizes.
func XferSweep() ([]XferRow, error) {
	var out []XferRow
	for _, size := range XferSizes {
		row := XferRow{Size: size}
		var err error
		if row.Copy, err = xferCost(size, "copy"); err != nil {
			return nil, err
		}
		if row.Region, err = xferCost(size, "region"); err != nil {
			return nil, err
		}
		if row.Batched, err = xferCost(size, "batched"); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// xferMsg builds one request carrying size payload bytes.  Copied
// payloads ride inline up to InlineMax and out of line past it, exactly
// like the vfs hot path; region payloads ride a single descriptor.
func xferMsg(size int, region bool) *mach.Message {
	if region {
		return &mach.Message{Regions: []mach.RegionDesc{{Len: uint64(size), Data: make([]byte, size)}}}
	}
	if size <= mach.InlineMax {
		return &mach.Message{Body: make([]byte, size)}
	}
	return &mach.Message{OOL: make([]byte, size)}
}

// xferCost measures one mode at one size: cycles per payload delivered
// to the server (per call for copy/region, per sub-request for
// batched).
func xferCost(size int, mode string) (uint64, error) {
	r, err := newRig(false, sink)
	if err != nil {
		return 0, err
	}
	call := func() error {
		switch mode {
		case "copy":
			return r.call(xferMsg(size, false))
		case "region":
			return r.call(xferMsg(size, true))
		case "batched":
			reqs := make([]*mach.Message, XferBatch)
			for i := range reqs {
				reqs[i] = xferMsg(size, false)
			}
			_, err := r.th.CallV(r.send, reqs, mach.CallOpts{})
			return err
		default:
			return fmt.Errorf("bench: unknown xfer mode %q", mode)
		}
	}
	const N = 100
	d, err := bracket(r.k.CPU, 20, N, call, nil)
	per := d.Cycles / N
	if mode == "batched" {
		per /= XferBatch
	}
	return per, err
}

// XferFIResult compares the file-intensive Table 1 ratios with the
// bulk-transfer features off and on, over the same buffer-cache size
// (the features only matter on the cached path: the FI mixes do 512 B
// I/O, so the gains come from page-sized read-ahead fills and vectored
// write-behind flushes at the driver crossing).
type XferFIResult struct {
	CacheSectors   int
	OffFI1, OffFI2 float64 // WPOS/native ratio, ZeroCopy=Batch=false
	OnFI1, OnFI2   float64 // WPOS/native ratio, ZeroCopy=Batch=true
}

// XferFI measures the file-intensive rows both ways at cacheSectors.
func XferFI(cacheSectors int) (XferFIResult, error) {
	cfg := core.DefaultConfig()
	cfg.CacheSectors = cacheSectors
	off, err := table1Rows(cfg, fiRows)
	if err != nil {
		return XferFIResult{}, err
	}
	cfg.ZeroCopy = true
	cfg.BatchRPC = true
	on, err := table1Rows(cfg, fiRows)
	if err != nil {
		return XferFIResult{}, err
	}
	return XferFIResult{
		CacheSectors: cacheSectors,
		OffFI1:       off[0].Ratio, OffFI2: off[1].Ratio,
		OnFI1: on[0].Ratio, OnFI2: on[1].Ratio,
	}, nil
}
