package vfs

import "sync"

// RAMDisk is an in-memory BlockDev for unit tests and ram-backed mounts.
type RAMDisk struct {
	mu      sync.Mutex
	sectors [][]byte
	size    uint64
}

// SectorSize matches the drivers package.
const SectorSize = 512

// NewRAMDisk creates a RAM-backed block device of n sectors.
func NewRAMDisk(n uint64) *RAMDisk {
	return &RAMDisk{sectors: make([][]byte, n), size: n}
}

// ReadSectors implements BlockDev.
func (r *RAMDisk) ReadSectors(sector uint64, buf []byte) error {
	if len(buf)%SectorSize != 0 {
		return ErrBadOffset
	}
	n := uint64(len(buf) / SectorSize)
	r.mu.Lock()
	defer r.mu.Unlock()
	if sector+n > r.size {
		return ErrBadOffset
	}
	for i := uint64(0); i < n; i++ {
		dst := buf[i*SectorSize : (i+1)*SectorSize]
		if s := r.sectors[sector+i]; s == nil {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, s)
		}
	}
	return nil
}

// WriteSectors implements BlockDev.
func (r *RAMDisk) WriteSectors(sector uint64, data []byte) error {
	if len(data)%SectorSize != 0 {
		return ErrBadOffset
	}
	n := uint64(len(data) / SectorSize)
	r.mu.Lock()
	defer r.mu.Unlock()
	if sector+n > r.size {
		return ErrBadOffset
	}
	for i := uint64(0); i < n; i++ {
		src := data[i*SectorSize : (i+1)*SectorSize]
		if s := r.sectors[sector+i]; s != nil {
			copy(s, src) // a read copies out, so no caller holds s
		} else {
			r.sectors[sector+i] = append([]byte(nil), src...)
		}
	}
	return nil
}

// Sectors implements BlockDev.
func (r *RAMDisk) Sectors() uint64 { return r.size }
