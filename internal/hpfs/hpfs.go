// Package hpfs implements an HPFS-like physical file system: long
// (up to 254 character) case-preserving but case-insensitively matched
// names, extended attributes stored with the fnode, and extent-based
// allocation over a sector bitmap.  This is the format OS/2 installations
// actually preferred, and in the reproduction it is the format on which
// the union semantics mostly *work* — the contrast to FAT in E8.
//
// On-disk layout: a superblock, a table of one-sector fnodes (file
// nodes carrying name, attributes, EAs and the extent list), a data
// allocation bitmap, and data sectors.  Directories are files whose data
// is an array of child fnode numbers.  Volume is that format; jfs mounts
// it too, behind its journal and with case-sensitive names.
package hpfs

import (
	"encoding/binary"
	"errors"

	"repro/internal/vfs"
)

const (
	sectorSize = 512
	magic      = 0x48504653 // "HPFS"
	maxExtents = 14
	// MaxName is the longest file name HPFS stores.
	MaxName = 254
	maxEA   = 8 // per fnode in this reduced format
)

// Errors specific to the HPFS implementation.
var (
	ErrNotFormatted = errors.New("hpfs: device is not HPFS formatted")
	ErrFnodesFull   = errors.New("hpfs: fnode table exhausted")
	ErrTooManyEAs   = errors.New("hpfs: EA area full")
	ErrFragmented   = errors.New("hpfs: file exceeds extent table")
)

// Format writes an empty HPFS volume; about 1/16 of the device becomes
// fnodes.
func Format(dev vfs.BlockDev) error {
	total := dev.Sectors()
	if total < 64 {
		return vfs.ErrNoSpace
	}
	fnodeStart := uint64(1)
	fnodeCount := total / 16
	bitmapStart := fnodeStart + fnodeCount
	bitmapSecs := (total + sectorSize*8 - 1) / (sectorSize * 8)
	dataStart := bitmapStart + bitmapSecs
	if dataStart+8 >= total {
		return vfs.ErrNoSpace
	}
	sb := make([]byte, sectorSize)
	binary.LittleEndian.PutUint32(sb[0:4], magic)
	binary.LittleEndian.PutUint32(sb[4:8], uint32(fnodeStart))
	binary.LittleEndian.PutUint32(sb[8:12], uint32(fnodeCount))
	binary.LittleEndian.PutUint32(sb[12:16], uint32(bitmapStart))
	binary.LittleEndian.PutUint32(sb[16:20], uint32(bitmapSecs))
	binary.LittleEndian.PutUint32(sb[20:24], uint32(dataStart))
	return WriteEmpty(dev, sb, fnodeStart, dataStart)
}

// FS is a mounted HPFS volume: the extent format, every sector written
// through to the device.
type FS struct{ vol Volume }

// direct is hpfs's Meta: metadata sectors are device sectors.
type direct struct{ v *Volume }

func (d direct) ReadMeta(sector uint64) ([]byte, error) {
	b := make([]byte, sectorSize)
	return b, d.v.Dev.ReadSectors(sector, b)
}

func (d direct) WriteMeta(sector uint64, b []byte) error { return d.v.Dev.WriteSectors(sector, b) }

func (direct) Freed(uint64) {}

// New returns an unmounted HPFS volume; attach it with Mount.
func New() *FS { return &FS{} }

// Mount implements vfs.FileSystem: read the superblock.
func (fs *FS) Mount(dev vfs.BlockDev) error {
	if fs.vol.Dev != nil && fs.vol.Dev != vfs.DeadDev {
		return vfs.ErrMountBusy
	}
	sb := make([]byte, sectorSize)
	if err := dev.ReadSectors(0, sb); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(sb[0:4]) != magic {
		return ErrNotFormatted
	}
	fs.vol = Volume{
		Dev: dev, Meta: direct{&fs.vol}, Caps: fs.Caps(),
		Errs:        Errors{FnodesFull: ErrFnodesFull, TooManyEAs: ErrTooManyEAs, Fragmented: ErrFragmented},
		FnodeStart:  uint64(binary.LittleEndian.Uint32(sb[4:8])),
		FnodeCount:  uint64(binary.LittleEndian.Uint32(sb[8:12])),
		BitmapStart: uint64(binary.LittleEndian.Uint32(sb[12:16])),
		DataStart:   uint64(binary.LittleEndian.Uint32(sb[20:24])),
		Total:       dev.Sectors(),
	}
	return nil
}

// Unmount implements vfs.FileSystem (writes are synchronous, nothing to
// flush).
func (fs *FS) Unmount() error {
	if fs.vol.Dev == nil {
		return vfs.ErrNotMounted
	}
	fs.vol.Dev = vfs.DeadDev
	return nil
}

var _ vfs.FileSystem = (*FS)(nil)

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Vnode { return fs.vol.Root() }

// FSName implements vfs.FileSystem.
func (fs *FS) FSName() string { return "hpfs" }

// Caps implements vfs.FileSystem.
func (fs *FS) Caps() vfs.Capabilities {
	return vfs.Capabilities{
		MaxNameLen:    MaxName,
		CaseSensitive: false,
		PreservesCase: true,
		HasEAs:        true,
		LongNames:     true,
	}
}

// Sync implements vfs.FileSystem (write-through format).
func (fs *FS) Sync() error { return nil }
