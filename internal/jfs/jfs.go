// Package jfs implements a JFS-like physical file system: hpfs's extent
// format (hpfs.Volume: one-sector inodes carrying EAs, extent allocation
// over a sector bitmap) with long case-sensitive names (the AIX flavour)
// and — its defining feature — a metadata write-ahead journal.  Metadata
// updates (inodes, allocation bitmap, directory data) are staged in
// memory, committed to an on-disk journal as a unit, then written home
// and checkpointed; Mount replays any committed-but-not-checkpointed
// journal, so a crash between commit and checkpoint loses nothing.
package jfs

import (
	"encoding/binary"
	"errors"

	"repro/internal/hpfs"
	"repro/internal/vfs"
)

const (
	sectorSize = 512
	magic      = 0x4A465331 // "JFS1"
	// MaxName is the longest file name.
	MaxName = hpfs.MaxName
	// journal record: seq(8) sector(8) payload(512)
	recSize = 16 + sectorSize
)

// Errors specific to the JFS implementation.
var (
	ErrNotFormatted = errors.New("jfs: device is not JFS formatted")
	ErrInodesFull   = errors.New("jfs: inode table exhausted")
	ErrJournalFull  = errors.New("jfs: journal full; sync required")
	ErrTooManyEAs   = errors.New("jfs: EA area full")
	ErrFragmented   = errors.New("jfs: file exceeds extent table")
)

// Format writes an empty JFS volume.
func Format(dev vfs.BlockDev) error {
	total := dev.Sectors()
	if total < 128 {
		return vfs.ErrNoSpace
	}
	inodeStart := uint64(1)
	inodeCount := total / 16
	journalStart := inodeStart + inodeCount
	journalSecs := uint64(64)
	bitmapStart := journalStart + journalSecs
	bitmapSecs := (total + sectorSize*8 - 1) / (sectorSize * 8)
	dataStart := bitmapStart + bitmapSecs
	if dataStart+8 >= total {
		return vfs.ErrNoSpace
	}
	sb := make([]byte, sectorSize)
	binary.LittleEndian.PutUint32(sb[0:4], magic)
	binary.LittleEndian.PutUint32(sb[4:8], uint32(inodeStart))
	binary.LittleEndian.PutUint32(sb[8:12], uint32(inodeCount))
	binary.LittleEndian.PutUint32(sb[12:16], uint32(journalStart))
	binary.LittleEndian.PutUint32(sb[16:20], uint32(journalSecs))
	binary.LittleEndian.PutUint32(sb[20:24], uint32(bitmapStart))
	binary.LittleEndian.PutUint32(sb[24:28], uint32(dataStart))
	// Format is not journaled: the root inode is written directly.
	return hpfs.WriteEmpty(dev, sb, inodeStart, dataStart)
}

// FS is a mounted JFS volume: the extent format, its metadata sectors
// staged in the journal overlay.
type FS struct {
	vol hpfs.Volume

	journalStart uint64
	journalSecs  uint64

	// pending is the in-memory overlay of journaled metadata writes not
	// yet committed; order preserved for replay determinism.
	pending   map[uint64][]byte
	pendingSq []uint64
	seq       uint64

	// FailAfterCommit is a test hook: when set, Sync stops after the
	// journal commit, simulating a crash before home writes.
	FailAfterCommit bool
}

// New returns an unmounted JFS volume; attach it with Mount.
func New() *FS { return &FS{} }

// Mount implements vfs.FileSystem: read the superblock and replay any
// committed journal.
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
	fs.vol = hpfs.Volume{
		Dev: dev, Meta: journal{fs}, Caps: fs.Caps(),
		Errs:        hpfs.Errors{FnodesFull: ErrInodesFull, TooManyEAs: ErrTooManyEAs, Fragmented: ErrFragmented},
		FnodeStart:  uint64(binary.LittleEndian.Uint32(sb[4:8])),
		FnodeCount:  uint64(binary.LittleEndian.Uint32(sb[8:12])),
		BitmapStart: uint64(binary.LittleEndian.Uint32(sb[20:24])),
		DataStart:   uint64(binary.LittleEndian.Uint32(sb[24:28])),
		Total:       dev.Sectors(),
	}
	fs.journalStart = uint64(binary.LittleEndian.Uint32(sb[12:16]))
	fs.journalSecs = uint64(binary.LittleEndian.Uint32(sb[16:20]))
	fs.pending = make(map[uint64][]byte)
	return fs.replay()
}

// Unmount implements vfs.FileSystem: commit the journal, then detach.
func (fs *FS) Unmount() error {
	if fs.vol.Dev == nil {
		return vfs.ErrNotMounted
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	fs.vol.Dev = vfs.DeadDev
	return nil
}

var _ vfs.FileSystem = (*FS)(nil)

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Vnode { return fs.vol.Root() }

// FSName implements vfs.FileSystem.
func (fs *FS) FSName() string { return "jfs" }

// Caps implements vfs.FileSystem.
func (fs *FS) Caps() vfs.Capabilities {
	return vfs.Capabilities{
		MaxNameLen:    MaxName,
		CaseSensitive: true,
		PreservesCase: true,
		HasEAs:        true,
		LongNames:     true,
	}
}

// --- journal ------------------------------------------------------------------

// journalCapacity is the number of records the journal region holds,
// minus the header sector.
func (fs *FS) journalCapacity() int {
	return int((fs.journalSecs - 1) * sectorSize / recSize)
}

// journal is jfs's hpj.Meta: metadata sectors go through the overlay.
type journal struct{ *FS }

// ReadMeta reads a metadata sector through the overlay.
func (j journal) ReadMeta(sector uint64) ([]byte, error) {
	if b, ok := j.pending[sector]; ok {
		return append([]byte(nil), b...), nil
	}
	b := make([]byte, sectorSize)
	if err := j.vol.Dev.ReadSectors(sector, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Freed discards a staged metadata write for a sector that has been
// freed.  Without this, freeing a journaled sector (directory data, via
// Remove or a shrink) leaves its stale content in the overlay; if the
// sector is then reallocated for plain file data — which is written home
// directly, not journaled — the next sync's home-write pass replays the
// stale metadata over the file's freshly acknowledged bytes.
func (j journal) Freed(sector uint64) {
	if _, ok := j.pending[sector]; !ok {
		return
	}
	delete(j.pending, sector)
	for i, s := range j.pendingSq {
		if s == sector {
			j.pendingSq = append(j.pendingSq[:i], j.pendingSq[i+1:]...)
			break
		}
	}
}

// WriteMeta stages a metadata sector write in the overlay.
func (j journal) WriteMeta(sector uint64, b []byte) error {
	if len(j.pendingSq) >= j.journalCapacity() {
		// Auto-sync rather than fail: the real system checkpoints
		// under pressure.
		if err := j.Sync(); err != nil {
			return err
		}
	}
	if _, ok := j.pending[sector]; !ok {
		j.pendingSq = append(j.pendingSq, sector)
	}
	j.pending[sector] = append([]byte(nil), b...)
	return nil
}

// Sync implements vfs.FileSystem: commit the journal, write home, then
// checkpoint.
func (fs *FS) Sync() error {
	if len(fs.pendingSq) == 0 {
		return nil
	}
	// 1. Write journal records.
	raw := make([]byte, (fs.journalSecs-1)*sectorSize)
	off := 0
	for _, sector := range fs.pendingSq {
		fs.seq++
		binary.LittleEndian.PutUint64(raw[off:], fs.seq)
		binary.LittleEndian.PutUint64(raw[off+8:], sector)
		copy(raw[off+16:], fs.pending[sector])
		off += recSize
	}
	for i := uint64(0); i < fs.journalSecs-1; i++ {
		if err := fs.vol.Dev.WriteSectors(fs.journalStart+1+i, raw[i*sectorSize:(i+1)*sectorSize]); err != nil {
			return err
		}
	}
	// 2. Commit record: the header names the record count.
	hdr := make([]byte, sectorSize)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(fs.pendingSq)))
	binary.LittleEndian.PutUint64(hdr[4:12], fs.seq)
	if err := fs.vol.Dev.WriteSectors(fs.journalStart, hdr); err != nil {
		return err
	}
	if fs.FailAfterCommit {
		// Simulated crash: home locations never updated; overlay lost.
		fs.pending = make(map[uint64][]byte)
		fs.pendingSq = nil
		return nil
	}
	// 3. Home writes.
	for _, sector := range fs.pendingSq {
		if err := fs.vol.Dev.WriteSectors(sector, fs.pending[sector]); err != nil {
			return err
		}
	}
	// 4. Checkpoint: clear the header.
	if err := fs.vol.Dev.WriteSectors(fs.journalStart, make([]byte, sectorSize)); err != nil {
		return err
	}
	fs.pending = make(map[uint64][]byte)
	fs.pendingSq = nil
	return nil
}

// replay applies a committed journal at mount.
func (fs *FS) replay() error {
	hdr := make([]byte, sectorSize)
	if err := fs.vol.Dev.ReadSectors(fs.journalStart, hdr); err != nil {
		return err
	}
	count := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if count == 0 {
		return nil
	}
	raw := make([]byte, (fs.journalSecs-1)*sectorSize)
	for i := uint64(0); i < fs.journalSecs-1; i++ {
		if err := fs.vol.Dev.ReadSectors(fs.journalStart+1+i, raw[i*sectorSize:(i+1)*sectorSize]); err != nil {
			return err
		}
	}
	off := 0
	for i := 0; i < count; i++ {
		sector := binary.LittleEndian.Uint64(raw[off+8:])
		if err := fs.vol.Dev.WriteSectors(sector, raw[off+16:off+16+sectorSize]); err != nil {
			return err
		}
		off += recSize
	}
	fs.seq = binary.LittleEndian.Uint64(hdr[4:12])
	// Checkpoint.
	return fs.vol.Dev.WriteSectors(fs.journalStart, make([]byte, sectorSize))
}

// PendingMetaWrites reports staged-but-uncommitted metadata sectors.
func (fs *FS) PendingMetaWrites() int {
	return len(fs.pendingSq)
}
