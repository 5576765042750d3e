// Package jfs implements a JFS-like physical file system: long
// case-sensitive names (the AIX flavour), extended attributes, extent
// allocation, and — its defining feature — a metadata write-ahead
// journal.  Metadata updates (inodes, allocation bitmap, directory data)
// are staged in memory, committed to an on-disk journal as a unit, then
// written home and checkpointed; Mount replays any committed-but-not-
// checkpointed journal, so a crash between commit and checkpoint loses
// nothing.
package jfs

import (
	"encoding/binary"
	"errors"

	"repro/internal/vfs"
)

const (
	sectorSize = 512
	magic      = 0x4A465331 // "JFS1"
	maxExtents = 14
	// MaxName is the longest file name.
	MaxName = 254
	maxEA   = 8
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
	if err := dev.WriteSectors(0, sb); err != nil {
		return err
	}
	zero := make([]byte, sectorSize)
	for s := inodeStart; s < dataStart; s++ {
		if err := dev.WriteSectors(s, zero); err != nil {
			return err
		}
	}
	// Root inode (index 0), written directly: Format is not journaled.
	root := inode{used: true, dir: true}
	buf := root.encode()
	return dev.WriteSectors(inodeStart, buf)
}

// FS is a mounted JFS volume.
type FS struct {
	dev vfs.BlockDev

	inodeStart   uint64
	inodeCount   uint64
	journalStart uint64
	journalSecs  uint64
	bitmapStart  uint64
	dataStart    uint64
	total        uint64

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
	if fs.dev != nil && fs.dev != vfs.DeadDev {
		return vfs.ErrMountBusy
	}
	sb := make([]byte, sectorSize)
	if err := dev.ReadSectors(0, sb); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(sb[0:4]) != magic {
		return ErrNotFormatted
	}
	fs.inodeStart = uint64(binary.LittleEndian.Uint32(sb[4:8]))
	fs.inodeCount = uint64(binary.LittleEndian.Uint32(sb[8:12]))
	fs.journalStart = uint64(binary.LittleEndian.Uint32(sb[12:16]))
	fs.journalSecs = uint64(binary.LittleEndian.Uint32(sb[16:20]))
	fs.bitmapStart = uint64(binary.LittleEndian.Uint32(sb[20:24]))
	fs.dataStart = uint64(binary.LittleEndian.Uint32(sb[24:28]))
	fs.total = dev.Sectors()
	fs.pending = make(map[uint64][]byte)
	fs.dev = dev
	return fs.replay()
}

// Unmount implements vfs.FileSystem: commit the journal, then detach.
func (fs *FS) Unmount() error {
	if fs.dev == nil {
		return vfs.ErrNotMounted
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	fs.dev = vfs.DeadDev
	return nil
}

var _ vfs.FileSystem = (*FS)(nil)

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Vnode { return &node{fs: fs, idx: 0} }

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

// metaRead reads a metadata sector through the overlay.
func (fs *FS) metaRead(sector uint64) ([]byte, error) {
	if b, ok := fs.pending[sector]; ok {
		return append([]byte(nil), b...), nil
	}
	b := make([]byte, sectorSize)
	if err := fs.dev.ReadSectors(sector, b); err != nil {
		return nil, err
	}
	return b, nil
}

// dropPending discards a staged metadata write for a sector that has been
// freed.  Without this, freeing a journaled sector (directory data, via
// Remove or truncData) leaves its stale content in the overlay; if the
// sector is then reallocated for plain file data — which is written home
// directly, not journaled — the next sync's home-write pass replays the
// stale metadata over the file's freshly acknowledged bytes.
func (fs *FS) dropPending(sector uint64) {
	if _, ok := fs.pending[sector]; !ok {
		return
	}
	delete(fs.pending, sector)
	for i, s := range fs.pendingSq {
		if s == sector {
			fs.pendingSq = append(fs.pendingSq[:i], fs.pendingSq[i+1:]...)
			break
		}
	}
}

// metaWrite stages a metadata sector write in the overlay.
func (fs *FS) metaWrite(sector uint64, b []byte) error {
	if len(fs.pendingSq) >= fs.journalCapacity() {
		// Auto-sync rather than fail: the real system checkpoints
		// under pressure.
		if err := fs.Sync(); err != nil {
			return err
		}
	}
	if _, ok := fs.pending[sector]; !ok {
		fs.pendingSq = append(fs.pendingSq, sector)
	}
	fs.pending[sector] = append([]byte(nil), b...)
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
		if err := fs.dev.WriteSectors(fs.journalStart+1+i, raw[i*sectorSize:(i+1)*sectorSize]); err != nil {
			return err
		}
	}
	// 2. Commit record: the header names the record count.
	hdr := make([]byte, sectorSize)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(fs.pendingSq)))
	binary.LittleEndian.PutUint64(hdr[4:12], fs.seq)
	if err := fs.dev.WriteSectors(fs.journalStart, hdr); err != nil {
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
		if err := fs.dev.WriteSectors(sector, fs.pending[sector]); err != nil {
			return err
		}
	}
	// 4. Checkpoint: clear the header.
	if err := fs.dev.WriteSectors(fs.journalStart, make([]byte, sectorSize)); err != nil {
		return err
	}
	fs.pending = make(map[uint64][]byte)
	fs.pendingSq = nil
	return nil
}

// replay applies a committed journal at mount.
func (fs *FS) replay() error {
	hdr := make([]byte, sectorSize)
	if err := fs.dev.ReadSectors(fs.journalStart, hdr); err != nil {
		return err
	}
	count := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if count == 0 {
		return nil
	}
	raw := make([]byte, (fs.journalSecs-1)*sectorSize)
	for i := uint64(0); i < fs.journalSecs-1; i++ {
		if err := fs.dev.ReadSectors(fs.journalStart+1+i, raw[i*sectorSize:(i+1)*sectorSize]); err != nil {
			return err
		}
	}
	off := 0
	for i := 0; i < count; i++ {
		sector := binary.LittleEndian.Uint64(raw[off+8:])
		if err := fs.dev.WriteSectors(sector, raw[off+16:off+16+sectorSize]); err != nil {
			return err
		}
		off += recSize
	}
	fs.seq = binary.LittleEndian.Uint64(hdr[4:12])
	// Checkpoint.
	return fs.dev.WriteSectors(fs.journalStart, make([]byte, sectorSize))
}

// PendingMetaWrites reports staged-but-uncommitted metadata sectors.
func (fs *FS) PendingMetaWrites() int {
	return len(fs.pendingSq)
}

// --- inode codec (same sector shape as hpfs's fnode) ---------------------------

type extent struct{ start, count uint32 }

type ea struct{ k, v string }

type inode struct {
	used    bool
	dir     bool
	size    uint64
	mtime   uint64
	name    string
	eas     []ea
	extents []extent
}

func (f *inode) encode() []byte {
	b := make([]byte, sectorSize)
	if f.used {
		b[0] = 1
	}
	if f.dir {
		b[1] = 1
	}
	binary.LittleEndian.PutUint64(b[2:10], f.size)
	binary.LittleEndian.PutUint64(b[10:18], f.mtime)
	b[18] = byte(len(f.name))
	copy(b[19:19+len(f.name)], f.name)
	off := 19 + MaxName
	b[off] = byte(len(f.extents))
	off++
	for _, e := range f.extents {
		binary.LittleEndian.PutUint32(b[off:], e.start)
		binary.LittleEndian.PutUint32(b[off+4:], e.count)
		off += 8
	}
	off = 274 + maxExtents*8
	b[off] = byte(len(f.eas))
	off++
	for _, e := range f.eas {
		b[off] = byte(len(e.k))
		off++
		copy(b[off:], e.k)
		off += len(e.k)
		b[off] = byte(len(e.v))
		off++
		copy(b[off:], e.v)
		off += len(e.v)
	}
	return b
}

func decodeInode(b []byte) inode {
	var f inode
	f.used = b[0] == 1
	f.dir = b[1] == 1
	f.size = binary.LittleEndian.Uint64(b[2:10])
	f.mtime = binary.LittleEndian.Uint64(b[10:18])
	n := int(b[18])
	f.name = string(b[19 : 19+n])
	off := 19 + MaxName
	ne := int(b[off])
	off++
	for i := 0; i < ne; i++ {
		f.extents = append(f.extents, extent{
			start: binary.LittleEndian.Uint32(b[off:]),
			count: binary.LittleEndian.Uint32(b[off+4:]),
		})
		off += 8
	}
	off = 274 + maxExtents*8
	na := int(b[off])
	off++
	for i := 0; i < na; i++ {
		kl := int(b[off])
		off++
		k := string(b[off : off+kl])
		off += kl
		vl := int(b[off])
		off++
		v := string(b[off : off+vl])
		off += vl
		f.eas = append(f.eas, ea{k, v})
	}
	return f
}

func (fs *FS) readInode(idx uint32) (inode, error) {
	b, err := fs.metaRead(fs.inodeStart + uint64(idx))
	if err != nil {
		return inode{}, err
	}
	return decodeInode(b), nil
}

func (fs *FS) writeInode(idx uint32, f *inode) error {
	return fs.metaWrite(fs.inodeStart+uint64(idx), f.encode())
}

func (fs *FS) allocInode() (uint32, error) {
	for i := uint32(1); uint64(i) < fs.inodeCount; i++ {
		f, err := fs.readInode(i)
		if err != nil {
			return 0, err
		}
		if !f.used {
			return i, nil
		}
	}
	return 0, ErrInodesFull
}

// --- bitmap (journaled) ---------------------------------------------------------

func (fs *FS) bitmapGet(sector uint64) (bool, error) {
	sec := fs.bitmapStart + sector/(sectorSize*8)
	b, err := fs.metaRead(sec)
	if err != nil {
		return false, err
	}
	i := sector % (sectorSize * 8)
	return b[i/8]&(1<<(i%8)) != 0, nil
}

func (fs *FS) bitmapSet(sector uint64, v bool) error {
	sec := fs.bitmapStart + sector/(sectorSize*8)
	b, err := fs.metaRead(sec)
	if err != nil {
		return err
	}
	i := sector % (sectorSize * 8)
	if v {
		b[i/8] |= 1 << (i % 8)
	} else {
		b[i/8] &^= 1 << (i % 8)
	}
	return fs.metaWrite(sec, b)
}

func (fs *FS) allocRun(n uint64) (uint64, error) {
	run := uint64(0)
	runStart := fs.dataStart
	for s := fs.dataStart; s < fs.total; s++ {
		used, err := fs.bitmapGet(s)
		if err != nil {
			return 0, err
		}
		if used {
			run = 0
			runStart = s + 1
			continue
		}
		run++
		if run == n {
			for x := runStart; x <= s; x++ {
				if err := fs.bitmapSet(x, true); err != nil {
					return 0, err
				}
			}
			return runStart, nil
		}
	}
	return 0, vfs.ErrNoSpace
}

// --- extent data path -------------------------------------------------------------

func (f *inode) sectorFor(idx uint64) (uint64, bool) {
	for _, e := range f.extents {
		if idx < uint64(e.count) {
			return uint64(e.start) + idx, true
		}
		idx -= uint64(e.count)
	}
	return 0, false
}

func (f *inode) sectors() uint64 {
	var n uint64
	for _, e := range f.extents {
		n += uint64(e.count)
	}
	return n
}

func (fs *FS) ensureCapacity(f *inode, want uint64) error {
	have := f.sectors()
	if have >= want {
		return nil
	}
	need := want - have
	if len(f.extents) > 0 {
		last := &f.extents[len(f.extents)-1]
		nextSec := uint64(last.start) + uint64(last.count)
		for need > 0 && nextSec < fs.total {
			used, err := fs.bitmapGet(nextSec)
			if err != nil {
				return err
			}
			if used {
				break
			}
			if err := fs.bitmapSet(nextSec, true); err != nil {
				return err
			}
			last.count++
			nextSec++
			need--
		}
	}
	if need == 0 {
		return nil
	}
	if len(f.extents) >= maxExtents {
		return ErrFragmented
	}
	start, err := fs.allocRun(need)
	if err != nil {
		return err
	}
	f.extents = append(f.extents, extent{start: uint32(start), count: uint32(need)})
	return nil
}

// readData reads file/directory bytes; dir data goes through the meta
// overlay so journaled directory updates are visible before checkpoint.
func (fs *FS) readData(f *inode, off, n uint64, meta bool) ([]byte, error) {
	if off >= f.size {
		return nil, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	out := make([]byte, 0, n)
	for n > 0 {
		sec, ok := f.sectorFor(off / sectorSize)
		if !ok {
			return nil, vfs.ErrBadOffset
		}
		var buf []byte
		var err error
		if meta {
			buf, err = fs.metaRead(sec)
		} else {
			buf = make([]byte, sectorSize)
			err = fs.dev.ReadSectors(sec, buf)
		}
		if err != nil {
			return nil, err
		}
		within := off % sectorSize
		take := sectorSize - within
		if take > n {
			take = n
		}
		out = append(out, buf[within:within+take]...)
		off += take
		n -= take
	}
	return out, nil
}

func (fs *FS) writeData(f *inode, off uint64, p []byte, meta bool) error {
	end := off + uint64(len(p))
	if err := fs.ensureCapacity(f, (end+sectorSize-1)/sectorSize); err != nil {
		return err
	}
	written := uint64(0)
	for written < uint64(len(p)) {
		cur := off + written
		sec, ok := f.sectorFor(cur / sectorSize)
		if !ok {
			return vfs.ErrBadOffset
		}
		var buf []byte
		var err error
		if meta {
			buf, err = fs.metaRead(sec)
		} else {
			buf = make([]byte, sectorSize)
			err = fs.dev.ReadSectors(sec, buf)
		}
		if err != nil {
			return err
		}
		c := copy(buf[cur%sectorSize:], p[written:])
		if meta {
			err = fs.metaWrite(sec, buf)
		} else {
			err = fs.dev.WriteSectors(sec, buf)
		}
		if err != nil {
			return err
		}
		written += uint64(c)
	}
	if end > f.size {
		f.size = end
	}
	f.mtime++
	return nil
}

func (fs *FS) truncData(f *inode, size uint64) error {
	keep := (size + sectorSize - 1) / sectorSize
	have := f.sectors()
	for have > keep {
		last := &f.extents[len(f.extents)-1]
		s := uint64(last.start) + uint64(last.count) - 1
		if err := fs.bitmapSet(s, false); err != nil {
			return err
		}
		fs.dropPending(s)
		last.count--
		if last.count == 0 {
			f.extents = f.extents[:len(f.extents)-1]
		}
		have--
	}
	f.size = size
	return nil
}
