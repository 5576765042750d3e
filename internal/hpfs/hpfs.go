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
// is an array of child fnode numbers.
package hpfs

import (
	"encoding/binary"
	"errors"
	"strings"

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

	sb := make([]byte, sectorSize)
	binary.LittleEndian.PutUint32(sb[0:4], magic)
	binary.LittleEndian.PutUint32(sb[4:8], uint32(fnodeStart))
	binary.LittleEndian.PutUint32(sb[8:12], uint32(fnodeCount))
	binary.LittleEndian.PutUint32(sb[12:16], uint32(bitmapStart))
	binary.LittleEndian.PutUint32(sb[16:20], uint32(bitmapSecs))
	binary.LittleEndian.PutUint32(sb[20:24], uint32(dataStart))
	if dataStart+8 >= total {
		return vfs.ErrNoSpace
	}
	if err := dev.WriteSectors(0, sb); err != nil {
		return err
	}
	zero := make([]byte, sectorSize)
	for s := fnodeStart; s < dataStart; s++ {
		if err := dev.WriteSectors(s, zero); err != nil {
			return err
		}
	}
	// fnode 0 is the root directory.
	root := fnode{used: true, dir: true, name: ""}
	fs := &FS{dev: dev, fnodeStart: fnodeStart, fnodeCount: fnodeCount,
		bitmapStart: bitmapStart, dataStart: dataStart, total: total}
	return fs.writeFnode(0, &root)
}

// FS is a mounted HPFS volume.
type FS struct {
	dev vfs.BlockDev

	fnodeStart  uint64
	fnodeCount  uint64
	bitmapStart uint64
	dataStart   uint64
	total       uint64
}

// New returns an unmounted HPFS volume; attach it with Mount.
func New() *FS { return &FS{} }

// Mount implements vfs.FileSystem: read the superblock.
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
	fs.fnodeStart = uint64(binary.LittleEndian.Uint32(sb[4:8]))
	fs.fnodeCount = uint64(binary.LittleEndian.Uint32(sb[8:12]))
	fs.bitmapStart = uint64(binary.LittleEndian.Uint32(sb[12:16]))
	fs.dataStart = uint64(binary.LittleEndian.Uint32(sb[20:24]))
	fs.total = dev.Sectors()
	fs.dev = dev
	return nil
}

// Unmount implements vfs.FileSystem (writes are synchronous, nothing to
// flush).
func (fs *FS) Unmount() error {
	if fs.dev == nil {
		return vfs.ErrNotMounted
	}
	fs.dev = vfs.DeadDev
	return nil
}

var _ vfs.FileSystem = (*FS)(nil)

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Vnode { return &node{fs: fs, idx: 0} }

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

// --- fnode codec -------------------------------------------------------------

type extent struct {
	start uint32
	count uint32
}

type ea struct{ k, v string }

type fnode struct {
	used    bool
	dir     bool
	size    uint64
	mtime   uint64
	name    string
	eas     []ea
	extents []extent
}

func (f *fnode) encode() []byte {
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
	off := 19 + MaxName // 273
	b[off] = byte(len(f.extents))
	off++
	for _, e := range f.extents {
		binary.LittleEndian.PutUint32(b[off:], e.start)
		binary.LittleEndian.PutUint32(b[off+4:], e.count)
		off += 8
	}
	off = 274 + maxExtents*8 // 386
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

func decodeFnode(b []byte) fnode {
	var f fnode
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

func (fs *FS) readFnode(idx uint32) (fnode, error) {
	b := make([]byte, sectorSize)
	if err := fs.dev.ReadSectors(fs.fnodeStart+uint64(idx), b); err != nil {
		return fnode{}, err
	}
	return decodeFnode(b), nil
}

func (fs *FS) writeFnode(idx uint32, f *fnode) error {
	return fs.dev.WriteSectors(fs.fnodeStart+uint64(idx), f.encode())
}

func (fs *FS) allocFnode() (uint32, error) {
	for i := uint32(1); uint64(i) < fs.fnodeCount; i++ {
		f, err := fs.readFnode(i)
		if err != nil {
			return 0, err
		}
		if !f.used {
			return i, nil
		}
	}
	return 0, ErrFnodesFull
}

// --- bitmap allocation --------------------------------------------------------

func (fs *FS) bitmapGet(sector uint64) (bool, error) {
	bit := sector
	sec := fs.bitmapStart + bit/(sectorSize*8)
	b := make([]byte, sectorSize)
	if err := fs.dev.ReadSectors(sec, b); err != nil {
		return false, err
	}
	i := bit % (sectorSize * 8)
	return b[i/8]&(1<<(i%8)) != 0, nil
}

func (fs *FS) bitmapSet(sector uint64, v bool) error {
	bit := sector
	sec := fs.bitmapStart + bit/(sectorSize*8)
	b := make([]byte, sectorSize)
	if err := fs.dev.ReadSectors(sec, b); err != nil {
		return err
	}
	i := bit % (sectorSize * 8)
	if v {
		b[i/8] |= 1 << (i % 8)
	} else {
		b[i/8] &^= 1 << (i % 8)
	}
	return fs.dev.WriteSectors(sec, b)
}

// allocRun finds n contiguous free data sectors, preferring after hint.
func (fs *FS) allocRun(n uint64, hint uint64) (uint64, error) {
	start := hint
	if start < fs.dataStart {
		start = fs.dataStart
	}
	for pass := 0; pass < 2; pass++ {
		run := uint64(0)
		runStart := start
		for s := start; s < fs.total; s++ {
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
		start = fs.dataStart
	}
	return 0, vfs.ErrNoSpace
}

// --- vnode ---------------------------------------------------------------------

type node struct {
	fs  *FS
	idx uint32
}

var _ vfs.Vnode = (*node)(nil)

// Attr implements vfs.Vnode.
func (n *node) Attr() (vfs.Attr, error) {
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return vfs.Attr{}, err
	}
	a := vfs.Attr{Size: int64(f.size), Dir: f.dir, ModTime: f.mtime}
	if len(f.eas) > 0 {
		a.EAs = make(map[string]string, len(f.eas))
		for _, e := range f.eas {
			a.EAs[e.k] = e.v
		}
	}
	return a, nil
}

// children reads a directory's child fnode indexes.
func (fs *FS) children(f *fnode) ([]uint32, error) {
	data, err := fs.readData(f, 0, f.size)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		out = append(out, binary.LittleEndian.Uint32(data[i:]))
	}
	return out, nil
}

// Lookup implements vfs.Vnode with case-insensitive, case-preserving
// matching.
func (n *node) Lookup(name string) (vfs.Vnode, error) {
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	kids, err := n.fs.children(&f)
	if err != nil {
		return nil, err
	}
	want := strings.ToLower(name)
	for _, k := range kids {
		cf, err := n.fs.readFnode(k)
		if err != nil {
			return nil, err
		}
		if cf.used && strings.ToLower(cf.name) == want {
			return &node{fs: n.fs, idx: k}, nil
		}
	}
	return nil, vfs.ErrNotFound
}

// Create implements vfs.Vnode.
func (n *node) Create(name string, dir bool) (vfs.Vnode, error) {
	if name == "" || len(name) > MaxName || strings.ContainsRune(name, '/') {
		if len(name) > MaxName {
			return nil, vfs.ErrNameTooLong
		}
		return nil, vfs.ErrBadName
	}
	if _, err := n.Lookup(name); err == nil {
		return nil, vfs.ErrExists
	}
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	idx, err := n.fs.allocFnode()
	if err != nil {
		return nil, err
	}
	nf := fnode{used: true, dir: dir, name: name}
	if err := n.fs.writeFnode(idx, &nf); err != nil {
		return nil, err
	}
	// Append to the directory data.
	var rec [4]byte
	binary.LittleEndian.PutUint32(rec[:], idx)
	if err := n.fs.writeData(&f, f.size, rec[:]); err != nil {
		return nil, err
	}
	if err := n.fs.writeFnode(n.idx, &f); err != nil {
		return nil, err
	}
	return &node{fs: n.fs, idx: idx}, nil
}

// Remove implements vfs.Vnode.
func (n *node) Remove(name string) error {
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	cn := child.(*node)
	cf, err := n.fs.readFnode(cn.idx)
	if err != nil {
		return err
	}
	if cf.dir && cf.size > 0 {
		kids, err := n.fs.children(&cf)
		if err != nil {
			return err
		}
		for _, k := range kids {
			kf, err := n.fs.readFnode(k)
			if err != nil {
				return err
			}
			if kf.used {
				return vfs.ErrNotEmpty
			}
		}
	}
	// Free data sectors.
	for _, e := range cf.extents {
		for s := uint64(e.start); s < uint64(e.start)+uint64(e.count); s++ {
			if err := n.fs.bitmapSet(s, false); err != nil {
				return err
			}
		}
	}
	cf.used = false
	cf.extents = nil
	cf.eas = nil
	cf.size = 0
	if err := n.fs.writeFnode(cn.idx, &cf); err != nil {
		return err
	}
	// Rewrite the parent directory without this child.
	pf, err := n.fs.readFnode(n.idx)
	if err != nil {
		return err
	}
	kids, err := n.fs.children(&pf)
	if err != nil {
		return err
	}
	var buf []byte
	for _, k := range kids {
		if k == cn.idx {
			continue
		}
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], k)
		buf = append(buf, rec[:]...)
	}
	if err := n.fs.truncData(&pf, 0); err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := n.fs.writeData(&pf, 0, buf); err != nil {
			return err
		}
	}
	return n.fs.writeFnode(n.idx, &pf)
}

// --- extent data path -----------------------------------------------------------

// readData reads [off, off+n) from the fnode's extents.
func (fs *FS) readData(f *fnode, off, n uint64) ([]byte, error) {
	if off >= f.size {
		return nil, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	out := make([]byte, 0, n)
	buf := make([]byte, sectorSize)
	for n > 0 {
		sec, ok := f.sectorFor(off / sectorSize)
		if !ok {
			return nil, vfs.ErrBadOffset
		}
		if err := fs.dev.ReadSectors(sec, buf); err != nil {
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

// sectorFor maps a file sector index into the extent list.
func (f *fnode) sectorFor(idx uint64) (uint64, bool) {
	for _, e := range f.extents {
		if idx < uint64(e.count) {
			return uint64(e.start) + idx, true
		}
		idx -= uint64(e.count)
	}
	return 0, false
}

// sectors counts allocated sectors.
func (f *fnode) sectors() uint64 {
	var n uint64
	for _, e := range f.extents {
		n += uint64(e.count)
	}
	return n
}

// ensureCapacity grows the extent list to cover sectors [0, want).
func (fs *FS) ensureCapacity(f *fnode, want uint64) error {
	have := f.sectors()
	if have >= want {
		return nil
	}
	need := want - have
	// Try to extend the last extent in place.
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
	start, err := fs.allocRun(need, 0)
	if err != nil {
		return err
	}
	f.extents = append(f.extents, extent{start: uint32(start), count: uint32(need)})
	return nil
}

// writeData writes p at off, growing the file.
func (fs *FS) writeData(f *fnode, off uint64, p []byte) error {
	end := off + uint64(len(p))
	if err := fs.ensureCapacity(f, (end+sectorSize-1)/sectorSize); err != nil {
		return err
	}
	buf := make([]byte, sectorSize)
	written := uint64(0)
	for written < uint64(len(p)) {
		cur := off + written
		sec, ok := f.sectorFor(cur / sectorSize)
		if !ok {
			return vfs.ErrBadOffset
		}
		if err := fs.dev.ReadSectors(sec, buf); err != nil {
			return err
		}
		within := cur % sectorSize
		c := copy(buf[within:], p[written:])
		if err := fs.dev.WriteSectors(sec, buf); err != nil {
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

// truncData shrinks the fnode to size bytes, freeing whole sectors.
func (fs *FS) truncData(f *fnode, size uint64) error {
	keep := (size + sectorSize - 1) / sectorSize
	have := f.sectors()
	for have > keep {
		last := &f.extents[len(f.extents)-1]
		s := uint64(last.start) + uint64(last.count) - 1
		if err := fs.bitmapSet(s, false); err != nil {
			return err
		}
		last.count--
		if last.count == 0 {
			f.extents = f.extents[:len(f.extents)-1]
		}
		have--
	}
	f.size = size
	return nil
}

// ReadAt implements vfs.Vnode.
func (n *node) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return 0, err
	}
	if f.dir {
		return 0, vfs.ErrIsDir
	}
	data, err := n.fs.readData(&f, uint64(off), uint64(len(p)))
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

// WriteAt implements vfs.Vnode.
func (n *node) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return 0, err
	}
	if f.dir {
		return 0, vfs.ErrIsDir
	}
	if err := n.fs.writeData(&f, uint64(off), p); err != nil {
		return 0, err
	}
	if err := n.fs.writeFnode(n.idx, &f); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate implements vfs.Vnode.
func (n *node) Truncate(size int64) error {
	if size < 0 {
		return vfs.ErrBadOffset
	}
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return err
	}
	if f.dir {
		return vfs.ErrIsDir
	}
	if uint64(size) < f.size {
		if err := n.fs.truncData(&f, uint64(size)); err != nil {
			return err
		}
	} else {
		f.size = uint64(size)
		if err := n.fs.ensureCapacity(&f, (f.size+sectorSize-1)/sectorSize); err != nil {
			return err
		}
	}
	return n.fs.writeFnode(n.idx, &f)
}

// ReadDir implements vfs.Vnode.
func (n *node) ReadDir() ([]vfs.DirEnt, error) {
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	kids, err := n.fs.children(&f)
	if err != nil {
		return nil, err
	}
	var out []vfs.DirEnt
	for _, k := range kids {
		cf, err := n.fs.readFnode(k)
		if err != nil {
			return nil, err
		}
		if cf.used {
			out = append(out, vfs.DirEnt{Name: cf.name, Dir: cf.dir, Size: int64(cf.size)})
		}
	}
	return out, nil
}

// eaAreaBytes is the room left in the fnode sector for EAs.
const eaAreaBytes = sectorSize - (274 + maxExtents*8) - 1

func eaSize(eas []ea) int {
	n := 0
	for _, e := range eas {
		n += 2 + len(e.k) + len(e.v)
	}
	return n
}

// SetEA implements vfs.Vnode.  The fnode sector bounds the EA area, a
// genuine format limit like the real HPFS's 64 KiB EA cap.
func (n *node) SetEA(key, value string) error {
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return err
	}
	updated := append([]ea(nil), f.eas...)
	found := false
	for i := range updated {
		if updated[i].k == key {
			updated[i].v = value
			found = true
			break
		}
	}
	if !found {
		if len(updated) >= maxEA {
			return ErrTooManyEAs
		}
		updated = append(updated, ea{key, value})
	}
	if eaSize(updated) > eaAreaBytes {
		return ErrTooManyEAs
	}
	f.eas = updated
	return n.fs.writeFnode(n.idx, &f)
}

// GetEA implements vfs.Vnode.
func (n *node) GetEA(key string) (string, error) {
	f, err := n.fs.readFnode(n.idx)
	if err != nil {
		return "", err
	}
	for _, e := range f.eas {
		if e.k == key {
			return e.v, nil
		}
	}
	return "", vfs.ErrNotFound
}
