// Package fat implements a FAT16-style physical file system on a block
// device: a boot sector, a cluster allocation table, a fixed root
// directory and chained subdirectories of 32-byte entries with 8.3
// upper-case names.
//
// FAT is the paper's worked example of the data-format problem: "the old
// FAT format used by OS/2 ... supports only 8 character file names
// followed by a '.' followed by 3 character extensions.  There was no
// good way to jam long file names into the OS/2 FAT file format without
// generating an incompatibility."  This implementation enforces exactly
// that constraint surface (experiment E8).
package fat

import (
	"encoding/binary"
	"errors"
	"strings"

	"repro/internal/vfs"
)

// Geometry constants.
const (
	sectorSize  = 512
	dirEntSize  = 32
	entsPerSec  = sectorSize / dirEntSize
	eocMark     = 0xFFFF
	freeMark    = 0x0000
	attrDir     = 0x10
	nameDeleted = 0xE5
	maxFileSize = 1 << 31
	rootDirSecs = 8          // 128 root entries
	fatMagic    = 0x46415431 // "FAT1"
)

// Errors specific to the FAT implementation.
var (
	ErrNotFormatted = errors.New("fat: device is not FAT formatted")
	ErrCorrupt      = errors.New("fat: on-disk structure corrupt")
	ErrDirFull      = errors.New("fat: directory full")
)

// Format writes an empty FAT file system onto the device.
func Format(dev vfs.BlockDev) error {
	total := dev.Sectors()
	if total < 32 {
		return vfs.ErrNoSpace
	}
	// 16-bit entries: 256 per sector.  Reserve enough FAT sectors for
	// every data sector to be a cluster.
	fatSecs := (total + 255) / 256
	boot := make([]byte, sectorSize)
	binary.LittleEndian.PutUint32(boot[0:4], fatMagic)
	binary.LittleEndian.PutUint32(boot[4:8], uint32(1))        // fat start
	binary.LittleEndian.PutUint32(boot[8:12], uint32(fatSecs)) // fat sectors
	rootStart := 1 + fatSecs
	binary.LittleEndian.PutUint32(boot[12:16], uint32(rootStart))
	dataStart := rootStart + rootDirSecs
	binary.LittleEndian.PutUint32(boot[16:20], uint32(dataStart))
	if dataStart+1 >= total {
		return vfs.ErrNoSpace
	}
	clusters := total - dataStart
	binary.LittleEndian.PutUint32(boot[20:24], uint32(clusters))
	if err := dev.WriteSectors(0, boot); err != nil {
		return err
	}
	zero := make([]byte, sectorSize)
	for s := uint64(1); s < dataStart; s++ {
		if err := dev.WriteSectors(s, zero); err != nil {
			return err
		}
	}
	return nil
}

// FS is a mounted FAT file system.
type FS struct {
	dev vfs.BlockDev

	fatStart  uint64
	fatSecs   uint64
	rootStart uint64
	dataStart uint64
	clusters  uint64

	fat []uint16 // cached allocation table, written through
}

// New returns an unmounted FAT volume; attach it with Mount.
func New() *FS { return &FS{} }

// Mount implements vfs.FileSystem: read the boot sector and load the
// allocation table.
func (fs *FS) Mount(dev vfs.BlockDev) error {
	if fs.dev != nil && fs.dev != vfs.DeadDev {
		return vfs.ErrMountBusy
	}
	boot := make([]byte, sectorSize)
	if err := dev.ReadSectors(0, boot); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(boot[0:4]) != fatMagic {
		return ErrNotFormatted
	}
	fs.fatStart = uint64(binary.LittleEndian.Uint32(boot[4:8]))
	fs.fatSecs = uint64(binary.LittleEndian.Uint32(boot[8:12]))
	fs.rootStart = uint64(binary.LittleEndian.Uint32(boot[12:16]))
	fs.dataStart = uint64(binary.LittleEndian.Uint32(boot[16:20]))
	fs.clusters = uint64(binary.LittleEndian.Uint32(boot[20:24]))
	// Load the FAT.
	raw := make([]byte, fs.fatSecs*sectorSize)
	for s := uint64(0); s < fs.fatSecs; s++ {
		if err := dev.ReadSectors(fs.fatStart+s, raw[s*sectorSize:(s+1)*sectorSize]); err != nil {
			return err
		}
	}
	fs.fat = make([]uint16, fs.clusters)
	for i := range fs.fat {
		fs.fat[i] = binary.LittleEndian.Uint16(raw[i*2 : i*2+2])
	}
	fs.dev = dev
	return nil
}

// Unmount implements vfs.FileSystem (the FAT is written through, so
// there is nothing to flush).
func (fs *FS) Unmount() error {
	if fs.dev == nil {
		return vfs.ErrNotMounted
	}
	fs.dev = vfs.DeadDev
	return nil
}

var _ vfs.FileSystem = (*FS)(nil)

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Vnode {
	return &node{fs: fs, dir: true, isRoot: true}
}

// FSName implements vfs.FileSystem.
func (fs *FS) FSName() string { return "fat" }

// Caps implements vfs.FileSystem: 8.3, case-folding, no EAs.
func (fs *FS) Caps() vfs.Capabilities {
	return vfs.Capabilities{
		MaxNameLen:    12, // 8 + '.' + 3
		CaseSensitive: false,
		PreservesCase: false,
		HasEAs:        false,
		LongNames:     false,
	}
}

// Sync implements vfs.FileSystem (the FAT is written through already).
func (fs *FS) Sync() error { return nil }

// FreeClusters reports unallocated clusters.
func (fs *FS) FreeClusters() int {
	n := 0
	for _, e := range fs.fat {
		if e == freeMark {
			n++
		}
	}
	return n
}

// --- allocation table ------------------------------------------------------

func (fs *FS) allocCluster() (uint16, error) {
	for i := uint64(1); i < fs.clusters; i++ { // cluster 0 reserved
		if fs.fat[i] == freeMark {
			fs.fat[i] = eocMark
			if err := fs.writeFATEntry(i); err != nil {
				return 0, err
			}
			// Zero the new cluster.
			if err := fs.dev.WriteSectors(fs.dataStart+i, make([]byte, sectorSize)); err != nil {
				return 0, err
			}
			return uint16(i), nil
		}
	}
	return 0, vfs.ErrNoSpace
}

func (fs *FS) writeFATEntry(i uint64) error {
	sec := fs.fatStart + i/256
	buf := make([]byte, sectorSize)
	if err := fs.dev.ReadSectors(sec, buf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(buf[(i%256)*2:], fs.fat[i])
	return fs.dev.WriteSectors(sec, buf)
}

func (fs *FS) freeChain(first uint16) error {
	c := first
	for c != 0 && c != eocMark {
		next := fs.fat[c]
		fs.fat[c] = freeMark
		if err := fs.writeFATEntry(uint64(c)); err != nil {
			return err
		}
		c = next
	}
	return nil
}

// chainSector returns the device sector of the idx-th cluster in the
// chain starting at first, extending the chain if extend is set.
func (fs *FS) chainSector(first *uint16, idx uint64, extend bool) (uint64, error) {
	if *first == 0 {
		if !extend {
			return 0, vfs.ErrBadOffset
		}
		c, err := fs.allocCluster()
		if err != nil {
			return 0, err
		}
		*first = c
	}
	c := *first
	for i := uint64(0); i < idx; i++ {
		next := fs.fat[c]
		if next == eocMark {
			if !extend {
				return 0, vfs.ErrBadOffset
			}
			nc, err := fs.allocCluster()
			if err != nil {
				return 0, err
			}
			fs.fat[c] = nc
			if err := fs.writeFATEntry(uint64(c)); err != nil {
				return 0, err
			}
			next = nc
		}
		c = next
		if c == 0 {
			return 0, ErrCorrupt
		}
	}
	return fs.dataStart + uint64(c), nil
}

// --- 8.3 names ---------------------------------------------------------------

// EncodeName folds a name to the on-disk 8.3 form, enforcing the format's
// limits.  This is exported so the experiments can show exactly where the
// incompatibility arises.
func EncodeName(name string) (base [8]byte, ext [3]byte, err error) {
	for i := range base {
		base[i] = ' '
	}
	for i := range ext {
		ext[i] = ' '
	}
	if name == "" || name == "." || name == ".." {
		return base, ext, vfs.ErrBadName
	}
	up := strings.ToUpper(name)
	dot := strings.LastIndexByte(up, '.')
	var b, e string
	if dot < 0 {
		b = up
	} else {
		b, e = up[:dot], up[dot+1:]
		if strings.ContainsRune(b, '.') {
			return base, ext, vfs.ErrBadName
		}
	}
	if len(b) == 0 || len(b) > 8 || len(e) > 3 {
		return base, ext, vfs.ErrNameTooLong
	}
	valid := func(s string) bool {
		for _, r := range s {
			ok := r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
				strings.ContainsRune("_-~!#$%&@", r)
			if !ok {
				return false
			}
		}
		return true
	}
	if !valid(b) || !valid(e) {
		return base, ext, vfs.ErrBadName
	}
	copy(base[:], b)
	copy(ext[:], e)
	return base, ext, nil
}

// decodeName renders the on-disk form back to NAME.EXT.
func decodeName(base [8]byte, ext [3]byte) string {
	b := strings.TrimRight(string(base[:]), " ")
	e := strings.TrimRight(string(ext[:]), " ")
	if e == "" {
		return b
	}
	return b + "." + e
}

// dirent is the in-memory form of a 32-byte directory entry.
type dirent struct {
	base  [8]byte
	ext   [3]byte
	attr  byte
	size  uint32
	first uint16
	mtime uint64
}

func (d *dirent) encode() []byte {
	b := make([]byte, dirEntSize)
	copy(b[0:8], d.base[:])
	copy(b[8:11], d.ext[:])
	b[11] = d.attr
	binary.LittleEndian.PutUint32(b[14:18], d.size)
	binary.LittleEndian.PutUint16(b[18:20], d.first)
	binary.LittleEndian.PutUint64(b[20:28], d.mtime)
	return b
}

func decodeDirent(b []byte) dirent {
	var d dirent
	copy(d.base[:], b[0:8])
	copy(d.ext[:], b[8:11])
	d.attr = b[11]
	d.size = binary.LittleEndian.Uint32(b[14:18])
	d.first = binary.LittleEndian.Uint16(b[18:20])
	d.mtime = binary.LittleEndian.Uint64(b[20:28])
	return d
}

func (d *dirent) used() bool {
	return d.base[0] != 0 && d.base[0] != nameDeleted
}

// --- vnode -------------------------------------------------------------------

// node is a FAT vnode.  Directory entries are re-read from disk on each
// operation (write-through, no caching) so the on-disk format is the
// single source of truth.
type node struct {
	fs     *FS
	dir    bool
	isRoot bool
	// Location of this node's directory entry (not for the root).
	parentFirst uint16 // 0 for root-directory parent
	entSector   uint64
	entOffset   int
}

var _ vfs.Vnode = (*node)(nil)

// loadEnt re-reads the node's directory entry.
func (n *node) loadEnt() (dirent, error) {
	buf := make([]byte, sectorSize)
	if err := n.fs.dev.ReadSectors(n.entSector, buf); err != nil {
		return dirent{}, err
	}
	return decodeDirent(buf[n.entOffset : n.entOffset+dirEntSize]), nil
}

func (n *node) storeEnt(d dirent) error {
	buf := make([]byte, sectorSize)
	if err := n.fs.dev.ReadSectors(n.entSector, buf); err != nil {
		return err
	}
	copy(buf[n.entOffset:n.entOffset+dirEntSize], d.encode())
	return n.fs.dev.WriteSectors(n.entSector, buf)
}

// dirSectors iterates the sectors of this directory.
func (n *node) dirSectors(extend bool) ([]uint64, *dirent, error) {
	if n.isRoot {
		secs := make([]uint64, rootDirSecs)
		for i := range secs {
			secs[i] = n.fs.rootStart + uint64(i)
		}
		return secs, nil, nil
	}
	d, err := n.loadEnt()
	if err != nil {
		return nil, nil, err
	}
	var secs []uint64
	c := d.first
	for c != 0 && c != eocMark {
		secs = append(secs, n.fs.dataStart+uint64(c))
		c = n.fs.fat[c]
	}
	return secs, &d, nil
}

// Attr implements vfs.Vnode.
func (n *node) Attr() (vfs.Attr, error) {
	if n.isRoot {
		return vfs.Attr{Dir: true}, nil
	}
	d, err := n.loadEnt()
	if err != nil {
		return vfs.Attr{}, err
	}
	return vfs.Attr{Size: int64(d.size), Dir: d.attr&attrDir != 0, ModTime: d.mtime}, nil
}

// Lookup implements vfs.Vnode with FAT's case-folding match.
func (n *node) Lookup(name string) (vfs.Vnode, error) {
	if !n.dir {
		return nil, vfs.ErrNotDir
	}
	base, ext, err := EncodeName(name)
	if err != nil {
		return nil, vfs.ErrNotFound
	}
	secs, _, err := n.dirSectors(false)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, sectorSize)
	for _, s := range secs {
		if err := n.fs.dev.ReadSectors(s, buf); err != nil {
			return nil, err
		}
		for i := 0; i < entsPerSec; i++ {
			d := decodeDirent(buf[i*dirEntSize : (i+1)*dirEntSize])
			if d.used() && d.base == base && d.ext == ext {
				return &node{
					fs: n.fs, dir: d.attr&attrDir != 0,
					entSector: s, entOffset: i * dirEntSize,
				}, nil
			}
		}
	}
	return nil, vfs.ErrNotFound
}

// Create implements vfs.Vnode.
func (n *node) Create(name string, dir bool) (vfs.Vnode, error) {
	if !n.dir {
		return nil, vfs.ErrNotDir
	}
	base, ext, err := EncodeName(name)
	if err != nil {
		return nil, err
	}
	if _, lerr := n.Lookup(name); lerr == nil {
		return nil, vfs.ErrExists
	}
	secs, dent, err := n.dirSectors(true)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, sectorSize)
	place := func(s uint64, i int) (vfs.Vnode, error) {
		d := dirent{base: base, ext: ext}
		if dir {
			d.attr = attrDir
		}
		copy(buf[i*dirEntSize:(i+1)*dirEntSize], d.encode())
		if err := n.fs.dev.WriteSectors(s, buf); err != nil {
			return nil, err
		}
		return &node{fs: n.fs, dir: dir, entSector: s, entOffset: i * dirEntSize}, nil
	}
	for _, s := range secs {
		if err := n.fs.dev.ReadSectors(s, buf); err != nil {
			return nil, err
		}
		for i := 0; i < entsPerSec; i++ {
			d := decodeDirent(buf[i*dirEntSize : (i+1)*dirEntSize])
			if !d.used() {
				return place(s, i)
			}
		}
	}
	// Directory full: the fixed root cannot grow; subdirectories can.
	if n.isRoot {
		return nil, ErrDirFull
	}
	c, err := n.fs.allocCluster()
	if err != nil {
		return nil, err
	}
	// Append the cluster to the directory chain.
	last := dent.first
	if last == 0 {
		dent.first = c
		if err := n.storeEnt(*dent); err != nil {
			return nil, err
		}
	} else {
		for n.fs.fat[last] != eocMark {
			last = n.fs.fat[last]
		}
		n.fs.fat[last] = c
		if err := n.fs.writeFATEntry(uint64(last)); err != nil {
			return nil, err
		}
	}
	s := n.fs.dataStart + uint64(c)
	if err := n.fs.dev.ReadSectors(s, buf); err != nil {
		return nil, err
	}
	return place(s, 0)
}

// Remove implements vfs.Vnode.
func (n *node) Remove(name string) error {
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	cn := child.(*node)
	d, err := cn.loadEnt()
	if err != nil {
		return err
	}
	if d.attr&attrDir != 0 {
		// Must be empty.
		secs, _, err := cn.dirSectors(false)
		if err != nil {
			return err
		}
		buf := make([]byte, sectorSize)
		for _, s := range secs {
			if err := n.fs.dev.ReadSectors(s, buf); err != nil {
				return err
			}
			for i := 0; i < entsPerSec; i++ {
				e := decodeDirent(buf[i*dirEntSize : (i+1)*dirEntSize])
				if e.used() {
					return vfs.ErrNotEmpty
				}
			}
		}
	}
	if d.first != 0 {
		if err := n.fs.freeChain(d.first); err != nil {
			return err
		}
	}
	d.base[0] = nameDeleted
	return cn.storeEnt(d)
}

// ReadAt implements vfs.Vnode.
func (n *node) ReadAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	d, err := n.loadEnt()
	if err != nil {
		return 0, err
	}
	if off >= int64(d.size) {
		return 0, nil
	}
	if int64(len(p)) > int64(d.size)-off {
		p = p[:int64(d.size)-off]
	}
	read := 0
	buf := make([]byte, sectorSize)
	for read < len(p) {
		cur := off + int64(read)
		idx := uint64(cur) / sectorSize
		within := int(uint64(cur) % sectorSize)
		s, err := n.fs.chainSector(&d.first, idx, false)
		if err != nil {
			return read, err
		}
		if err := n.fs.dev.ReadSectors(s, buf); err != nil {
			return read, err
		}
		read += copy(p[read:], buf[within:])
	}
	return read, nil
}

// WriteAt implements vfs.Vnode.
func (n *node) WriteAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 || off+int64(len(p)) > maxFileSize {
		return 0, vfs.ErrBadOffset
	}
	d, err := n.loadEnt()
	if err != nil {
		return 0, err
	}
	if off > int64(d.size) {
		if err := n.grow(&d, uint64(off)); err != nil {
			return 0, err
		}
	}
	written := 0
	buf := make([]byte, sectorSize)
	for written < len(p) {
		cur := off + int64(written)
		idx := uint64(cur) / sectorSize
		within := int(uint64(cur) % sectorSize)
		s, err := n.fs.chainSector(&d.first, idx, true)
		if err != nil {
			return written, err
		}
		if err := n.fs.dev.ReadSectors(s, buf); err != nil {
			return written, err
		}
		c := copy(buf[within:], p[written:])
		if err := n.fs.dev.WriteSectors(s, buf); err != nil {
			return written, err
		}
		written += c
	}
	if end := uint32(off) + uint32(len(p)); end > d.size {
		d.size = end
	}
	d.mtime++
	if err := n.storeEnt(d); err != nil {
		return written, err
	}
	return written, nil
}

// Truncate implements vfs.Vnode (grow or shrink; clusters beyond the new
// size are freed).
func (n *node) Truncate(size int64) error {
	if n.dir {
		return vfs.ErrIsDir
	}
	if size < 0 || size > maxFileSize {
		return vfs.ErrBadOffset
	}
	d, err := n.loadEnt()
	if err != nil {
		return err
	}
	if size < int64(d.size) {
		keep := (uint64(size) + sectorSize - 1) / sectorSize
		if keep == 0 {
			if d.first != 0 {
				if err := n.fs.freeChain(d.first); err != nil {
					return err
				}
				d.first = 0
			}
		} else {
			c := d.first
			for i := uint64(1); i < keep; i++ {
				c = n.fs.fat[c]
			}
			if next := n.fs.fat[c]; next != eocMark {
				if err := n.fs.freeChain(next); err != nil {
					return err
				}
				n.fs.fat[c] = eocMark
				if err := n.fs.writeFATEntry(uint64(c)); err != nil {
					return err
				}
			}
		}
	} else if size > int64(d.size) {
		if err := n.grow(&d, uint64(size)); err != nil {
			return err
		}
	}
	d.size = uint32(size)
	return n.storeEnt(d)
}

// grow readies the file to grow from d.size to size bytes that read as
// zeros past the old end: the old last sector's tail, which a shrink
// leaves as it was, is cleared, and the clusters added come zeroed from
// allocCluster.  The caller sets the new size.
func (n *node) grow(d *dirent, size uint64) error {
	if within := d.size % sectorSize; within != 0 {
		s, err := n.fs.chainSector(&d.first, uint64(d.size)/sectorSize, false)
		if err != nil {
			return err
		}
		buf := make([]byte, sectorSize)
		if err := n.fs.dev.ReadSectors(s, buf); err != nil {
			return err
		}
		clear(buf[within:])
		if err := n.fs.dev.WriteSectors(s, buf); err != nil {
			return err
		}
	}
	_, err := n.fs.chainSector(&d.first, (size-1)/sectorSize, true)
	return err
}

// ReadDir implements vfs.Vnode.
func (n *node) ReadDir() ([]vfs.DirEnt, error) {
	if !n.dir {
		return nil, vfs.ErrNotDir
	}
	secs, _, err := n.dirSectors(false)
	if err != nil {
		return nil, err
	}
	var out []vfs.DirEnt
	buf := make([]byte, sectorSize)
	for _, s := range secs {
		if err := n.fs.dev.ReadSectors(s, buf); err != nil {
			return nil, err
		}
		for i := 0; i < entsPerSec; i++ {
			d := decodeDirent(buf[i*dirEntSize : (i+1)*dirEntSize])
			if d.used() {
				out = append(out, vfs.DirEnt{
					Name: decodeName(d.base, d.ext),
					Dir:  d.attr&attrDir != 0,
					Size: int64(d.size),
				})
			}
		}
	}
	return out, nil
}

// SetEA implements vfs.Vnode: FAT has no EA storage.
func (n *node) SetEA(key, value string) error { return vfs.ErrUnsupported }

// GetEA implements vfs.Vnode.
func (n *node) GetEA(key string) (string, error) { return "", vfs.ErrUnsupported }
