// Package wire is the file server's typed wire codec.  It replaces the
// ad-hoc hand-rolled []byte bodies that grew inside internal/vfs with
// one encode/decode pair per message, while keeping every legacy byte
// layout exactly as it was — an old single-op message produced by a
// pre-wire client decodes byte-for-byte, and the wire-compat tests pin
// that.  The protocol is single-op only: a batch is a mach.Thread.CallV
// carrier of these same messages, so it needs no codec of its own.
//
// Layout conventions, unchanged from the ad-hoc encoding:
//   - integers are little-endian
//   - variable-length fields travel length-prefixed (u32 length + bytes)
//   - fixed-width requests (read, write, truncate) are raw structs with
//     no length prefixes
//   - attributes are a fixed 17-byte record: size u64, dir u8, mtime u64
package wire

import "encoding/binary"

// Pack concatenates fields, each length-prefixed.
func Pack(fields ...[]byte) []byte {
	var out []byte
	for _, f := range fields {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(f)))
		out = append(out, l[:]...)
		out = append(out, f...)
	}
	return out
}

// Unpack splits n length-prefixed fields.  Truncated or lying length
// prefixes fail cleanly.
func Unpack(b []byte, n int) ([][]byte, bool) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, false
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, false
		}
		out = append(out, b[:l])
		b = b[l:]
	}
	return out, true
}

// U32 encodes a little-endian uint32.
func U32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// U64 encodes a little-endian uint64.
func U64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// Attr describes a file.  It lives here (and is aliased by package vfs)
// so both the codec and the file server speak the same type without an
// import cycle.
type Attr struct {
	Size    int64
	Dir     bool
	ModTime uint64 // simulated nanoseconds
	// EA support (HPFS/OS2): extended attributes.  Not carried on the
	// wire — EAs travel through their own messages.
	EAs map[string]string
}

// DirEnt is a directory entry.
type DirEnt struct {
	Name string
	Dir  bool
	Size int64
}

// EncodeAttr emits the fixed 17-byte attribute record.
func EncodeAttr(a Attr) []byte {
	var dir byte
	if a.Dir {
		dir = 1
	}
	out := append(U64(uint64(a.Size)), dir)
	out = append(out, U64(a.ModTime)...)
	return out
}

// DecodeAttr parses the fixed attribute record.
func DecodeAttr(b []byte) (Attr, bool) {
	if len(b) < 17 {
		return Attr{}, false
	}
	return Attr{
		Size:    int64(binary.LittleEndian.Uint64(b[0:8])),
		Dir:     b[8] != 0,
		ModTime: binary.LittleEndian.Uint64(b[9:17]),
	}, true
}

// EncodeDirEnts emits a directory listing: u32 count, then per entry
// Pack(name, dirByte, size).
func EncodeDirEnts(ents []DirEnt) []byte {
	var out []byte
	out = append(out, U32(uint32(len(ents)))...)
	for _, e := range ents {
		var dir byte
		if e.Dir {
			dir = 1
		}
		out = append(out, Pack([]byte(e.Name), []byte{dir}, U64(uint64(e.Size)))...)
	}
	return out
}

// DecodeDirEnts parses a directory listing.
func DecodeDirEnts(b []byte) ([]DirEnt, bool) {
	if len(b) < 4 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Cap the pre-allocation: the count is wire data and must not be
	// trusted to size memory (each entry needs >= 12 bytes anyway).
	capHint := n
	if capHint > uint32(len(b)/12) {
		capHint = uint32(len(b) / 12)
	}
	out := make([]DirEnt, 0, capHint)
	for i := uint32(0); i < n; i++ {
		f, ok := Unpack(b, 3)
		if !ok || len(f[1]) < 1 || len(f[2]) < 8 {
			return nil, false
		}
		consumed := 12 + len(f[0]) + len(f[1]) + len(f[2])
		b = b[consumed:]
		out = append(out, DirEnt{
			Name: string(f[0]),
			Dir:  f[1][0] != 0,
			Size: int64(binary.LittleEndian.Uint64(f[2])),
		})
	}
	return out, true
}

// --- single-op requests (legacy layouts, unchanged) -----------------------

// OpenReq opens a path: Pack(profile, write, create, path).
type OpenReq struct {
	Profile byte
	Write   bool
	Create  bool
	Path    string
}

func (r OpenReq) Encode() []byte {
	var w, cr byte
	if r.Write {
		w = 1
	}
	if r.Create {
		cr = 1
	}
	return Pack([]byte{r.Profile}, []byte{w}, []byte{cr}, []byte(r.Path))
}

func DecodeOpenReq(b []byte) (OpenReq, bool) {
	f, ok := Unpack(b, 4)
	if !ok || len(f[0]) < 1 || len(f[1]) < 1 || len(f[2]) < 1 {
		return OpenReq{}, false
	}
	return OpenReq{
		Profile: f[0][0],
		Write:   f[1][0] != 0,
		Create:  f[2][0] != 0,
		Path:    string(f[3]),
	}, true
}

// ReadReq reads Len bytes at Off: raw u64 off + u32 len.
type ReadReq struct {
	Off int64
	Len uint32
}

func (r ReadReq) Encode() []byte {
	return append(U64(uint64(r.Off)), U32(r.Len)...)
}

func DecodeReadReq(b []byte) (ReadReq, bool) {
	if len(b) < 12 {
		return ReadReq{}, false
	}
	return ReadReq{
		Off: int64(binary.LittleEndian.Uint64(b[0:8])),
		Len: binary.LittleEndian.Uint32(b[8:12]),
	}, true
}

// WriteReq writes the message payload at Off: raw u64 off, data out of
// line (or by region).
type WriteReq struct {
	Off int64
}

func (r WriteReq) Encode() []byte { return U64(uint64(r.Off)) }

func DecodeWriteReq(b []byte) (WriteReq, bool) {
	if len(b) < 8 {
		return WriteReq{}, false
	}
	return WriteReq{Off: int64(binary.LittleEndian.Uint64(b[0:8]))}, true
}

// TruncateReq resizes to Size: raw u64.
type TruncateReq struct {
	Size int64
}

func (r TruncateReq) Encode() []byte { return U64(uint64(r.Size)) }

func DecodeTruncateReq(b []byte) (TruncateReq, bool) {
	if len(b) < 8 {
		return TruncateReq{}, false
	}
	return TruncateReq{Size: int64(binary.LittleEndian.Uint64(b[0:8]))}, true
}

// MkdirReq: Pack(profile, path).
type MkdirReq struct {
	Profile byte
	Path    string
}

func (r MkdirReq) Encode() []byte {
	return Pack([]byte{r.Profile}, []byte(r.Path))
}

func DecodeMkdirReq(b []byte) (MkdirReq, bool) {
	f, ok := Unpack(b, 2)
	if !ok || len(f[0]) < 1 {
		return MkdirReq{}, false
	}
	return MkdirReq{Profile: f[0][0], Path: string(f[1])}, true
}

// RenameReq: Pack(profile, from, to).
type RenameReq struct {
	Profile byte
	From    string
	To      string
}

func (r RenameReq) Encode() []byte {
	return Pack([]byte{r.Profile}, []byte(r.From), []byte(r.To))
}

func DecodeRenameReq(b []byte) (RenameReq, bool) {
	f, ok := Unpack(b, 3)
	if !ok || len(f[0]) < 1 {
		return RenameReq{}, false
	}
	return RenameReq{Profile: f[0][0], From: string(f[1]), To: string(f[2])}, true
}

// SetEAReq: Pack(profile, path, key, value).
type SetEAReq struct {
	Profile byte
	Path    string
	Key     string
	Value   string
}

func (r SetEAReq) Encode() []byte {
	return Pack([]byte{r.Profile}, []byte(r.Path), []byte(r.Key), []byte(r.Value))
}

func DecodeSetEAReq(b []byte) (SetEAReq, bool) {
	f, ok := Unpack(b, 4)
	if !ok || len(f[0]) < 1 {
		return SetEAReq{}, false
	}
	return SetEAReq{Profile: f[0][0], Path: string(f[1]), Key: string(f[2]), Value: string(f[3])}, true
}

// GetEAReq: Pack(path, key).
type GetEAReq struct {
	Path string
	Key  string
}

func (r GetEAReq) Encode() []byte {
	return Pack([]byte(r.Path), []byte(r.Key))
}

func DecodeGetEAReq(b []byte) (GetEAReq, bool) {
	f, ok := Unpack(b, 2)
	if !ok {
		return GetEAReq{}, false
	}
	return GetEAReq{Path: string(f[0]), Key: string(f[1])}, true
}
