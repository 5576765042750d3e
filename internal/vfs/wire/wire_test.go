package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// Robustness: hostile or truncated bytes must fail cleanly, never panic.

func TestUnpackRejectsTruncation(t *testing.T) {
	good := Pack([]byte("abc"), []byte("defg"))
	if f, ok := Unpack(good, 2); !ok || string(f[0]) != "abc" || string(f[1]) != "defg" {
		t.Fatalf("good unpack failed: %v %v", f, ok)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, ok := Unpack(good[:cut], 2); ok {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Length field claiming more bytes than present.
	bogus := []byte{0xFF, 0xFF, 0xFF, 0x7F, 'x'}
	if _, ok := Unpack(bogus, 1); ok {
		t.Fatal("oversized length accepted")
	}
}

func TestDecodeAttrShort(t *testing.T) {
	if _, ok := DecodeAttr([]byte{1, 2, 3}); ok {
		t.Fatal("short attr accepted")
	}
	a := Attr{Size: 123, Dir: true, ModTime: 9}
	got, ok := DecodeAttr(EncodeAttr(a))
	if !ok || got.Size != 123 || !got.Dir || got.ModTime != 9 {
		t.Fatalf("round trip: %+v %v", got, ok)
	}
}

func TestDecodeDirEntsGarbage(t *testing.T) {
	if _, ok := DecodeDirEnts(nil); ok {
		t.Fatal("nil accepted")
	}
	if _, ok := DecodeDirEnts([]byte{9, 0, 0, 0}); ok {
		t.Fatal("count without entries accepted")
	}
	ents := []DirEnt{{Name: "a", Dir: true, Size: 5}, {Name: "bb", Size: 99}}
	got, ok := DecodeDirEnts(EncodeDirEnts(ents))
	if !ok || len(got) != 2 || got[0].Name != "a" || !got[0].Dir || got[1].Size != 99 {
		t.Fatalf("round trip: %+v %v", got, ok)
	}
}

// Property: the dirent codec round-trips arbitrary entries, and no
// decoder panics on arbitrary byte soup.
func TestPropertyDirEntCodec(t *testing.T) {
	roundTrip := func(names []string, sizes []int64) bool {
		var ents []DirEnt
		for i, n := range names {
			if i >= 12 {
				break
			}
			var sz int64
			if i < len(sizes) && sizes[i] >= 0 {
				sz = sizes[i]
			}
			ents = append(ents, DirEnt{Name: n, Dir: i%2 == 0, Size: sz})
		}
		got, ok := DecodeDirEnts(EncodeDirEnts(ents))
		if !ok || len(got) != len(ents) {
			return false
		}
		for i := range ents {
			if got[i] != ents[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	noPanic := func(soup []byte) bool {
		DecodeDirEnts(soup)
		DecodeAttr(soup)
		Unpack(soup, 3)
		DecodeOpenReq(soup)
		DecodeReadReq(soup)
		DecodeWriteReq(soup)
		DecodeTruncateReq(soup)
		DecodeMkdirReq(soup)
		DecodeRenameReq(soup)
		DecodeSetEAReq(soup)
		DecodeGetEAReq(soup)
		return true
	}
	if err := quick.Check(noPanic, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Round trips for every typed request.
func TestRequestRoundTrips(t *testing.T) {
	if r, ok := DecodeOpenReq(OpenReq{Profile: 2, Write: true, Create: true, Path: "/a/b"}.Encode()); !ok ||
		r.Profile != 2 || !r.Write || !r.Create || r.Path != "/a/b" {
		t.Fatalf("open: %+v %v", r, ok)
	}
	if r, ok := DecodeReadReq(ReadReq{Off: 1 << 40, Len: 77}.Encode()); !ok || r.Off != 1<<40 || r.Len != 77 {
		t.Fatalf("read: %+v %v", r, ok)
	}
	if r, ok := DecodeWriteReq(WriteReq{Off: -1}.Encode()); !ok || r.Off != -1 {
		t.Fatalf("write: %+v %v", r, ok)
	}
	if r, ok := DecodeTruncateReq(TruncateReq{Size: 9}.Encode()); !ok || r.Size != 9 {
		t.Fatalf("truncate: %+v %v", r, ok)
	}
	if r, ok := DecodeMkdirReq(MkdirReq{Profile: 1, Path: "/d"}.Encode()); !ok || r.Profile != 1 || r.Path != "/d" {
		t.Fatalf("mkdir: %+v %v", r, ok)
	}
	if r, ok := DecodeRenameReq(RenameReq{Profile: 3, From: "/x", To: "/y"}.Encode()); !ok ||
		r.Profile != 3 || r.From != "/x" || r.To != "/y" {
		t.Fatalf("rename: %+v %v", r, ok)
	}
	if r, ok := DecodeSetEAReq(SetEAReq{Profile: 1, Path: "/p", Key: "k", Value: "v"}.Encode()); !ok ||
		r.Path != "/p" || r.Key != "k" || r.Value != "v" {
		t.Fatalf("setea: %+v %v", r, ok)
	}
	if r, ok := DecodeGetEAReq(GetEAReq{Path: "/p", Key: "k"}.Encode()); !ok || r.Path != "/p" || r.Key != "k" {
		t.Fatalf("getea: %+v %v", r, ok)
	}
}

// Wire compatibility: the typed codec must emit byte-for-byte what the
// old hand-rolled encoding emitted, so old single-op messages still
// decode against a new server and vice versa.  The expected bytes are
// hand-built here with the legacy layout rules.
func TestLegacyLayoutsPinned(t *testing.T) {
	legacyPack := func(fields ...[]byte) []byte {
		var out []byte
		for _, f := range fields {
			var l [4]byte
			binary.LittleEndian.PutUint32(l[:], uint32(len(f)))
			out = append(out, l[:]...)
			out = append(out, f...)
		}
		return out
	}
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.LittleEndian.PutUint32(b, v); return b }
	u64 := func(v uint64) []byte { b := make([]byte, 8); binary.LittleEndian.PutUint64(b, v); return b }

	open := OpenReq{Profile: 1, Write: true, Create: false, Path: "/f"}.Encode()
	if want := legacyPack([]byte{1}, []byte{1}, []byte{0}, []byte("/f")); !bytes.Equal(open, want) {
		t.Fatalf("open layout drifted:\n got %x\nwant %x", open, want)
	}
	read := ReadReq{Off: 4096, Len: 512}.Encode()
	if want := append(u64(4096), u32(512)...); !bytes.Equal(read, want) {
		t.Fatalf("read layout drifted:\n got %x\nwant %x", read, want)
	}
	write := WriteReq{Off: 8192}.Encode()
	if want := u64(8192); !bytes.Equal(write, want) {
		t.Fatalf("write layout drifted:\n got %x\nwant %x", write, want)
	}
	rename := RenameReq{Profile: 2, From: "/a", To: "/b"}.Encode()
	if want := legacyPack([]byte{2}, []byte("/a"), []byte("/b")); !bytes.Equal(rename, want) {
		t.Fatalf("rename layout drifted:\n got %x\nwant %x", rename, want)
	}
	attr := EncodeAttr(Attr{Size: 300, Dir: true, ModTime: 12})
	want := append(append(u64(300), 1), u64(12)...)
	if !bytes.Equal(attr, want) {
		t.Fatalf("attr layout drifted:\n got %x\nwant %x", attr, want)
	}
	ents := EncodeDirEnts([]DirEnt{{Name: "x", Size: 2}})
	wantEnts := append(u32(1), legacyPack([]byte("x"), []byte{0}, u64(2))...)
	if !bytes.Equal(ents, wantEnts) {
		t.Fatalf("dirent layout drifted:\n got %x\nwant %x", ents, wantEnts)
	}
}
