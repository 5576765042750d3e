package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/mach"
)

// Codec robustness tests live in vfs/wire; this file covers the pieces
// that need the server: error-sentinel mapping, wire compatibility of
// old-style messages against the live server, and hostile-input
// survival.

func TestFromWireMapsAllSentinels(t *testing.T) {
	for _, e := range wireErrors {
		if fromWire(e.Error()) != e {
			t.Fatalf("sentinel %v lost", e)
		}
	}
	if fromWire("random junk").Error() != "random junk" {
		t.Fatal("unknown error mangled")
	}
}

func TestProfileStrings(t *testing.T) {
	if ProfileOS2.String() != "OS/2" || ProfileUNIX.String() != "UNIX" ||
		ProfileTalOS.String() != "TalOS" || Profile(99).String() != "?" {
		t.Fatal("profile strings")
	}
}

// TestOldClientAgainstNewServer hand-rolls request bodies with the
// pre-wire ad-hoc layouts (legacy pack/u64/u32 framing, data out of
// line, no regions, no batches) and speaks them straight at a
// redesigned server.  Every reply must decode with the legacy rules:
// the single-op wire format is frozen.
func TestOldClientAgainstNewServer(t *testing.T) {
	_, _, c := newServerRig(t)
	th := c.th

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
	u64 := func(v uint64) []byte { b := make([]byte, 8); binary.LittleEndian.PutUint64(b, v); return b }
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.LittleEndian.PutUint32(b, v); return b }

	// Old-style open: pack(profile, write, create, path).
	reply, err := th.Call(c.ctrl, &mach.Message{
		ID:   MsgOpen,
		Body: legacyPack([]byte{byte(ProfileOS2)}, []byte{1}, []byte{1}, []byte("/legacy.dat")),
	}, mach.CallOpts{})
	if err != nil || reply.ID != 0 {
		t.Fatalf("legacy open failed: %v %v", err, reply)
	}
	if len(reply.Rights) != 1 {
		t.Fatalf("legacy open got no file port: %+v", reply)
	}
	fport := reply.Rights[0].Name

	// Old-style write: u64 off body, data out of line.
	payload := []byte("written by a pre-wire client")
	reply, err = th.Call(fport, &mach.Message{ID: MsgWrite, Body: u64(0), OOL: payload}, mach.CallOpts{})
	if err != nil || reply.ID != 0 {
		t.Fatalf("legacy write failed: %v %v", err, reply)
	}
	if got := binary.LittleEndian.Uint32(reply.Body); int(got) != len(payload) {
		t.Fatalf("legacy write count: %d != %d", got, len(payload))
	}

	// Old-style read: u64 off + u32 len; reply data must be out of line
	// (a zero-copy-off server never sends regions).
	reply, err = th.Call(fport, &mach.Message{
		ID:   MsgRead,
		Body: append(u64(0), u32(uint32(len(payload)))...),
	}, mach.CallOpts{})
	if err != nil || reply.ID != 0 {
		t.Fatalf("legacy read failed: %v %v", err, reply)
	}
	if len(reply.Regions) != 0 {
		t.Fatal("features-off server sent a region to a legacy client")
	}
	n := binary.LittleEndian.Uint32(reply.Body)
	if !bytes.Equal(reply.OOL[:n], payload) {
		t.Fatalf("legacy read returned %q", reply.OOL[:n])
	}

	// Old-style fstat reply decodes with the legacy fixed layout.
	reply, err = th.Call(fport, &mach.Message{ID: MsgFStat}, mach.CallOpts{})
	if err != nil || reply.ID != 0 {
		t.Fatalf("legacy fstat failed: %v %v", err, reply)
	}
	if len(reply.Body) < 17 {
		t.Fatalf("legacy fstat body too short: %d", len(reply.Body))
	}
	if sz := binary.LittleEndian.Uint64(reply.Body[0:8]); int(sz) != len(payload) {
		t.Fatalf("legacy fstat size: %d", sz)
	}

	// Old-style close.
	if reply, err = th.Call(fport, &mach.Message{ID: MsgClose}, mach.CallOpts{}); err != nil || reply.ID != 0 {
		t.Fatalf("legacy close failed: %v %v", err, reply)
	}
}

// TestServerSurvivesMalformedRequests: raw hostile messages to the
// control and file ports must produce error replies, never kill the
// server task.
func TestServerSurvivesMalformedRequests(t *testing.T) {
	k, srv, c := newServerRig(t)
	_, _ = k, srv
	// Get a real file port to attack.
	f, err := c.Open("/victim", true, true)
	if err != nil {
		t.Fatal(err)
	}
	attack := func(port mach.PortName, id mach.MsgID, body []byte) {
		reply, err := c.th.Call(port, &mach.Message{ID: id, Body: body}, mach.CallOpts{})
		if err != nil {
			t.Fatalf("RPC died (server crashed?): %v", err)
		}
		if reply.ID == 0 && id != MsgSync && id != MsgReadDir && id != MsgStat && id != MsgRemove {
			t.Fatalf("malformed %v accepted", id)
		}
	}
	for _, id := range []mach.MsgID{MsgOpen, MsgMkdir, MsgRename, MsgSetEA, MsgGetEA} {
		attack(c.ctrl, id, nil)
		attack(c.ctrl, id, []byte{1, 2})
	}
	for _, id := range []mach.MsgID{MsgRead, MsgWrite, MsgTruncate} {
		attack(f.port, id, nil)
		attack(f.port, id, []byte{1})
	}
	// The retired private batch messages — readv and writev on the file
	// port, statbatch on the control port — get ErrUnsupported: a batch
	// is a CallV carrier of single ops now.
	for _, r := range []struct {
		port mach.PortName
		id   mach.MsgID
	}{{f.port, 0x0F0E}, {f.port, 0x0F0F}, {c.ctrl, 0x0F10}} {
		for _, body := range [][]byte{nil, {1, 2}} {
			if _, err := c.callMsg(r.port, &mach.Message{ID: r.id, Body: body}); !errors.Is(err, ErrUnsupported) {
				t.Fatalf("retired %#x answered %v, want %v", r.id, err, ErrUnsupported)
			}
		}
	}
	// The server still works afterwards.
	if _, err := f.WriteAt([]byte("alive"), 0); err != nil {
		t.Fatalf("server wedged after attack: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
