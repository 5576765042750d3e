package jfs

import (
	"errors"
	"testing"

	"repro/internal/vfs"
)

// Fault-injection tests: the journal's job is that a failure or crash
// between commit and checkpoint never loses committed metadata.

func TestHomeWriteFailureAfterCommitIsRecoverable(t *testing.T) {
	raw := vfs.NewRAMDisk(8192)
	if err := Format(raw); err != nil {
		t.Fatal(err)
	}
	dev := vfs.NewFaultyDev(raw)
	fs, err := mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Root().Create("committed.txt", false); err != nil {
		t.Fatal(err)
	}
	// Let the journal writes and the commit header through, then fail
	// the home-location writes: journal = journalSecs-1 record sectors
	// + 1 header.
	dev.FailAfter(int(fs.journalSecs), false, true)
	serr := fs.Sync()
	if !errors.Is(serr, vfs.ErrIO) {
		t.Fatalf("sync err = %v, want ErrIO during home writes", serr)
	}
	dev.Heal()
	// Remount the raw device: replay applies the committed transaction.
	fs2, err := mount(raw)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().Lookup("committed.txt"); err != nil {
		t.Fatalf("committed metadata lost after home-write failure: %v", err)
	}
}

func TestJournalWriteFailureLosesNothingOlder(t *testing.T) {
	raw := vfs.NewRAMDisk(8192)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := mount(dev)
	// First transaction lands fully.
	fs.Root().Create("old.txt", false)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Second transaction: journal write itself fails.
	fs.Root().Create("new.txt", false)
	dev.FailAfter(0, false, true)
	if err := fs.Sync(); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("sync err = %v", err)
	}
	dev.Heal()
	fs2, err := mount(raw)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().Lookup("old.txt"); err != nil {
		t.Fatalf("old durable file lost: %v", err)
	}
	// new.txt never committed: it must NOT appear.
	if _, err := fs2.Root().Lookup("new.txt"); err != vfs.ErrNotFound {
		t.Fatalf("uncommitted file state = %v", err)
	}
}
