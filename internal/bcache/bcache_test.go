package bcache_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/kstat"
	"repro/internal/ktrace"
	"repro/internal/vfs"
)

const ss = bcache.SectorSize

// newCache builds a cache on a fresh engine with kstat attached first,
// as boot does: a cache registers its dirty level with the Set attached
// when it is built (kstat.Attach returns that Set).
func newCache(t *testing.T, dev vfs.BlockDev, cfg bcache.Config) (*bcache.Cache, *cpu.Engine) {
	t.Helper()
	eng := cpu.NewEngine(cpu.Pentium133())
	kstat.Attach(eng)
	layout := cpu.NewLayout(0x100000)
	return bcache.New(eng, layout, dev, cfg), eng
}

func sectorData(b byte) []byte { return bytes.Repeat([]byte{b}, ss) }

func TestReadYourWritesAndWriteBehind(t *testing.T) {
	disk := vfs.NewRAMDisk(256)
	c, _ := newCache(t, disk, bcache.Config{CapacitySectors: 64})

	want := sectorData('x')
	if err := c.WriteSectors(7, want); err != nil {
		t.Fatalf("WriteSectors: %v", err)
	}
	got := make([]byte, ss)
	if err := c.ReadSectors(7, got); err != nil {
		t.Fatalf("ReadSectors: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-your-writes violated")
	}
	// Write-behind: the device must not have the data yet...
	raw := make([]byte, ss)
	if err := disk.ReadSectors(7, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, want) {
		t.Fatal("write went straight through; expected write-behind")
	}
	// ...until Sync pushes it.
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := disk.ReadSectors(7, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("Sync did not flush the dirty sector")
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after Sync = %d, want 0", d)
	}
}

func TestDirtyBoundAndEviction(t *testing.T) {
	disk := vfs.NewRAMDisk(1024)
	c, _ := newCache(t, disk, bcache.Config{CapacitySectors: 32, DirtyMax: 8})

	// Far more writes than the dirty bound: write-behind must keep the
	// dirty list at or under the bound after every call.
	for i := uint64(0); i < 200; i++ {
		if err := c.WriteSectors(i, sectorData(byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if d := c.Dirty(); d > 8 {
			t.Fatalf("dirty list %d exceeds bound 8 after write %d", d, i)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Capacity respected and every sector durable despite evictions.
	buf := make([]byte, ss)
	for i := uint64(0); i < 200; i++ {
		if err := disk.ReadSectors(i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorData(byte(i))) {
			t.Fatalf("sector %d corrupted through eviction/write-behind", i)
		}
	}
}

func TestSequentialReadAhead(t *testing.T) {
	inner := vfs.NewRAMDisk(256)
	for i := uint64(0); i < 64; i++ {
		if err := inner.WriteSectors(i, sectorData(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	disk := vfs.NewFaultyDev(inner) // injection off: used as an op counter
	c, eng := newCache(t, disk, bcache.Config{CapacitySectors: 64, ReadAhead: 8})
	st := kstat.Attach(eng)
	defer kstat.Detach(eng)

	buf := make([]byte, ss)
	// First read misses and is not (yet) sequential.
	if err := c.ReadSectors(0, buf); err != nil {
		t.Fatal(err)
	}
	// Second read continues the run: miss plus an 8-sector read-ahead.
	if err := c.ReadSectors(1, buf); err != nil {
		t.Fatal(err)
	}
	if got := st.Counter("bcache.readahead").Value(); got != 8 {
		t.Fatalf("readahead sectors = %d, want 8", got)
	}
	// The prefetched sectors now hit without device traffic.
	reads0, _, _ := disk.Stats()
	for i := uint64(2); i < 10; i++ {
		if err := c.ReadSectors(i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorData(byte(i))) {
			t.Fatalf("sector %d wrong after read-ahead", i)
		}
	}
	if reads1, _, _ := disk.Stats(); reads1 != reads0 {
		t.Fatalf("device reads went %d -> %d; read-ahead hits must not touch the device", reads0, reads1)
	}
	if hits := st.Counter("bcache.hits").Value(); hits < 8 {
		t.Fatalf("hits = %d, want >= 8", hits)
	}
}

func TestReadAheadCountsDeviceReads(t *testing.T) {
	inner := vfs.NewRAMDisk(256)
	for i := uint64(0); i < 64; i++ {
		if err := inner.WriteSectors(i, sectorData(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	disk := vfs.NewFaultyDev(inner) // injection off: used as an op counter
	c, _ := newCache(t, disk, bcache.Config{CapacitySectors: 64, ReadAhead: 8})
	buf := make([]byte, ss)
	for i := uint64(0); i < 16; i++ {
		if err := c.ReadSectors(i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorData(byte(i))) {
			t.Fatalf("sector %d wrong", i)
		}
	}
	reads, _, _ := disk.Stats()
	// 16 sequential single-sector reads with an 8-sector window must need
	// far fewer device requests than the 16 the uncached path issues.
	if reads >= 16 {
		t.Fatalf("device reads = %d; read-ahead failed to batch", reads)
	}
}

func TestFaultyFlushPropagatesAndRetries(t *testing.T) {
	disk := vfs.NewFaultyDev(vfs.NewRAMDisk(256))
	c, _ := newCache(t, disk, bcache.Config{CapacitySectors: 32})

	want := sectorData('z')
	if err := c.WriteSectors(3, want); err != nil {
		t.Fatalf("cached write must succeed before the fault trips: %v", err)
	}
	disk.FailAfter(0, false, true) // every write now fails

	// The flush must surface the injected error, not swallow it.
	if err := c.Sync(); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("Sync = %v, want ErrIO", err)
	}
	// The block stays dirty for retry.
	if d := c.Dirty(); d != 1 {
		t.Fatalf("dirty after failed flush = %d, want 1", d)
	}
	// And the cache still serves the new data.
	got := make([]byte, ss)
	if err := c.ReadSectors(3, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cache lost data on failed flush: %v", err)
	}

	disk.Heal()
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync after Heal: %v", err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after healed flush = %d, want 0", d)
	}
	raw := make([]byte, ss)
	if err := disk.ReadSectors(3, raw); err != nil || !bytes.Equal(raw, want) {
		t.Fatal("healed flush did not write the retried block")
	}
}

func TestMixedWorkloadMatchesReference(t *testing.T) {
	const sectors = 512
	cached := vfs.NewRAMDisk(sectors)
	mirror := vfs.NewRAMDisk(sectors)
	c, _ := newCache(t, cached, bcache.Config{CapacitySectors: 24, DirtyMax: 4, ReadAhead: 4})

	// Deterministic mixed read/write pattern: strided writes, sequential
	// scans, overwrites, multi-sector ops.
	x := uint64(12345)
	next := func(mod uint64) uint64 { x = x*6364136223846793005 + 1442695040888963407; return (x >> 33) % mod }
	for i := 0; i < 2000; i++ {
		s := next(sectors - 4)
		n := 1 + int(next(4))
		data := bytes.Repeat([]byte{byte(next(256))}, n*ss)
		if next(3) == 0 {
			if err := c.WriteSectors(s, data); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			if err := mirror.WriteSectors(s, data); err != nil {
				t.Fatal(err)
			}
		} else {
			a := make([]byte, n*ss)
			b := make([]byte, n*ss)
			if err := c.ReadSectors(s, a); err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			if err := mirror.ReadSectors(s, b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: cached read diverged from reference at sector %d", i, s)
			}
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, ss)
	b := make([]byte, ss)
	for s := uint64(0); s < sectors; s++ {
		if err := cached.ReadSectors(s, a); err != nil {
			t.Fatal(err)
		}
		if err := mirror.ReadSectors(s, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("post-Sync device divergence at sector %d", s)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	disk := vfs.NewRAMDisk(256)
	c, eng := newCache(t, disk, bcache.Config{CapacitySectors: 32})
	st := kstat.Attach(eng)
	defer kstat.Detach(eng)

	buf := sectorData('m')
	if err := c.WriteSectors(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadSectors(1, buf); err != nil { // hit
		t.Fatal(err)
	}
	if err := c.ReadSectors(9, buf); err != nil { // miss
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bcache.hits", "bcache.misses", "bcache.writeback"} {
		if st.Counter(name).Value() == 0 {
			t.Errorf("counter %s never incremented", name)
		}
	}
	if g := st.Snapshot().Gauges["bcache.dirty"]; g != 0 {
		t.Errorf("bcache.dirty = %d after Sync, want 0", g)
	}
}

// Satellite regression (chaos soak): a flush that fails partway, heals,
// and retries must account each dirty sector's writeback exactly once —
// sectors flushed before the fault must not be re-written (and re-counted)
// by the retry, and the published dirty gauge must converge to zero with
// the queue.
func TestFlushFailHealRetryAccountsWritebackOnce(t *testing.T) {
	disk := vfs.NewRAMDisk(256)
	fd := vfs.NewFaultyDev(disk)
	c, eng := newCache(t, fd, bcache.Config{CapacitySectors: 64})
	st := kstat.Attach(eng)
	defer kstat.Detach(eng)

	// Six non-contiguous dirty sectors: six distinct writeback runs.
	sectors := []uint64{2, 4, 6, 8, 10, 12}
	for i, s := range sectors {
		if err := c.WriteSectors(s, sectorData(byte('a'+i))); err != nil {
			t.Fatalf("WriteSectors(%d): %v", s, err)
		}
	}
	if d := c.Dirty(); d != len(sectors) {
		t.Fatalf("dirty = %d, want %d", d, len(sectors))
	}
	wb0 := st.Snapshot().Counters["bcache.writeback"]

	// Two writes succeed, then the device fails.
	fd.FailAfter(2, false, true)
	if err := c.Sync(); err == nil {
		t.Fatal("Sync on faulty device succeeded")
	}
	midWB := st.Snapshot().Counters["bcache.writeback"] - wb0
	if midWB != 2 {
		t.Fatalf("writeback after partial flush = %d, want 2", midWB)
	}
	if d := c.Dirty(); d != len(sectors)-2 {
		t.Fatalf("dirty after partial flush = %d, want %d", d, len(sectors)-2)
	}
	if g := st.Snapshot().Gauges["bcache.dirty"]; g != int64(c.Dirty()) {
		t.Fatalf("dirty gauge = %d, Dirty() = %d", g, c.Dirty())
	}

	// Heal and retry: only the four survivors are written, never the two
	// already flushed.
	fd.Heal()
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync after heal: %v", err)
	}
	total := st.Snapshot().Counters["bcache.writeback"] - wb0
	if total != uint64(len(sectors)) {
		t.Fatalf("total writeback = %d, want %d (double-counted retry?)", total, len(sectors))
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after heal+sync = %d, want 0", d)
	}
	if g := st.Snapshot().Gauges["bcache.dirty"]; g != 0 {
		t.Fatalf("dirty gauge after heal+sync = %d, want 0", g)
	}
	for i, s := range sectors {
		got := make([]byte, ss)
		if err := disk.ReadSectors(s, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sectorData(byte('a'+i))) {
			t.Fatalf("sector %d content lost across fail/heal/retry", s)
		}
	}
}

// looseDev accepts partial-sector writes the way a real driver does —
// read-modify-write on the trailing sector — so tests can exercise the
// cache's unaligned bypass path over a RAMDisk (which itself insists on
// whole sectors).
type looseDev struct{ *vfs.RAMDisk }

func (d looseDev) WriteSectors(sector uint64, data []byte) error {
	n := len(data) / ss
	if len(data)%ss == 0 {
		return d.RAMDisk.WriteSectors(sector, data)
	}
	if n > 0 {
		if err := d.RAMDisk.WriteSectors(sector, data[:n*ss]); err != nil {
			return err
		}
	}
	tail := make([]byte, ss)
	if err := d.RAMDisk.ReadSectors(sector+uint64(n), tail); err != nil {
		return err
	}
	copy(tail, data[n*ss:])
	return d.RAMDisk.WriteSectors(sector+uint64(n), tail)
}

// Satellite regression (chaos soak): an unaligned write invalidates its
// covered cached sectors (dropRange) and goes straight to the device; when
// the dropped sectors were dirty, the published bcache.dirty gauge must
// track the shortened queue immediately, not read stale-high until the
// next flush.
func TestUnalignedWriteRefreshesDirtyGauge(t *testing.T) {
	disk := looseDev{vfs.NewRAMDisk(256)}
	c, eng := newCache(t, disk, bcache.Config{CapacitySectors: 64})
	st := kstat.Attach(eng)
	defer kstat.Detach(eng)

	if err := c.WriteSectors(3, sectorData('x')); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSectors(4, sectorData('y')); err != nil {
		t.Fatal(err)
	}
	if g := st.Snapshot().Gauges["bcache.dirty"]; g != 2 {
		t.Fatalf("dirty gauge = %d, want 2", g)
	}

	// ss+100 bytes at sector 3: covers sectors 3 and 4, not a whole
	// number of sectors, so both cached dirty copies are dropped and the
	// write bypasses the cache.
	if err := c.WriteSectors(3, bytes.Repeat([]byte{'z'}, ss+100)); err != nil {
		t.Fatalf("unaligned WriteSectors: %v", err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("Dirty() after dropRange = %d, want 0", d)
	}
	if g := st.Snapshot().Gauges["bcache.dirty"]; g != 0 {
		t.Fatalf("dirty gauge after dropRange = %d, want 0 (stale gauge)", g)
	}
	if c.Cached(3) || c.Cached(4) {
		t.Fatal("dropped sectors still cached")
	}
	got := make([]byte, ss)
	if err := disk.ReadSectors(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sectorData('z')) {
		t.Fatal("unaligned write did not reach the device")
	}
}

// TestMixedReadRecordsBothOutcomes: a read that both hits and misses
// shows both outcome classes in the trace and in the flight ring.
func TestMixedReadRecordsBothOutcomes(t *testing.T) {
	c, eng := newCache(t, vfs.NewRAMDisk(256), bcache.Config{CapacitySectors: 64, ReadAhead: -1})
	tr := ktrace.Attach(eng)
	fr := kflight.Attach(eng)
	buf := make([]byte, 4*ss)
	if err := c.ReadSectors(10, buf[:2*ss]); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if err := c.ReadSectors(10, buf); err != nil { // 2 hits, 2 misses
		t.Fatal(err)
	}
	outcomes := func(events []cpu.Event) map[string]uint64 {
		m := map[string]uint64{}
		for _, e := range events {
			if e.Type == cpu.EvCache && e.Phase == cpu.PhaseInstant {
				m[e.Name] += e.Arg
			}
		}
		return m
	}
	if got := outcomes(tr.Events()); got["hit"] != 2 || got["miss"] != 2 {
		t.Errorf("trace outcomes %v, want 2 hits and 2 misses", got)
	}
	if got := outcomes(fr.EngineDumps()[0].Events); got["hit"] != 2 || got["miss"] != 4 {
		t.Errorf("flight outcomes %v, want 2 hits and 4 misses over both reads", got)
	}
}
