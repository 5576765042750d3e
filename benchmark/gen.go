package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/os2"
	"repro/internal/workload"
)

// The seeded file-operation generator behind fileops_read, fileops_write
// and clients_smp.  The seed decides order, files and offsets; the number
// of operations of each kind is fixed by the mix, so two seeds give
// streams of the same composition and modeled cost varies only with
// placement, not with how many writes a seed happened to draw.

type opKind uint8

const (
	readSeq512  opKind = iota // next 512 B at the handle's position
	readSeq4K                 // next page at the handle's position
	readRand512               // seek to a random sector, read it
	write512                  // seek to a random sector, overwrite it
	update100                 // seek to an unaligned offset, write 100 B
	append4K                  // seek to the end, write a page
	churn                     // create, write 1 KiB, close, delete a temp file
	numOpKinds
)

const (
	sector   = 512
	page     = 4096
	churnLen = 1024
)

// fileOp is one generated operation.  off is -1 where the executor
// derives the position (sequential reads, appends).
type fileOp struct {
	kind opKind
	file int
	off  int64
	fill byte // first byte of the written pattern
}

// mix fixes a stream's shape: the volume it runs over, and how many
// operations of each kind every round of a pass issues.  A pass is rounds
// rounds, each shuffled on its own, so the kinds are spread evenly over
// the pass whatever the seed: a flush (a close) comes every round, not
// wherever a shuffle of the whole pass happened to put it.
type mix struct {
	files     int
	fileBytes int
	rounds    int
	count     [numOpKinds]int
}

// rngFor derives the PCG stream of one (workload, client) pair.
func rngFor(seed uint64, workload string, client int) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h+uint64(client)))
}

// dealer hands out 0..n-1 like cards from a shuffled deck, reshuffling
// when the deck runs out: every value comes up equally often, and only
// the order is left to chance.
type dealer struct {
	rng  *rand.Rand
	deck []int
	next int
}

func newDealer(rng *rand.Rand, n int) *dealer {
	d := &dealer{rng: rng, deck: make([]int, n), next: n}
	for i := range d.deck {
		d.deck[i] = i
	}
	return d
}

func (d *dealer) draw() int {
	if d.next == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	d.next++
	return d.deck[d.next-1]
}

// genOps draws one pass's operation list.  Files (per kind of
// operation) and sectors are dealt, not drawn independently, so that
// streams of different seeds touch the volume equally widely.
func genOps(rng *rand.Rand, m mix) []fileOp {
	var ops []fileOp
	for r := 0; r < m.rounds; r++ {
		round := ops[len(ops):]
		for k := opKind(0); k < numOpKinds; k++ {
			for i := 0; i < m.count[k]; i++ {
				round = append(round, fileOp{kind: k})
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		ops = append(ops, round...)
	}
	var files [numOpKinds]*dealer
	for k := range files {
		files[k] = newDealer(rng, m.files)
	}
	sectors := newDealer(rng, m.fileBytes/sector)
	for i := range ops {
		op := &ops[i]
		op.file = files[op.kind].draw()
		op.fill = byte(rng.UintN(256))
		op.off = -1
		switch op.kind {
		case readRand512, write512:
			op.off = int64(sectors.draw()) * sector
		case update100:
			// Never sector-aligned: the file server must read-modify-write.
			op.off = int64(sectors.draw())*sector + 1 + rng.Int64N(sector-100-1)
		}
	}
	return ops
}

// shadow is the benchmark's model of a volume directory: what every file
// must contain if no acknowledged write was lost.
type shadow struct {
	dir   string
	files [][]byte
}

func newShadow(dir string, m mix) *shadow {
	sh := &shadow{dir: dir, files: make([][]byte, m.files)}
	for f := range sh.files {
		sh.files[f] = pattern(make([]byte, m.fileBytes), byte(f*7))
	}
	return sh
}

func (sh *shadow) reset(m mix) {
	for f := range sh.files {
		sh.files[f] = pattern(sh.files[f][:m.fileBytes], byte(f*7))
	}
}

func (sh *shadow) path(f int) string { return fmt.Sprintf("%s/F%02d.DAT", sh.dir, f) }

func pattern(buf []byte, first byte) []byte {
	for i := range buf {
		buf[i] = first + byte(i)
	}
	return buf
}

// populate creates the directory and writes every file's initial
// contents, page by page.
func (sh *shadow) populate(p workload.OS2Process) error {
	if e := p.DosMkdir(sh.dir); e != os2.NoError {
		return fmt.Errorf("mkdir %s: %v", sh.dir, e)
	}
	for f, data := range sh.files {
		h, e := p.DosOpen(sh.path(f), true, true)
		if e != os2.NoError {
			return fmt.Errorf("create %s: %v", sh.path(f), e)
		}
		for off := 0; off < len(data); off += page {
			if _, e := p.DosWrite(h, data[off:min(off+page, len(data))]); e != os2.NoError {
				return fmt.Errorf("populate %s: %v", sh.path(f), e)
			}
		}
		if e := p.DosClose(h); e != os2.NoError {
			return fmt.Errorf("close %s: %v", sh.path(f), e)
		}
	}
	return nil
}

// check counts the outcome of verification: bytes compared against the
// shadow and bytes (or whole calls) that failed.
type check struct {
	attempted, failed int
}

func (c *check) add(o check) { c.attempted += o.attempted; c.failed += o.failed }

// compare checks got against want byte for byte.
func (c *check) compare(got, want []byte) {
	c.attempted += len(want)
	if bytes.Equal(got, want) {
		return
	}
	if len(got) != len(want) {
		c.failed += len(want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			c.failed++
		}
	}
}

// readBack reads every file whole and compares it with the shadow.
func (sh *shadow) readBack(p workload.OS2Process) check {
	var c check
	buf := make([]byte, page)
	for f, want := range sh.files {
		h, e := p.DosOpen(sh.path(f), false, false)
		if e != os2.NoError {
			c.attempted += len(want)
			c.failed += len(want)
			continue
		}
		var got []byte
		for len(got) <= len(want) {
			n, e := p.DosRead(h, buf)
			if e != os2.NoError || n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		p.DosClose(h)
		c.compare(got, want)
	}
	return c
}

// run executes ops through the OS/2 API against p, keeping the shadow in
// step, and checks every read against it.  API errors are counted by the
// caller's wrapper; run only reports data mismatches.
func (sh *shadow) run(p workload.OS2Process, ops []fileOp) check {
	var c check
	handles := make([]uint32, len(sh.files))
	pos := make([]int64, len(sh.files))
	for f := range sh.files {
		handles[f], _ = p.DosOpen(sh.path(f), true, false)
	}
	seek := func(f int, to int64) {
		if pos[f] != to {
			p.DosSetFilePtr(handles[f], to)
			pos[f] = to
		}
	}
	buf := make([]byte, page)
	temps := 0
	for _, op := range ops {
		f, h := op.file, handles[op.file]
		size := int64(len(sh.files[f]))
		switch op.kind {
		case readSeq512, readSeq4K, readRand512:
			n := int64(sector)
			if op.kind == readSeq4K {
				n = page
			}
			switch {
			case op.off >= 0:
				seek(f, op.off)
			case pos[f]+n > size:
				seek(f, 0)
			}
			got, _ := p.DosRead(h, buf[:n])
			c.compare(buf[:got], sh.files[f][pos[f]:pos[f]+n])
			pos[f] += n
		case write512, update100, append4K:
			n, off := int64(sector), op.off
			switch op.kind {
			case update100:
				n = 100
			case append4K:
				n, off = page, size
				sh.files[f] = append(sh.files[f], make([]byte, page)...)
			}
			seek(f, off)
			data := pattern(buf[:n], op.fill)
			p.DosWrite(h, data)
			copy(sh.files[f][off:], data)
			pos[f] += n
		case churn:
			name := fmt.Sprintf("%s/T%03d.TMP", sh.dir, temps)
			temps++
			th, _ := p.DosOpen(name, true, true)
			p.DosWrite(th, pattern(buf[:churnLen], op.fill))
			p.DosClose(th)
			p.DosDelete(name)
		}
	}
	for _, h := range handles {
		p.DosClose(h)
	}
	return c
}
