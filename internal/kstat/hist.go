package kstat

import (
	"math/bits"
	"sync/atomic"
)

// Log-bucketed histogram, HDR-style: each power-of-two range ("octave")
// is split into 2^subBits equal sub-buckets, so the bucket holding a
// value bounds it within a relative error of 1/2^subBits (12.5% with
// subBits = 3); values below 2^subBits get an exact bucket each.
// Recording is one atomic add into the bucket plus count/sum updates;
// snapshots are mergeable and subtractable bucket-wise, which is what
// makes per-interval quantiles (the monitor's delta-since protocol and
// the top view) work.

const (
	subBits    = 3
	subCount   = 1 << subBits // sub-buckets per octave
	numBuckets = subCount + (64-subBits)*subCount
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	// exp is the highest set bit; v lies in [2^exp, 2^(exp+1)).
	exp := bits.Len64(v) - 1
	sub := (v >> (uint(exp) - subBits)) - subCount // top subBits+1 bits, minus the leader
	return int(uint64(exp-subBits+1)*subCount + sub)
}

// BucketUpper returns the inclusive upper bound of bucket i — the value
// reported for any quantile that lands in the bucket.
func BucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	oct := i/subCount - 1 // octave index: values in [2^(oct+subBits), ...)
	sub := uint64(i % subCount)
	return (subCount+sub+1)<<(uint(oct)) - 1
}

// Histogram is a concurrent log-bucketed distribution.  The zero value is
// ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram state.  Buckets are stored sparsely
// (index -> count) so empty octaves cost nothing on the wire.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: map[int]uint64{},
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets[i] = n
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// Merge adds another snapshot's buckets into this one, returning the
// combined distribution; merging parallel recorders is exact.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Buckets: map[int]uint64{}}
	for i, n := range s.Buckets {
		out.Buckets[i] += n
	}
	for i, n := range o.Buckets {
		out.Buckets[i] += n
	}
	return out
}

// Sub subtracts an earlier snapshot, giving the distribution of the
// interval between the two.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum, Buckets: map[int]uint64{}}
	for i, n := range s.Buckets {
		if d := n - prev.Buckets[i]; d > 0 {
			out.Buckets[i] = d
		}
	}
	return out
}

// Mean returns the arithmetic mean of recorded values (exact: Sum/Count).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the bucket upper bound at quantile q in [0, 1]: the
// smallest bucket bound b such that at least q of the recorded values are
// <= b.  The estimate overshoots the true value by at most one sub-bucket
// width — a relative error of 1/2^subBits (12.5%) — and is exact for
// values below 2^subBits.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	// Walk buckets in index order, accumulating counts.
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		n, ok := s.Buckets[i]
		if !ok {
			continue
		}
		cum += n
		if cum > rank {
			return BucketUpper(i)
		}
	}
	return 0
}

// Max returns the upper bound of the highest occupied bucket.
func (s HistSnapshot) Max() uint64 {
	best := -1
	for i := range s.Buckets {
		if i > best {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return BucketUpper(best)
}
