package schedule

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// tupleGroups partitions a knob batch by offload tuple (WO, GO, OO, AO):
// order lists the batch's entry indices group by group — groups in
// first-appearance order, members in batch order — and group g spans
// order[starts[g]:starts[g+1]].
type tupleGroups struct {
	order  []int32
	starts []int32
}

// Batch is an immutable, order-preserving knob batch prepared for pricing
// under many shapes: one stage shape's whole knob grid, the unit the
// analyzer prices and the evaluation cache stores (evalcache.KnobSet is
// this type). It is validated, deduplicated and partitioned by offload
// tuple once, when it is built, instead of on every EvaluateBatchInto
// call. The tuner builds one per distinct layer count (the knob grid
// depends only on the layer count), reuses it across every (stage,
// shape) sweep, and prices the batches of a stage's layer window
// together (Analyzer.EvaluateSets).
type Batch struct {
	knobs []Knobs
	hash  uint64 // of the ordered content; buckets the cache's set table

	// uniq holds the distinct entries in first-occurrence order and groups
	// their tuple partition; uniqOf[i] is entry i's position in uniq
	// (<= i), nil when every entry is distinct (uniq is then knobs itself).
	// In-set duplicates are priced once.
	uniq   []Knobs
	uniqOf []int32
	groups tupleGroups
	err    error // the first invalid entry's error, returned by every evaluation

	// Memo belongs to the one consumer that keeps per-batch state: the
	// evaluation cache parks the batch's interned content id here, so the
	// memo lives on the (request-scoped) batch, not in the
	// (process-lifetime) cache. The analyzer never reads it.
	Memo atomic.Pointer[BatchMemo]
}

// BatchMemo pairs an Owner's annotation of a batch with the owner, so a
// batch met by a second owner is recognised as not yet annotated.
type BatchMemo struct {
	Owner any
	ID    uint32
}

// NewBatch copies ks into a prepared batch.
func NewBatch(ks []Knobs) *Batch {
	b := &Batch{knobs: append([]Knobs(nil), ks...)}
	mix := func(x uint64) { b.hash = (b.hash ^ x) * 1099511628211 } // FNV-1a over words
	for i := range b.knobs {
		k := &b.knobs[i]
		mix(uint64(k.Layers))
		mix(uint64(k.Ckpt))
		mix(math.Float64bits(k.WO))
		mix(math.Float64bits(k.GO))
		mix(math.Float64bits(k.OO))
		mix(math.Float64bits(k.AO))
	}
	var g grouper
	b.uniq = b.dedup(&g)
	b.err = g.build(b.uniq)
	b.groups = g.tupleGroups
	return b
}

// dedup returns the batch's distinct entries in first-occurrence order
// and fills uniqOf. Entries meet in g's open-addressing table (which build
// then clears and reuses), and the distinct list and its index are
// allocated only once a duplicate has been met: the tuner's grids — every
// request builds its sixteen-odd afresh — have none, and their distinct
// list is knobs itself.
func (b *Batch) dedup(g *grouper) []Knobs {
	n := len(b.knobs)
	uniq := b.knobs
	if n < 2 {
		return uniq
	}
	shift, mask := g.table(n)
	for i := range b.knobs {
		k := &b.knobs[i]
		first := int32(-1) // k's first occurrence, when it is not this one
		for h := knobHash(k) >> shift; ; h = (h + 1) & mask {
			s := g.slots[h]
			if s == 0 {
				g.slots[h] = int32(i) + 1
				break
			}
			if o := &b.knobs[s-1]; o.Layers == k.Layers && o.Ckpt == k.Ckpt && sameTuple(o, k) {
				first = s - 1
				break
			}
		}
		if b.uniqOf == nil {
			if first < 0 {
				continue
			}
			// The first duplicate: every entry before it is distinct.
			b.uniqOf = make([]int32, n)
			for j := range b.uniqOf[:i] {
				b.uniqOf[j] = int32(j)
			}
			uniq = append(make([]Knobs, 0, n-1), b.knobs[:i]...)
		}
		if first < 0 {
			b.uniqOf[i] = int32(len(uniq))
			uniq = append(uniq, *k)
		} else {
			b.uniqOf[i] = b.uniqOf[first]
		}
	}
	return uniq
}

// Knobs returns the batch's entries in order, in-set duplicates
// included; callers must not mutate them.
func (b *Batch) Knobs() []Knobs { return b.knobs }

// Len reports the number of entries (including in-set duplicates).
func (b *Batch) Len() int { return len(b.knobs) }

// Distinct reports the number of distinct entries: what pricing the
// batch under a new shape costs the analyzer.
func (b *Batch) Distinct() int { return len(b.uniq) }

// Hash is a hash of the ordered content (equal content, equal hash).
func (b *Batch) Hash() uint64 { return b.hash }

// grouper builds tupleGroups, keeping its working buffers so a stream of
// builds allocates nothing once they have grown.
type grouper struct {
	tupleGroups
	slots []int32 // open-addressing table over tuples: a member's entry index + 1, 0 = empty
	gid   []int32 // group id per entry
}

// build validates ks and partitions it by offload tuple. Tuples are
// compared by bit pattern, the identity under which every tape
// instruction and interference prediction is a pure function of them.
func (g *grouper) build(ks []Knobs) error {
	n := len(ks)
	for i := range ks {
		if err := ks[i].Validate(); err != nil {
			return err
		}
	}
	if cap(g.order) < n {
		g.order = make([]int32, n)
		g.gid = make([]int32, n)
	}
	g.order, g.gid = g.order[:n], g.gid[:n]
	g.starts = g.starts[:0]
	if n == 0 {
		return nil
	}
	if n == 1 {
		// One candidate (every baseline space's row): no table to fill.
		g.order[0] = 0
		g.starts = append(g.starts, 0, 1)
		return nil
	}

	// Pass 1: assign group ids through the table, counting members in
	// starts[id].
	shift, mask := g.table(n)
	for i := range ks {
		k := &ks[i]
		var id int32
		for h := tupleHash(k) >> shift; ; h = (h + 1) & mask {
			s := g.slots[h]
			if s == 0 {
				g.slots[h] = int32(i) + 1
				id = int32(len(g.starts))
				g.starts = append(g.starts, 0)
				break
			}
			if sameTuple(&ks[s-1], k) {
				id = g.gid[s-1]
				break
			}
		}
		g.gid[i] = id
		g.starts[id]++
	}

	// Pass 2: counts -> start offsets, then a stable counting-sort fill.
	// Filling advances each group's cursor to the next group's start, so
	// shifting the cursors right by one restores the offsets.
	sum := int32(0)
	for id, c := range g.starts {
		g.starts[id] = sum
		sum += c
	}
	for i, id := range g.gid {
		g.order[g.starts[id]] = int32(i)
		g.starts[id]++
	}
	g.starts = append(g.starts, 0)
	copy(g.starts[1:], g.starts)
	g.starts[0] = 0
	return nil
}

// table readies slots as an empty table of the next power of two >= 2n
// (n >= 2) and returns how a 64-bit hash indexes it: the high bits, h >>
// shift, probing on with (h + 1) & mask.
func (g *grouper) table(n int) (shift int, mask uint64) {
	shift = bits.LeadingZeros64(uint64(2*n - 1))
	if size := 1 << (64 - shift); cap(g.slots) < size {
		g.slots = make([]int32, size)
	} else {
		g.slots = g.slots[:size]
		clear(g.slots)
	}
	return shift, uint64(len(g.slots) - 1)
}

func sameTuple(a, b *Knobs) bool {
	return math.Float64bits(a.WO) == math.Float64bits(b.WO) &&
		math.Float64bits(a.GO) == math.Float64bits(b.GO) &&
		math.Float64bits(a.OO) == math.Float64bits(b.OO) &&
		math.Float64bits(a.AO) == math.Float64bits(b.AO)
}

// tupleHash mixes the four ratios' bit patterns; callers take the high
// bits. Grid ratios such as 0, 0.5, 1 differ only in their top twelve
// bits, so each is rotated to its own position before the multiply
// spreads them upward.
func tupleHash(k *Knobs) uint64 {
	h := math.Float64bits(k.WO)
	h = bits.RotateLeft64(h, 13) ^ math.Float64bits(k.GO)
	h = bits.RotateLeft64(h, 13) ^ math.Float64bits(k.OO)
	h = bits.RotateLeft64(h, 13) ^ math.Float64bits(k.AO)
	return h * 0x9E3779B97F4A7C15
}

// knobHash extends tupleHash to the whole entry.
func knobHash(k *Knobs) uint64 {
	return (tupleHash(k) ^ uint64(k.Layers)<<16 ^ uint64(k.Ckpt)) * 0x9E3779B97F4A7C15
}
