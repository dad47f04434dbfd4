package schedule

import (
	"math"
	"math/bits"
)

// tupleGroups partitions a knob batch by offload tuple (WO, GO, OO, AO):
// order lists the batch's entry indices group by group — groups in
// first-appearance order, members in batch order — and group g spans
// order[starts[g]:starts[g+1]].
type tupleGroups struct {
	order  []int32
	starts []int32
}

// Batch is an immutable knob batch prepared for pricing under many
// shapes: validated and partitioned by offload tuple once, when it is
// built, instead of on every EvaluateBatchInto call.
type Batch struct {
	knobs  []Knobs
	groups tupleGroups
	err    error // the first invalid entry's error, returned by every evaluation
}

// NewBatch prepares ks, which the batch keeps and the caller must not
// modify afterwards.
func NewBatch(ks []Knobs) *Batch {
	var g grouper
	err := g.build(ks)
	return &Batch{knobs: ks, groups: g.tupleGroups, err: err}
}

// Knobs returns the batch's entries; callers must not mutate them.
func (b *Batch) Knobs() []Knobs { return b.knobs }

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
	shift := bits.LeadingZeros64(uint64(2*n - 1)) // table of the next power of two >= 2n
	if size := 1 << (64 - shift); cap(g.slots) < size {
		g.slots = make([]int32, size)
	} else {
		g.slots = g.slots[:size]
		clear(g.slots)
	}
	mask := uint64(len(g.slots) - 1)
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
