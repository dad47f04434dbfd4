package schedule

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"weak"
)

// tupleGroups partitions a knob batch by offload tuple (WO, GO, OO, AO):
// order lists the batch's entry indices group by group — groups in
// first-appearance order, members in batch order — and group g spans
// order[starts[g]:starts[g+1]]. first[c][g] is the first group whose
// tuple agrees with group g's on every ratio region class c reads
// (regionClasses): g itself, or an earlier group whose overlap terms of
// that class priceGroups copies.
type tupleGroups struct {
	order  []int32
	starts []int32
	first  [sharedRegions][]int32
}

// Batch is an immutable, order-preserving knob batch prepared for pricing
// under many shapes: validated and partitioned by offload tuple once, when
// it is built, instead of on every call. It is the unit the analyzer's
// row store keeps a row of per canonical shape (rows.go). The tuner's
// batches are the process's knob grids (KnobGrid), one per (layer count,
// checkpoint counts, swept ratios), shared by every tuner of every
// analyzer; a stage's layer window is priced as a list of them
// (Rows.EvaluateSets). Every entry is priced, duplicates included.
type Batch struct {
	knobs  []Knobs
	groups tupleGroups
	err    error // the first invalid entry's error, returned by every evaluation
}

// NewBatch copies ks into a prepared batch.
func NewBatch(ks []Knobs) *Batch { return prepare(append([]Knobs(nil), ks...)) }

// groupers holds prepare's partition scratch. A batch keeps only its
// tupleGroups, copied out of the grouper into one exactly sized buffer;
// the open-addressing table and the per-entry group ids serve the next
// batch.
var groupers = sync.Pool{New: func() any { return new(grouper) }}

// prepare validates and partitions ks, which the batch then owns.
func prepare(ks []Knobs) *Batch {
	g := groupers.Get().(*grouper)
	defer groupers.Put(g)
	if err := g.build(ks); err != nil {
		return &Batch{knobs: ks, err: err}
	}
	return &Batch{knobs: ks, groups: g.tupleGroups.clone()}
}

// Knobs returns the batch's entries in order; callers must not mutate
// them.
func (b *Batch) Knobs() []Knobs { return b.knobs }

// Len reports the number of entries.
func (b *Batch) Len() int { return len(b.knobs) }

// offloadRatios is the value grid of every swept offload ratio.
var offloadRatios = [...]float64{0, 0.5, 1}

// KnobGrid returns the knob grid of one layer count: each checkpoint count
// of ckpts (ascending, distinct), crossed ckpt-major with every offload
// tuple whose WO, GO, OO and AO take the values {0, ½, 1} where sweep is
// set and 0 elsewhere. The grid depends on its arguments alone, nothing
// the analyzer holds, so it is the process's (grids): built on first use,
// and every later call with the same arguments, on any analyzer, returns
// the same *Batch while some caller still holds it. An analyzer's rows
// are keyed by the grid and hold it, so a priced grid lives as long as
// the analyzer.
func (a *Analyzer) KnobGrid(layers int, ckpts []int, sweep [4]bool) *Batch {
	var buf [32]byte // the key, on the stack: a hit allocates nothing
	key := gridKey(buf[:0], layers, ckpts, sweep)
	gridMu.Lock()
	defer gridMu.Unlock()
	if b := grids[string(key)].Value(); b != nil {
		return b
	}
	b := newKnobGrid(layers, ckpts, sweep)
	k := string(key)
	grids[k] = weak.Make(b)
	runtime.AddCleanup(b, dropGrid, k) // captures the key only: b stays collectable
	return b
}

// gridKey appends KnobGrid's arguments, encoded, to dst.
func gridKey(dst []byte, layers int, ckpts []int, sweep [4]bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(layers))
	mask := byte(0)
	for i, on := range sweep {
		if on {
			mask |= 1 << i
		}
	}
	dst = append(dst, mask)
	for _, c := range ckpts {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

func newKnobGrid(layers int, ckpts []int, sweep [4]bool) *Batch {
	var axes [4][]float64
	for i, on := range sweep {
		axes[i] = offloadRatios[:1]
		if on {
			axes[i] = offloadRatios[:]
		}
	}
	ks := make([]Knobs, 0, len(ckpts)*len(axes[0])*len(axes[1])*len(axes[2])*len(axes[3]))
	for _, ck := range ckpts {
		for _, wo := range axes[0] {
			for _, gov := range axes[1] {
				for _, oo := range axes[2] {
					for _, ao := range axes[3] {
						ks = append(ks, Knobs{Layers: layers, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao})
					}
				}
			}
		}
	}
	return prepare(ks)
}

// clone copies tg into one buffer of exactly its length.
func (tg *tupleGroups) clone() tupleGroups {
	n := len(tg.order) + len(tg.starts)
	for _, f := range tg.first {
		n += len(f)
	}
	buf := make([]int32, 0, n)
	take := func(src []int32) []int32 {
		at := len(buf)
		buf = append(buf, src...)
		return buf[at:len(buf):len(buf)]
	}
	out := tupleGroups{order: take(tg.order), starts: take(tg.starts)}
	for c, f := range tg.first {
		out.first[c] = take(f)
	}
	return out
}

// grouper builds tupleGroups, keeping its working buffers so a stream of
// builds allocates nothing once they have grown.
type grouper struct {
	tupleGroups
	slots  []int32 // open-addressing table over tuples: a member's entry index + 1, 0 = empty
	gid    []int32 // group id per entry
	firsts []int32 // backing of first, one stretch of groups entries per class
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
		g.sizeFirst(0)
		return nil
	}
	if n == 1 {
		// One candidate (every baseline space's row): no table to fill.
		g.order[0] = 0
		g.starts = append(g.starts, 0, 1)
		g.sizeFirst(1)
		for c := range g.first {
			g.first[c] = append(g.first[c], 0)
		}
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

	// Pass 3, per shared region class: each group's first match, through
	// the same table over the groups' leads projected onto the class's
	// ratios (a slot holds a group id + 1).
	lead := func(id int32, reads *[4]bool) Knobs { return project(&ks[g.order[g.starts[id]]], reads) }
	g.sizeFirst(len(g.starts) - 1)
	for c := range g.first {
		reads := &regionClasses[c].reads
		clear(g.slots)
		for id := int32(0); id+1 < int32(len(g.starts)); id++ {
			k := lead(id, reads)
			for h := tupleHash(&k) >> shift; ; h = (h + 1) & mask {
				s := g.slots[h]
				if s == 0 {
					g.slots[h] = id + 1
					g.first[c] = append(g.first[c], id)
					break
				}
				if f := lead(s-1, reads); sameTuple(&f, &k) {
					g.first[c] = append(g.first[c], s-1)
					break
				}
			}
		}
	}
	return nil
}

// sizeFirst empties each first slice onto its own stretch of room for
// groups entries, all out of one buffer.
func (g *grouper) sizeFirst(groups int) {
	if cap(g.firsts) < sharedRegions*groups {
		g.firsts = make([]int32, sharedRegions*groups)
	}
	for c := range g.first {
		g.first[c] = g.firsts[c*groups : c*groups : (c+1)*groups]
	}
}

// project keeps the ratios of k that reads marks (wo, go, oo, ao) and
// zeroes the rest: the tuple as a region class sees it.
func project(k *Knobs, reads *[4]bool) Knobs {
	var p Knobs
	if reads[0] {
		p.WO = k.WO
	}
	if reads[1] {
		p.GO = k.GO
	}
	if reads[2] {
		p.OO = k.OO
	}
	if reads[3] {
		p.AO = k.AO
	}
	return p
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
