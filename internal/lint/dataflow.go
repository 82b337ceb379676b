package lint

// This file is the forward-dataflow half of the v2 engine: a worklist
// fixpoint over CFG blocks with dense bit-vector facts. Analyzers
// instantiate the engine with their own gen/kill semantics (spanflow
// tracks "span started, End not yet seen"); the fixpoint loop and the
// meet discipline live here once.

// bitset is a dense bit vector over fact indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) clear(i int)    { s[i/64] &^= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s bitset) copy() bitset {
	t := make(bitset, len(s))
	copy(t, s)
	return t
}

// unionWith ors t into s, reporting whether s changed.
func (s bitset) unionWith(t bitset) bool {
	changed := false
	for i := range s {
		if next := s[i] | t[i]; next != s[i] {
			s[i] = next
			changed = true
		}
	}
	return changed
}

func (s bitset) equal(t bitset) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// flowProblem is one forward may-analysis: facts merge by union at join
// points and transfer block-locally. (spanflow wants may semantics — "a
// span may still be open"; a must variant would intersect instead and
// nothing here needs one.)
type flowProblem struct {
	// nbits is the fact-space size.
	nbits int
	// boundary is the fact set live at function entry.
	boundary bitset
	// transfer maps a block's entry facts to its exit facts. It must not
	// mutate in; return a fresh or copied set.
	transfer func(b *Block, in bitset) bitset
}

// forward runs the worklist fixpoint and returns each block's entry and
// exit fact sets.
func (c *CFG) forward(p flowProblem) (in, out map[*Block]bitset) {
	in = make(map[*Block]bitset, len(c.Blocks))
	out = make(map[*Block]bitset, len(c.Blocks))
	preds := make(map[*Block][]*Block, len(c.Blocks))
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
		in[blk] = newBitset(p.nbits)
		out[blk] = newBitset(p.nbits)
	}
	in[c.Entry] = p.boundary.copy()

	work := make([]*Block, len(c.Blocks))
	copy(work, c.Blocks)
	queued := make(map[*Block]bool, len(c.Blocks))
	for _, blk := range work {
		queued[blk] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		entry := in[blk]
		if blk != c.Entry {
			entry = newBitset(p.nbits)
			for _, pr := range preds[blk] {
				entry.unionWith(out[pr])
			}
			in[blk] = entry
		}
		exit := p.transfer(blk, entry)
		if exit.equal(out[blk]) {
			continue
		}
		out[blk] = exit
		for _, s := range blk.Succs {
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in, out
}
