package lineage

// Chunk-cursor access to encoded lineage. This is the backend seam the trace
// kernels share: an encoded rid list is a sequence of self-contained chunks
// (see encoded.go), and a ChunkCursor walks them one at a time exposing
// count, bounds, and expansion — without ever materializing the whole list.
// Three trace strategies build on it:
//
//   - Expansion (EncodedIndex.AppendList): each chunk pre-grows the output
//     by its exact count and fills it with indexed writes — no per-element
//     append, no growth checks in the inner loop.
//   - In-situ trace (TraceInSitu): because chunks are
//     self-contained, the backward trace of a seed set is the byte
//     concatenation of the seeds' chunk bytes. The result stays encoded
//     (EncodedList) and moves ~1–2 bytes per rid instead of decoding and
//     copying 4 — on dense lineage the encoded trace beats the raw one.
//   - In-situ intersection (IntersectEncoded): chunk pairs dispatch on their
//     encodings — range∩range is O(1) overlap arithmetic, bitmap∩bitmap is a
//     byte-wise AND — and only mismatched pairs fall back to expand-and-merge
//     over pooled scratch.

import (
	"encoding/binary"
	"math/bits"

	"smoke/internal/scratch"
)

// Chunk is one parsed chunk of an encoded list.
type Chunk struct {
	Tag   byte
	N     int // element count
	Start Rid // first rid (range/RLE start, bitmap base, first raw/delta element)
	// Payload is the per-kind body: raw = 4·N little-endian rids (including
	// the first), delta = the N-1 zigzag varints after the first value, RLE =
	// the run/gap varint stream, bitmap = the bitmap bytes, range = empty.
	Payload []byte
	// rawRids carries an in-memory list through the Chunk shape (RawCursor);
	// encoded raw chunks use Payload instead.
	rawRids []Rid
}

// ChunkCursor walks the chunks of one list. Implementations exist for the
// encoded byte form (EncCursor) and for raw rid arrays (RawCursor), so trace
// kernels written against the cursor work on either backend.
type ChunkCursor interface {
	// Next parses the next chunk, reporting false at the end of the list.
	Next() (Chunk, bool)
}

// EncCursor is a ChunkCursor over encoded chunk bytes (zero-copy: payloads
// alias the encoded buffer).
type EncCursor struct {
	rest []byte
}

// NewEncCursor returns a cursor over one encoded list's bytes (e.g.
// EncodedIndex.ListBytes or EncodedList.Data).
func NewEncCursor(b []byte) *EncCursor { return &EncCursor{rest: b} }

// Next parses the next chunk. Parsing is O(1) for raw, range, and bitmap
// chunks; delta and RLE payloads are delimited by walking their varints
// (their byte length is not stored).
func (c *EncCursor) Next() (Chunk, bool) {
	b := c.rest
	if len(b) == 0 {
		return Chunk{}, false
	}
	tag := b[0]
	n64, k := binary.Uvarint(b[1:])
	b = b[1+k:]
	n := int(n64)
	ch := Chunk{Tag: tag, N: n}
	switch tag {
	case chunkRaw:
		ch.Start = Rid(binary.LittleEndian.Uint32(b))
		ch.Payload = b[:4*n]
		b = b[4*n:]
	case chunkRange:
		s, k := binary.Uvarint(b)
		ch.Start = Rid(s)
		b = b[k:]
	case chunkDelta:
		u, k := binary.Uvarint(b)
		ch.Start = Rid(unzigzag(u))
		b = b[k:]
		end := 0
		for j := 1; j < n; j++ {
			_, k := binary.Uvarint(b[end:])
			end += k
		}
		ch.Payload = b[:end]
		b = b[end:]
	case chunkRLE:
		s, k := binary.Uvarint(b)
		ch.Start = Rid(s)
		b = b[k:]
		end := 0
		for rem := n; rem > 0; {
			l64, k := binary.Uvarint(b[end:])
			end += k
			rem -= int(l64)
			if rem > 0 {
				_, k := binary.Uvarint(b[end:])
				end += k
			}
		}
		ch.Payload = b[:end]
		b = b[end:]
	case chunkBitmap:
		base, k := binary.Uvarint(b)
		b = b[k:]
		nb, k := binary.Uvarint(b)
		b = b[k:]
		ch.Start = Rid(base)
		ch.Payload = b[:nb]
		b = b[nb:]
	}
	c.rest = b
	return ch, true
}

// RawCursor presents a raw rid array as a single-chunk cursor, so kernels
// written against ChunkCursor run on raw lists too.
type RawCursor struct {
	list []Rid
	done bool
}

// NewRawCursor returns a cursor over a raw rid list.
func NewRawCursor(list []Rid) *RawCursor { return &RawCursor{list: list} }

// Next returns the whole list as one raw-tagged chunk. Empty lists yield no
// chunks.
func (c *RawCursor) Next() (Chunk, bool) {
	if c.done || len(c.list) == 0 {
		return Chunk{}, false
	}
	c.done = true
	return Chunk{Tag: chunkRaw, N: len(c.list), Start: c.list[0], rawRids: c.list}, true
}

// Bounds returns the chunk's exact inclusive rid window when it is knowable
// without full decoding: range chunks by arithmetic, bitmap chunks by
// scanning for the last set byte. ok is false for raw, delta, and RLE
// chunks, whose extent requires decoding. The bounds must be exact — the
// intersection lockstep's advance rule relies on hi being the true last
// element, not an upper bound.
func (ch *Chunk) Bounds() (lo, hi Rid, ok bool) {
	switch ch.Tag {
	case chunkRange:
		return ch.Start, ch.Start + Rid(ch.N) - 1, true
	case chunkBitmap:
		p := ch.Payload
		i := len(p) - 1
		for i >= 0 && p[i] == 0 {
			i--
		}
		if i < 0 {
			return 0, 0, false // all-zero bitmap: no elements
		}
		return ch.Start, ch.Start + Rid(8*i+bits.Len8(p[i])-1), true
	}
	return 0, 0, false
}

// ExpandInto appends the chunk's rids to dst: one exact pre-grow, then
// indexed writes — the no-append decode kernel every expansion path shares.
func (ch *Chunk) ExpandInto(dst []Rid) []Rid {
	n := ch.N
	if n == 0 {
		return dst
	}
	off := len(dst)
	if cap(dst)-off < n {
		dst = append(dst, make([]Rid, n)...)
	} else {
		dst = dst[:off+n]
	}
	out := dst[off : off+n]
	switch ch.Tag {
	case chunkRaw:
		if ch.rawRids != nil {
			copy(out, ch.rawRids)
			break
		}
		p := ch.Payload
		for j := range out {
			out[j] = Rid(binary.LittleEndian.Uint32(p[4*j:]))
		}
	case chunkRange:
		s := ch.Start
		for j := range out {
			out[j] = s + Rid(j)
		}
	case chunkDelta:
		prev := int64(ch.Start)
		out[0] = ch.Start
		p := ch.Payload
		for j := 1; j < n; j++ {
			u, k := binary.Uvarint(p)
			p = p[k:]
			prev += unzigzag(u)
			out[j] = Rid(prev)
		}
	case chunkRLE:
		cur := int64(ch.Start)
		p := ch.Payload
		j := 0
		for j < n {
			l64, k := binary.Uvarint(p)
			p = p[k:]
			for i := int64(0); i < int64(l64); i++ {
				out[j] = Rid(cur + i)
				j++
			}
			cur += int64(l64)
			if j < n {
				g, k := binary.Uvarint(p)
				p = p[k:]
				cur += int64(g)
			}
		}
	case chunkBitmap:
		base := ch.Start
		j := 0
		for bi, w := range ch.Payload {
			for w != 0 {
				out[j] = base + Rid(bi*8+bits.TrailingZeros8(w))
				j++
				w &= w - 1
			}
		}
	}
	return dst
}

// EncodedList is a standalone encoded rid list: the result shape of the
// in-situ trace operations. Data is a valid chunk sequence (concatenable
// with any other encoded list); N is the element count.
type EncodedList struct {
	Data []byte
	N    int
}

// Len returns the element count.
func (l EncodedList) Len() int { return l.N }

// SizeBytes returns the encoded payload size.
func (l EncodedList) SizeBytes() int { return len(l.Data) }

// AppendTo decodes the list onto dst (chunk-granular pre-grow).
func (l EncodedList) AppendTo(dst []Rid) []Rid {
	c := EncCursor{rest: l.Data}
	for {
		ch, ok := c.Next()
		if !ok {
			return dst
		}
		dst = ch.ExpandInto(dst)
	}
}

// TraceInSitu evaluates the backward trace of src without decoding: the
// result is the byte-wise concatenation of the seed entries' chunk bytes,
// valid because chunks are self-contained. Decoding the result yields
// exactly the rids Trace would return, in the same order; only the
// representation differs — the trace moves encoded bytes (~1–2 per rid on
// dense lineage) instead of expanding to 4-byte rids.
func (e *EncodedIndex) TraceInSitu(src []Rid) EncodedList {
	total := 0
	for _, i := range src {
		total += int(e.offs[i+1] - e.offs[i])
	}
	data := make([]byte, 0, total)
	n := 0
	for _, i := range src {
		data = append(data, e.ListBytes(int(i))...)
		n += e.ListLen(int(i))
	}
	return EncodedList{Data: data, N: n}
}

// IntersectEncoded intersects two encoded rid lists in-situ, returning the
// encoded intersection. Both lists must be element-ascending (the invariant
// of backward lineage lists over contiguous capture). Chunk pairs dispatch
// on their encodings: range∩range computes the overlap in O(1) and emits a
// range chunk; bitmap∩bitmap ANDs the overlapping window byte-wise; every
// other pair expands into pooled scratch and merge-intersects.
func IntersectEncoded(a, b []byte) EncodedList {
	var out EncodedList
	ca, cb := EncCursor{rest: a}, EncCursor{rest: b}
	acur, aok := nextBounded(&ca)
	bcur, bok := nextBounded(&cb)
	for aok && bok {
		switch {
		case acur.hi < bcur.lo:
			acur.release()
			acur, aok = nextBounded(&ca)
		case bcur.hi < acur.lo:
			bcur.release()
			bcur, bok = nextBounded(&cb)
		default:
			intersectPair(&acur, &bcur, &out)
			// Only the chunk that ends first is exhausted; the other may
			// still overlap its peer's successor chunks.
			if acur.hi <= bcur.hi {
				acur.release()
				acur, aok = nextBounded(&ca)
			} else {
				bcur.release()
				bcur, bok = nextBounded(&cb)
			}
		}
	}
	if aok {
		acur.release()
	}
	if bok {
		bcur.release()
	}
	return out
}

// boundedChunk is a chunk with resolved exact bounds; chunks whose bounds
// require decoding (raw, delta, RLE) carry their expansion in pooled
// scratch until released.
type boundedChunk struct {
	ch     Chunk
	lo, hi Rid
	elems  []Rid // non-nil when the chunk was expanded (scratch-backed)
	buf    []Rid // the scratch buffer backing elems, returned on release
}

func (bc *boundedChunk) release() {
	if bc.buf != nil {
		scratch.PutRids(bc.buf)
		bc.buf, bc.elems = nil, nil
	}
}

// nextBounded pulls the next non-empty chunk and resolves its bounds,
// expanding (into pooled scratch) only the encodings that require it.
func nextBounded(c *EncCursor) (boundedChunk, bool) {
	for {
		ch, ok := c.Next()
		if !ok {
			return boundedChunk{}, false
		}
		if ch.N == 0 {
			continue
		}
		if lo, hi, ok := ch.Bounds(); ok {
			return boundedChunk{ch: ch, lo: lo, hi: hi}, true
		}
		buf := scratch.Rids(ch.N)
		elems := ch.ExpandInto(buf[:0])
		return boundedChunk{ch: ch, lo: elems[0], hi: elems[len(elems)-1], elems: elems, buf: buf}, true
	}
}

// intersectPair appends the intersection of two overlapping chunks to out.
func intersectPair(a, b *boundedChunk, out *EncodedList) {
	if a.elems == nil && b.elems == nil {
		if a.ch.Tag == chunkRange && b.ch.Tag == chunkRange {
			lo, hi := maxRid(a.lo, b.lo), minRid(a.hi, b.hi)
			n := int(hi-lo) + 1
			out.Data = append(out.Data, chunkRange)
			out.Data = binary.AppendUvarint(out.Data, uint64(n))
			out.Data = binary.AppendUvarint(out.Data, uint64(lo))
			out.N += n
			return
		}
		if a.ch.Tag == chunkBitmap && b.ch.Tag == chunkBitmap {
			intersectBitmaps(&a.ch, &b.ch, out)
			return
		}
	}
	// Generic: expand whichever sides aren't already expanded, merge-intersect.
	ae, be := a.elems, b.elems
	var bufA, bufB []Rid
	if ae == nil {
		bufA = scratch.Rids(a.ch.N)
		ae = a.ch.ExpandInto(bufA[:0])
	}
	if be == nil {
		bufB = scratch.Rids(b.ch.N)
		be = b.ch.ExpandInto(bufB[:0])
	}
	n := len(ae)
	if len(be) < n {
		n = len(be)
	}
	buf := scratch.Rids(n)
	m := 0
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i] < be[j]:
			i++
		case ae[i] > be[j]:
			j++
		default:
			buf[m] = ae[i]
			m++
			i++
			j++
		}
	}
	if m > 0 {
		out.Data = appendEncodedList(out.Data, buf[:m])
		out.N += m
	}
	scratch.PutRids(buf)
	if bufA != nil {
		scratch.PutRids(bufA)
	}
	if bufB != nil {
		scratch.PutRids(bufB)
	}
}

// intersectBitmaps ANDs the overlapping window of two bitmap chunks and
// emits the result as a bitmap chunk (count = popcount of the AND). The
// window is addressed on a's byte grid, so a's bytes are read directly and
// b's bits are gathered at the matching offset — a pure byte-AND when the
// bases are byte-aligned.
func intersectBitmaps(a, b *Chunk, out *EncodedList) {
	lo := maxRid(a.Start, b.Start)
	hi := minRid(a.Start+Rid(8*len(a.Payload)), b.Start+Rid(8*len(b.Payload))) - 1
	if hi < lo {
		return
	}
	aFirst := int(lo-a.Start) / 8
	aLast := int(hi-a.Start) / 8
	base := a.Start + Rid(8*aFirst)
	nb := aLast - aFirst + 1
	buf := make([]byte, nb)
	n := 0
	for i := 0; i < nb; i++ {
		w := a.Payload[aFirst+i] & bitmapByteAt(b.Payload, int(base-b.Start)+8*i)
		buf[i] = w
		n += bits.OnesCount8(w)
	}
	if n == 0 {
		return
	}
	out.Data = append(out.Data, chunkBitmap)
	out.Data = binary.AppendUvarint(out.Data, uint64(n))
	out.Data = binary.AppendUvarint(out.Data, uint64(base))
	out.Data = binary.AppendUvarint(out.Data, uint64(nb))
	out.Data = append(out.Data, buf...)
	out.N += n
}

// bitmapByteAt extracts the 8 bits of bm starting at bit offset off; bits
// outside the bitmap (including negative offsets) read as zero.
func bitmapByteAt(bm []byte, off int) byte {
	if off <= -8 || off >= 8*len(bm) {
		return 0
	}
	if off < 0 {
		return bm[0] << uint(-off)
	}
	i, s := off/8, off%8
	v := bm[i] >> uint(s)
	if s > 0 && i+1 < len(bm) {
		v |= bm[i+1] << uint(8-s)
	}
	return v
}

func minRid(a, b Rid) Rid {
	if a < b {
		return a
	}
	return b
}

func maxRid(a, b Rid) Rid {
	if a > b {
		return a
	}
	return b
}

// ArrCursor is a sequential-probe cursor over an EncodedArr: for
// non-decreasing probe sequences (the shape of forward traces over sorted
// seed rids, dense-forward materialization, and inversion scans) it advances
// a run pointer instead of binary-searching per lookup — amortized O(1) per
// probe versus O(log runs). A regressing probe falls back to binary search,
// so any probe order is correct.
type ArrCursor struct {
	e *EncodedArr
	k int
}

// Cursor returns a sequential-probe cursor positioned at the first run.
func (e *EncodedArr) Cursor() ArrCursor { return ArrCursor{e: e} }

// Get returns entry i (see ArrCursor).
func (c *ArrCursor) Get(i Rid) Rid {
	e := c.e
	k := c.k
	if int32(i) < e.starts[k] {
		return e.Get(i) // regressed probe: stateless binary search
	}
	starts := e.starts
	for k+1 < len(starts) && starts[k+1] <= int32(i) {
		k++
	}
	c.k = k
	if e.seq[k] {
		return e.vals[k] + Rid(int32(i)-e.starts[k])
	}
	return e.vals[k]
}
