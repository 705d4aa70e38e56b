package lineage

import (
	"math/rand"
	"reflect"
	"testing"
)

// expandViaCursor decodes an encoded byte sequence with the chunk cursor.
func expandViaCursor(b []byte) []Rid {
	var out []Rid
	c := NewEncCursor(b)
	for {
		ch, ok := c.Next()
		if !ok {
			return out
		}
		out = ch.ExpandInto(out)
	}
}

func TestChunkCursorRoundTrip(t *testing.T) {
	for name, list := range listShapes() {
		data := appendEncodedList(nil, list)
		got := expandViaCursor(data)
		if len(list) == 0 {
			if len(got) != 0 {
				t.Errorf("%s: got %v, want empty", name, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, list) {
			t.Errorf("%s: cursor decoded %v, want %v", name, got, list)
		}
		// Multi-chunk: the concatenation of two lists' bytes decodes as the
		// concatenation of the lists (the self-contained-chunk contract).
		double := append(append([]byte{}, data...), data...)
		want := append(append([]Rid{}, list...), list...)
		if got := expandViaCursor(double); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concatenated chunks decoded %v, want %v", name, got, want)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	for name, list := range listShapes() {
		if len(list) == 0 {
			continue
		}
		c := NewEncCursor(appendEncodedList(nil, list))
		ch, ok := c.Next()
		if !ok {
			t.Fatalf("%s: no chunk", name)
		}
		lo, hi, ok := ch.Bounds()
		if !ok {
			continue // raw/delta/RLE: bounds require decoding
		}
		elems := ch.ExpandInto(nil)
		if lo != elems[0] || hi != elems[len(elems)-1] {
			t.Errorf("%s: Bounds = [%d,%d], want [%d,%d]", name, lo, hi, elems[0], elems[len(elems)-1])
		}
	}
}

func TestRawCursor(t *testing.T) {
	list := []Rid{4, 9, 1, 1, 300}
	c := NewRawCursor(list)
	ch, ok := c.Next()
	if !ok || ch.N != len(list) {
		t.Fatalf("raw cursor: ok=%v n=%d", ok, ch.N)
	}
	if got := ch.ExpandInto(nil); !reflect.DeepEqual(got, list) {
		t.Fatalf("raw cursor expanded %v, want %v", got, list)
	}
	if _, ok := c.Next(); ok {
		t.Fatal("raw cursor should yield exactly one chunk")
	}
	if _, ok := NewRawCursor(nil).Next(); ok {
		t.Fatal("empty raw cursor should yield no chunks")
	}
}

func buildEncIndex(lists [][]Rid) *EncodedIndex {
	b := NewEncodedBuilder(len(lists))
	for _, l := range lists {
		b.Add(l)
	}
	return b.Build()
}

func TestTraceInSituMatchesTrace(t *testing.T) {
	shapes := listShapes()
	lists := [][]Rid{
		shapes["range"], {}, shapes["clustered"], shapes["dense8"],
		shapes["sparse"], shapes["random"], shapes["single"],
	}
	e := buildEncIndex(lists)
	ix := NewEncodedMany(e)
	for _, src := range [][]Rid{
		{},
		{0},
		{1}, // empty list
		{0, 2, 3, 5},
		{5, 0, 5, 2, 2}, // duplicates and non-ascending seeds
		{0, 1, 2, 3, 4, 5, 6},
	} {
		want := ix.Trace(src)
		got := e.TraceInSitu(src)
		if got.Len() != len(want) {
			t.Fatalf("src %v: N = %d, want %d", src, got.Len(), len(want))
		}
		dec := got.AppendTo(nil)
		if len(want) == 0 {
			if len(dec) != 0 {
				t.Fatalf("src %v: decoded %v, want empty", src, dec)
			}
			continue
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("src %v: in-situ trace decoded %v, want %v", src, dec, want)
		}
	}
}

// refIntersect merge-intersects two strictly ascending lists.
func refIntersect(a, b []Rid) []Rid {
	out := []Rid{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func TestIntersectEncoded(t *testing.T) {
	mkRange := func(lo, n Rid) []Rid {
		l := make([]Rid, n)
		for i := range l {
			l[i] = lo + Rid(i)
		}
		return l
	}
	mkStride := func(lo, stride, n Rid) []Rid {
		l := make([]Rid, n)
		for i := range l {
			l[i] = lo + Rid(i)*stride
		}
		return l
	}
	cases := map[string][2][]Rid{
		"rangeRangeOverlap":  {mkRange(0, 100), mkRange(50, 100)},
		"rangeRangeDisjoint": {mkRange(0, 100), mkRange(500, 100)},
		"rangeRangeNested":   {mkRange(0, 1000), mkRange(200, 10)},
		"bitmapBitmap":       {mkStride(0, 3, 200), mkStride(0, 2, 300)},
		"bitmapUnaligned":    {mkStride(5, 3, 200), mkStride(2, 2, 300)},
		"rangeBitmap":        {mkRange(100, 300), mkStride(0, 3, 200)},
		"rleRle":             {listShapes()["clustered"], listShapes()["clustered"]},
		"rleRange":           {listShapes()["clustered"], mkRange(0, 2000)},
		"sparseSparse":       {mkStride(0, 1000, 64), mkStride(0, 1500, 40)},
		"empty":              {nil, mkRange(0, 10)},
	}
	for name, c := range cases {
		a, b := c[0], c[1]
		da := appendEncodedList(nil, a)
		db := appendEncodedList(nil, b)
		want := refIntersect(a, b)
		got := IntersectEncoded(da, db)
		dec := got.AppendTo(nil)
		if got.Len() != len(want) || !reflect.DeepEqual(append([]Rid{}, dec...), append([]Rid{}, want...)) {
			t.Errorf("%s: got %d elems %v, want %d elems %v", name, got.Len(), dec, len(want), want)
		}
		// Symmetric.
		rev := IntersectEncoded(db, da)
		if rev.Len() != len(want) || !reflect.DeepEqual(append([]Rid{}, rev.AppendTo(nil)...), append([]Rid{}, want...)) {
			t.Errorf("%s (swapped): got %v, want %v", name, rev.AppendTo(nil), want)
		}
	}

	// Multi-chunk operands: concatenated partition lists against one range.
	partA := appendEncodedList(nil, mkRange(0, 500))
	partA = appendEncodedList(partA, mkStride(1000, 3, 200))
	partA = appendEncodedList(partA, mkStride(5000, 1000, 59))
	flatA := expandViaCursor(partA)
	other := mkStride(0, 7, 3000)
	want := refIntersect(flatA, other)
	got := IntersectEncoded(partA, appendEncodedList(nil, other))
	if !reflect.DeepEqual(append([]Rid{}, got.AppendTo(nil)...), append([]Rid{}, want...)) {
		t.Fatalf("multi-chunk: got %v, want %v", got.AppendTo(nil), want)
	}
}

// TestIntersectEncodedFastPathShapes pins that the specialized paths are
// actually exercised and keep the result encoded: two overlapping ranges
// intersect into a few header bytes regardless of overlap size, and two
// bitmap chunks intersect into a bitmap chunk.
func TestIntersectEncodedFastPathShapes(t *testing.T) {
	big := make([]Rid, 1_000_000)
	for i := range big {
		big[i] = Rid(i)
	}
	shifted := make([]Rid, 1_000_000)
	for i := range shifted {
		shifted[i] = Rid(i + 500_000)
	}
	da := appendEncodedList(nil, big)
	db := appendEncodedList(nil, shifted)
	if da[0] != chunkRange || db[0] != chunkRange {
		t.Fatal("setup: expected range encodings")
	}
	got := IntersectEncoded(da, db)
	if got.Len() != 500_000 {
		t.Fatalf("range∩range N = %d, want 500000", got.Len())
	}
	if got.SizeBytes() > 16 {
		t.Fatalf("range∩range result is %d bytes; the O(1) path should emit one range chunk", got.SizeBytes())
	}

	evens := make([]Rid, 0, 4000)
	thirds := make([]Rid, 0, 4000)
	for i := Rid(0); i < 8000; i += 2 {
		evens = append(evens, i)
	}
	for i := Rid(3); i < 8000; i += 3 {
		thirds = append(thirds, i)
	}
	de := appendEncodedList(nil, evens)
	dt := appendEncodedList(nil, thirds)
	if de[0] != chunkBitmap || dt[0] != chunkBitmap {
		t.Skipf("setup: encoder picked tags %d/%d, not bitmap", de[0], dt[0])
	}
	got = IntersectEncoded(de, dt)
	if want := refIntersect(evens, thirds); got.Len() != len(want) ||
		!reflect.DeepEqual(got.AppendTo(nil), want) {
		t.Fatalf("bitmap∩bitmap: got %d elems, want %d", got.Len(), len(want))
	}
	if len(got.Data) == 0 || got.Data[0] != chunkBitmap {
		t.Fatal("bitmap∩bitmap should emit a bitmap chunk")
	}
}

func TestArrCursorMatchesGet(t *testing.T) {
	const n = 50_000
	arr := make([]Rid, n)
	out := Rid(0)
	for i := range arr {
		switch (i / 500) % 3 {
		case 0:
			arr[i] = out
			out++
		case 1:
			arr[i] = -1
		default:
			arr[i] = 7
		}
	}
	e := EncodeArr(arr)
	if e == nil {
		t.Fatal("run-shaped array should compress")
	}
	// Ascending strided probes (the forward-trace shape).
	c := e.Cursor()
	for i := 0; i < n; i += 7 {
		if got := c.Get(Rid(i)); got != arr[i] {
			t.Fatalf("seq Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
	// Full sequential scan.
	c = e.Cursor()
	for i := 0; i < n; i++ {
		if got := c.Get(Rid(i)); got != arr[i] {
			t.Fatalf("scan Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
	// Random probe order: correctness must not depend on monotonicity.
	rng := rand.New(rand.NewSource(11))
	c = e.Cursor()
	for k := 0; k < 10_000; k++ {
		i := rng.Intn(n)
		if got := c.Get(Rid(i)); got != arr[i] {
			t.Fatalf("random Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
}
