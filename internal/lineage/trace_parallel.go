package lineage

import "smoke/internal/pool"

// ParTrace is the morsel-parallel rid-list expansion behind the physical
// trace operator: it evaluates ix.Trace(src) by splitting the seed set into
// contiguous partitions, expanding each partition's rid lists into a
// partition-local buffer on the worker pool, and concatenating the buffers in
// partition order. Because Trace is a per-seed concatenation, the result is
// element-for-element identical to the serial call — duplicates (repeated
// seeds, transformational semantics) included. Encoded indexes decode their
// touched entries in place, per partition.
//
// workers <= 1 (or a tiny seed set) falls through to the serial Trace.
func ParTrace(ix *Index, src []Rid, workers int, pl *pool.Pool) []Rid {
	if workers <= 1 || len(src) < 2 {
		return ix.Trace(src)
	}
	ranges := pool.Split(len(src), workers)
	locals := make([][]Rid, len(ranges))
	pl.RunSplit(ranges, func(part, lo, hi int) {
		// Each partition routes through the serial Trace so it inherits the
		// cursor specializations (exact-sized EncodedMany expansion,
		// ArrCursor sequential probes).
		locals[part] = ix.Trace(src[lo:hi])
	})
	total := 0
	for _, l := range locals {
		total += len(l)
	}
	out := make([]Rid, 0, total)
	for _, l := range locals {
		out = append(out, l...)
	}
	return out
}

// ParTraceFiltered is ParTrace with a per-rid keep predicate applied during
// expansion (the trace operator's pushed-down consuming filter): traced rids
// failing keep are dropped before any materialization, preserving the order
// of the survivors. A nil keep is equivalent to ParTrace.
func ParTraceFiltered(ix *Index, src []Rid, keep func(Rid) bool, workers int, pl *pool.Pool) []Rid {
	if keep == nil {
		return ParTrace(ix, src, workers, pl)
	}
	if workers <= 1 || len(src) < 2 {
		out := ix.Trace(src)
		kept := out[:0]
		for _, r := range out {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		return kept
	}
	ranges := pool.Split(len(src), workers)
	locals := make([][]Rid, len(ranges))
	pl.RunSplit(ranges, func(part, lo, hi int) {
		one := ix.seqTracer() // partition-local cursor state
		var buf, dst []Rid
		for _, s := range src[lo:hi] {
			buf = one(s, buf[:0])
			for _, r := range buf {
				if keep(r) {
					dst = append(dst, r)
				}
			}
		}
		locals[part] = dst
	})
	total := 0
	for _, l := range locals {
		total += len(l)
	}
	out := make([]Rid, 0, total)
	for _, l := range locals {
		out = append(out, l...)
	}
	return out
}
