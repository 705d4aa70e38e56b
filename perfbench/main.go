// Command perfbench is the served-lineage benchmark. It generates one
// workload from a seed, serves it through the real smoked handler stack
// (internal/server, or internal/shard for the shard workload) on a loopback
// listener, gates every request class against in-process execution, and
// drives it with two closed-loop clients for a fixed time.
//
//	go build -o perfbench . && ./perfbench --workload brush --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports end-to-end metrics; with --trace 1 it splits
// request time by layer (see BENCHMARK.json for the metric list). Each
// metric is printed by name with its unit, and the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A request answered differently from in-process execution in the gate
// exits non-zero without that line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// setupRounds is how many times a run sets the workload up; setup_s is the
// median.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "brush", "brush, report, spill or shard")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and scripts")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "directory that receives .bench_build scratch files")
	flag.Parse()
	cfg.trace = trace == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fatal(err)
	}
	cfg.root = root
	out, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// failedFrac is failed over attempted requests; a refused request (429,
// 503) and a transport error count as failed like any non-2xx reply.
func failedFrac(attempted, failed int) float64 {
	return float64(failed) / float64(max(1, attempted))
}

// sampleLiveHeap reads the live heap the garbage collector measured at its
// latest cycle (runtime/metrics /gc/heap/live:bytes) every 50ms until stop
// closes, in MiB.
func sampleLiveHeap(stop <-chan struct{}) []float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var out []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			out = append(out, float64(s[0].Value.Uint64())/(1<<20))
		}
	}
}

// timed runs one untraced slice of the timed phase on e, booking it in p,
// and returns the live heap sampled meanwhile: what the collector found
// live at its most recent cycle (retained captures plus the cache). The
// slice ends by draining background work.
func (e *env) timed(ctx context.Context, length time.Duration, p *phase) ([]float64, error) {
	stop := make(chan struct{})
	heap := make(chan []float64)
	go func() { heap <- sampleLiveHeap(stop) }()
	var drainErr error
	e.run(ctx, deadline(length), p, false, func() {
		close(stop)
		_, drainErr = e.drain(ctx)
	})
	return <-heap, drainErr
}

// deadline is a run's stop condition: length from now.
func deadline(length time.Duration) func() bool {
	end := time.Now().Add(length)
	return func() bool { return !time.Now().Before(end) }
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(ctx context.Context, cfg config) (*output, error) {
	out := &output{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	length := time.Duration(cfg.seconds * float64(time.Second))

	// An untraced run times a slice of its phase on every instance it sets
	// up and pools the samples, so one instance's disk or scheduling luck
	// weighs a third. A traced run keeps the last instance for the layer
	// split, timing it untraced for half the phase and traced for the rest.
	p := &phase{}
	var setups, heap []float64
	var e *env
	defer func() {
		if e != nil {
			e.shutdown()
		}
	}()
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.shutdown()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, cfg, i); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.trace && i < setupRounds-1 {
			continue
		}
		slice := length / setupRounds
		if cfg.trace {
			slice = length / 2
		} else {
			// Past the gate an untraced run needs no reference engine:
			// drop it so that live_heap_mb measures the served program
			// alone.
			e.releaseRef()
			runtime.GC()
		}
		h, err := e.timed(ctx, slice, p)
		if err != nil {
			return nil, err
		}
		heap = append(heap, h...)
	}
	heapMB := median(heap)
	phases := []*phase{p}

	if !cfg.trace {
		qp50, _ := percentile(p.queryMS, 50)
		qp95, qn := percentile(p.queryMS, 95)
		tp50, _ := percentile(p.traceMS, 50)
		tp95, tn := percentile(p.traceMS, 95)
		put("query_p50_ms", qp50, "ms")
		put("query_p95_ms", qp95, "ms")
		put("trace_p50_ms", tp50, "ms")
		put("trace_p95_ms", tp95, "ms")
		put("throughput_rps", float64(p.attempted-p.failed)/p.elapsed.Seconds(), "1/s")
		put("setup_s", median(setups), "s")
		put("live_heap_mb", heapMB, "MB")
		fmt.Printf("samples: %d queries (%d above p95), %d traces (%d above p95); setups %v s\n",
			qn, above(qn, 95), tn, above(tn, 95), setups)
		for _, s := range []struct {
			what string
			n    int
		}{{"query", qn}, {"trace", tn}} {
			if above(s.n, 95) < 10 {
				fmt.Fprintf(os.Stderr, "perfbench: %s p95 rests on %d samples, fewer than 10 above it\n", s.what, s.n)
			}
		}
	} else {
		layers, err := e.layers(ctx, length/2, p)
		if err != nil {
			return nil, err
		}
		for k, v := range layers.Metrics {
			out.Metrics[k] = v
		}
		phases = append(phases, layers.traced)
		if layers.walk != nil {
			phases = append(phases, layers.walk)
		}
	}

	for _, ph := range phases {
		fmt.Printf("cache: %d of %d query and trace replies cached, the script predicts %d\n",
			ph.cached, ph.requests, ph.repeats)
		out.Attempted += ph.attempted
		out.Failed += ph.failed
		for c, n := range ph.causes {
			fmt.Fprintf(os.Stderr, "perfbench: %d failed: %s (first: %s)\n", n, c, ph.example[c])
		}
		for _, w := range ph.wrong {
			out.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", w)
		}
		for _, c := range ph.cacheBad {
			out.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: cache attribution:", c)
		}
	}
	if cfg.trace {
		put("failed_frac", failedFrac(out.Attempted, out.Failed), "frac")
	}
	fmt.Printf("requests: %d attempted, %d failed\n", out.Attempted, out.Failed)
	return out, nil
}
