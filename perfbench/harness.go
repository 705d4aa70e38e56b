package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/ops"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
	"smoke/internal/sql"
	"smoke/internal/storage"
	"smoke/internal/tpch"
)

// Load shape: two closed-loop clients in one process, and two engine
// workers, one per core of the reference machine.
const (
	clients = 2
	workers = 2
)

// env is one served instance of a workload: the handler stack under test
// behind a loopback listener, the in-process reference engine over the same
// generated data, and the expected answer of every request class.
type env struct {
	c *client
	// ref is the in-process reference engine; nil once released.
	ref *core.DB
	// want maps a request class to its in-process answer rows.
	want map[string]*storage.Relation
	// script returns session i of the workload.
	script func(i int) script
	// cacheSeen: repeats are answered by a plan-fingerprint cache that
	// reports the hit in its reply. cacheOn: a cache answers them at all.
	cacheSeen, cacheOn bool
	// store marks a disk tier whose flusher must drain.
	store bool
	// single serves the reference engine over HTTP, as the single-node
	// counterpart of a shard coordinator (nil otherwise).
	single *client
	// ingestNs is the time the last table upload took; captureBytes the
	// MemBytes of one brushing view's capture (spill sizes its budgets and
	// disk bytes per user byte by it).
	ingestNs     int64
	captureBytes int64
	scratch      string // directory for disk-tier files
	next         atomic.Int64
	close        []func()
}

func (e *env) shutdown() {
	for i := len(e.close) - 1; i >= 0; i-- {
		e.close[i]()
	}
	e.close = nil
	e.releaseRef()
}

// releaseRef closes the reference engine and drops it with its copy of the
// data, so that the live heap of a timed phase is the program's own.
func (e *env) releaseRef() {
	if e.ref != nil {
		e.ref.Close()
		e.ref = nil
	}
}

// serve puts h behind a loopback listener and returns a client for it.
func (e *env) serve(h http.Handler) *client {
	ts := httptest.NewServer(h)
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * clients}
	e.close = append(e.close, func() {
		tr.CloseIdleConnections()
		ts.Close()
	})
	return newClient(ts.URL, &http.Client{Transport: tr})
}

// newSingle builds a single-node server over db.
func (e *env) newServer(cfg server.Config) *client {
	srv := server.New(cfg)
	e.close = append(e.close, func() { _ = srv.Close() })
	return e.serve(srv)
}

// config is what one run was asked for.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: scratch files go under .bench_build
}

// Data sizes. brushRows is the fact table of brush and shard; spill's is
// smaller because every retained capture is also written (and fsynced) to
// disk; reportSF is the TPC-H scale factor of report.
const (
	brushRows = 1_000_000
	spillRows = 50_000
	reportSF  = 0.05
)

// setup builds one served instance of cfg.workload: generate the data,
// ingest it over HTTP, gate every request class against in-process
// execution, and warm up. A gate failure is an error.
func setup(ctx context.Context, cfg config, round int) (*env, error) {
	e := &env{want: map[string]*storage.Relation{}}
	ok := false
	defer func() {
		if !ok {
			e.shutdown()
		}
	}()
	e.ref = core.Open(core.WithWorkers(workers))

	switch cfg.workload {
	case "brush", "spill", "shard":
		rows := brushRows
		if cfg.workload == "spill" {
			rows = spillRows
		}
		rel := brushData(rows, cfg.seed)
		e.ref.Register(rel)
		views := brushViews(1)
		switch cfg.workload {
		case "brush":
			e.c = e.newServer(server.Config{DB: e.opened(), MaxSessions: 256})
			e.cacheSeen, e.cacheOn = true, true
		case "spill":
			// Eight linked views per session, one session per client:
			// sixteen live captures against a memory budget of three, so
			// most traces find their view demoted (answered in situ or
			// promoted). The disk budget holds every live view's segment.
			views = brushViews(8)
			sample, err := e.ref.Query().From(brushTable, nil).GroupBy("d1").
				Agg(ops.Count, nil, "cnt").Run(core.CaptureOptions{Mode: ops.Inject})
			if err != nil {
				return nil, err
			}
			one := sample.MemBytes()
			e.captureBytes = one
			e.scratch = filepath.Join(cfg.root, ".bench_build", "tmp")
			dir := filepath.Join(e.scratch, fmt.Sprintf("spill-%d-%d", os.Getpid(), round))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			e.close = append(e.close, func() { _ = os.RemoveAll(dir) })
			store, err := diskstore.Open(dir)
			if err != nil {
				return nil, err
			}
			// The store is left open: Close unmaps every segment the run
			// mapped, one by one, which takes longer than the timed phase;
			// the benchmark process exits right after and the kernel
			// releases the mappings.
			e.c = e.newServer(server.Config{DB: e.opened(), Store: store, CacheEntries: -1,
				MaxSessions: 256, MaxRetainedBytes: 3 * one, MaxDiskBytes: int64(clients*len(views)) * one})
			e.store = true
		case "shard":
			coord := shard.New(shard.Config{Shards: 2, Workers: 1, ShardTimeout: 60 * time.Second, MaxInFlight: 4 * clients})
			e.close = append(e.close, func() { _ = coord.Close() })
			e.c = e.serve(coord)
			e.cacheOn = true
			if cfg.trace {
				e.single = e.newServer(server.Config{DB: e.ref, MaxSessions: 256})
			}
		}
		dist := ""
		if cfg.workload == "shard" {
			dist = "shard"
		}
		t0 := time.Now()
		if err := ingestCSV(ctx, e.c, rel, "", dist); err != nil {
			return nil, err
		}
		e.ingestNs = time.Since(t0).Nanoseconds()
		e.script = func(i int) script { return brushScript(cfg.seed, i, rows, views) }
		if err := e.gateBrush(ctx, cfg.seed, rows, views); err != nil {
			return nil, err
		}
	case "report":
		tp := tpch.Generate(reportSF, cfg.seed)
		e.c = e.newServer(server.Config{DB: e.opened(), MaxSessions: 256})
		e.cacheSeen, e.cacheOn = true, true
		for _, t := range reportTables(tp) {
			e.ref.Register(t.rel)
			if t.pk != "" {
				e.ref.Catalog().SetPrimaryKey(t.rel.Name, t.pk)
			}
			t0 := time.Now()
			if err := ingestCSV(ctx, e.c, t.rel, t.pk, ""); err != nil {
				return nil, err
			}
			e.ingestNs += time.Since(t0).Nanoseconds()
		}
		e.script = func(i int) script { return reportScript(cfg.seed, i) }
		if err := e.gateReport(ctx); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want brush, report, spill or shard)", cfg.workload)
	}

	// Warm up for half a second, and (spill) on until the flusher has
	// landed several demotions.
	e.next.Store(1 << 20) // session uids above every gate uid
	warm := &phase{}
	ready := func() bool { return true }
	if e.store {
		var landed atomic.Bool
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for !landed.Load() {
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Millisecond):
				}
				if h, err := e.c.sc.Health(ctx); err == nil && counter(h, "demotes") >= 6 {
					landed.Store(true)
				}
			}
		}()
		ready = landed.Load
	}
	t0 := time.Now()
	e.run(ctx, func() bool {
		d := time.Since(t0)
		return d > 500*time.Millisecond && ready() || d > 20*time.Second
	}, warm, false, nil)
	if !ready() {
		fmt.Fprintln(os.Stderr, "perfbench: the flusher landed fewer than 6 demotions in 20s of warm-up; timing anyway")
	}
	if err := warm.err(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ok = true
	return e, nil
}

// opened returns a fresh engine for a server under test and registers its
// shutdown.
func (e *env) opened() *core.DB {
	db := core.Open(core.WithWorkers(workers))
	e.close = append(e.close, db.Close)
	return db
}

// gateBrush computes the expected answer of every brushing request class
// in process and checks the served answer of each, in a gate session.
func (e *env) gateBrush(ctx context.Context, seed int64, n int, views []string) error {
	s, err := e.c.sc.NewSession(ctx)
	if err != nil {
		return err
	}
	defer s.Close(ctx)
	for _, view := range views {
		q, _ := brushView(view, 0)
		res, err := runSQL(e.ref, q, core.CaptureOptions{Mode: ops.Inject})
		if err != nil {
			return err
		}
		e.want[view] = res.Out
		got, err := s.Run(ctx, view, serverclient.QueryRequest{SQL: q})
		if err != nil {
			return fmt.Errorf("gate %s: %w", view, err)
		}
		if err := diffServed(got, res.Out); err != nil {
			return fmt.Errorf("gate %s: served answer differs from in-process execution: %w", view, err)
		}
		_, other := brushView(view, 0)
		var classes []step
		for bar := 0; bar < res.Out.N; bar++ {
			classes = append(classes, brushTrace(view, other, bar))
		}
		for f := 0; f < brushForwards; f++ {
			classes = append(classes, brushForward(seed, view, f, n))
		}
		for _, st := range classes {
			w, err := replayTrace(e.ref, res, st, nil)
			if err != nil {
				return err
			}
			e.want[st.class] = w.Out
			got, err := s.Trace(ctx, view, st.trace)
			if err != nil {
				return fmt.Errorf("gate %s: %w", st.class, err)
			}
			if err := diffServed(got, w.Out); err != nil {
				return fmt.Errorf("gate %s: served answer differs from in-process execution: %w", st.class, err)
			}
		}
	}
	return nil
}

// gateReport does the same for every report shape, literal variant and
// traced group.
func (e *env) gateReport(ctx context.Context) error {
	s, err := e.c.sc.NewSession(ctx)
	if err != nil {
		return err
	}
	defer s.Close(ctx)
	for _, shape := range reportShapes {
		for v := 0; v < reportVariants; v++ {
			class := fmt.Sprintf("%s/v%d", shape, v)
			q := reportSQL(shape, v, 0)
			res, err := runSQL(e.ref, q, core.CaptureOptions{Mode: ops.Inject})
			if err != nil {
				return fmt.Errorf("gate %s: %w", class, err)
			}
			if res.Out.N < reportTraceRids {
				return fmt.Errorf("gate %s: %d groups, the script traces the first %d", class, res.Out.N, reportTraceRids)
			}
			e.want[class] = res.Out
			got, err := s.Run(ctx, "r", serverclient.QueryRequest{SQL: q})
			if err != nil {
				return fmt.Errorf("gate %s: %w", class, err)
			}
			if err := diffServed(got, res.Out); err != nil {
				return fmt.Errorf("gate %s: served answer differs from in-process execution: %w", class, err)
			}
			for rid := 0; rid < reportTraceRids; rid++ {
				st := reportTrace(class, rid)
				w, err := replayTrace(e.ref, res, st, nil)
				if err != nil {
					return fmt.Errorf("gate %s: %w", st.class, err)
				}
				e.want[st.class] = w.Out
				got, err := s.Trace(ctx, "r", st.trace)
				if err != nil {
					return fmt.Errorf("gate %s: %w", st.class, err)
				}
				if err := diffServed(got, w.Out); err != nil {
					return fmt.Errorf("gate %s: served answer differs from in-process execution: %w", st.class, err)
				}
			}
		}
	}
	return nil
}

// runSQL executes one statement in process the way the server does.
func runSQL(db *core.DB, src string, opts core.CaptureOptions) (*core.Result, error) {
	q, err := sql.Compile(db, src)
	if err != nil {
		return nil, err
	}
	return q.Run(opts)
}

// record is one timed request of a traced phase.
type record struct {
	session, step  int
	rootNs, httpNs int64
	decodeNs       int64
	bytes          int
	kind           stepKind
}

// phase accumulates one timed phase over all clients.
type phase struct {
	mu        sync.Mutex
	queryMS   []float64
	traceMS   []float64
	attempted int
	failed    int
	causes    map[string]int
	example   map[string]string
	wrong     []string // answers that differ from in-process execution
	cacheBad  []string // cache hits the script did not predict, or misses it did
	cached    int      // query and trace replies marked cached
	requests  int      // query and trace requests answered
	repeats   int      // of those, scripted repeats the cache reports
	records   []record
	elapsed   time.Duration
}

// fail books one failed request under its cause, keeping the first error
// of each cause as an example.
func (p *phase) fail(cause string, err error) {
	p.failed++
	if p.causes == nil {
		p.causes = map[string]int{}
		p.example = map[string]string{}
	}
	if p.causes[cause]++; p.causes[cause] == 1 {
		p.example[cause] = err.Error()
	}
}

// err reports wrong answers; failed requests are counted, not errors.
func (p *phase) err() error {
	if len(p.wrong) > 0 {
		return fmt.Errorf("wrong answers: %v", p.wrong)
	}
	return nil
}

// lane is the open session of a client.
type lane struct {
	sess     *serverclient.Session
	idx, pos int
	steps    script
	broken   bool // a request of this session failed
}

// run drives the closed loop until until() holds: each client sends its next
// request only after the previous reply. atEnd, when set, runs once the
// loop has stopped and before the clients' open sessions are closed, so it
// sees their retained captures.
func (e *env) run(ctx context.Context, until func() bool, p *phase, keep bool, atEnd func()) {
	start := time.Now()
	var mu sync.Mutex
	var open []*lane
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := e.client(ctx, until, p, keep)
			mu.Lock()
			open = append(open, l)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.elapsed += time.Since(start)
	if atEnd != nil {
		atEnd()
	}
	for _, l := range open {
		if l != nil {
			e.c.close(ctx, l.sess)
		}
	}
}

// client runs one closed-loop client until until() holds and returns its
// still-open session (nil when none is open). Each script session runs in a
// session of its own, opened and closed inside the loop.
func (e *env) client(ctx context.Context, until func() bool, p *phase, keep bool) *lane {
	var l *lane
	for !until() {
		if l != nil && l.pos == len(l.steps) {
			p.count(e.c.close(ctx, l.sess), "close session")
			l = nil
			continue
		}
		if l == nil {
			s, r := e.c.open(ctx)
			if !p.count(r, "open session") {
				continue
			}
			idx := int(e.next.Add(1) - 1)
			l = &lane{sess: s, idx: idx, steps: e.script(idx)}
			continue
		}
		st := l.steps[l.pos]
		e.check(p, l, st, e.c.do(ctx, l.sess, st), keep)
		l.pos++
	}
	return l
}

// count books one request; it reports whether it succeeded.
func (p *phase) count(r reply, what string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if r.err != nil {
		p.fail(fmt.Sprintf("%s: %s", what, cause(r)), r.err)
		return false
	}
	return true
}

// cause names a failure by its kind: an HTTP status, a transport error, or
// a 2xx reply serverclient could not decode.
func cause(r reply) string {
	switch {
	case r.status == 0:
		return "transport error"
	case r.status >= 300:
		return fmt.Sprintf("status %d", r.status)
	}
	return "undecodable reply"
}

// check books a query or trace reply and checks its answer and its cache
// flag against the script.
func (e *env) check(p *phase, l *lane, st step, r reply, keep bool) {
	what := "query"
	if st.kind == stepTrace {
		what = "trace"
	}
	if !p.count(r, what) {
		l.broken = true
		return
	}
	var wrong error
	if w := e.want[st.class]; w == nil {
		wrong = fmt.Errorf("no expected answer")
	} else {
		wrong = diffServed(r.res, w)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if wrong != nil && len(p.wrong) < 8 {
		p.wrong = append(p.wrong, fmt.Sprintf("session %d step %d (%s): %v", l.idx, l.pos, st.class, wrong))
	}
	if st.kind == stepQuery {
		p.queryMS = append(p.queryMS, ms(r.rootNs))
	} else {
		p.traceMS = append(p.traceMS, ms(r.rootNs))
	}
	p.requests++
	want := st.repeat && e.cacheSeen
	if want {
		p.repeats++
	}
	if r.res.Cached {
		p.cached++
	}
	if r.res.Cached != want && !l.broken && len(p.cacheBad) < 8 {
		p.cacheBad = append(p.cacheBad, fmt.Sprintf("session %d step %d (%s): cached=%v, script says %v",
			l.idx, l.pos, st.class, r.res.Cached, want))
	}
	if keep {
		p.records = append(p.records, record{session: l.idx, step: l.pos, kind: st.kind,
			rootNs: r.rootNs, httpNs: r.httpNs, decodeNs: r.decodeNs, bytes: r.bytes})
	}
}

// drain waits, with a bound, until the disk tier's flusher queue is empty,
// and returns how long that took: one /healthz round trip when there is
// nothing to wait for.
func (e *env) drain(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	for {
		h, err := e.c.sc.Health(ctx)
		if err != nil {
			return 0, err
		}
		if counter(h, "flusher_queue_depth") == 0 {
			return time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("flusher queue still %v deep after 30s", counter(h, "flusher_queue_depth"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rowsScanned is the number of base rows a result's plan reads.
func rowsScanned(rels []*storage.Relation) int {
	n := 0
	for _, r := range rels {
		n += r.N
	}
	return n
}

// tierWalk walks one capture-free (strategy lazy) view through the tiers on
// a dedicated disk-tier server whose memory budget keeps only the newest
// result: trace it in
// memory, push it to disk by retaining a second view, and trace it again
// once the flusher has landed the demotion. Every answer must match
// in-process execution; a refused request counts as failed in p.
func (e *env) tierWalk(ctx context.Context, p *phase) error {
	dir := filepath.Join(e.scratch, fmt.Sprintf("walk-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := diskstore.Open(dir)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{DB: e.ref, Store: store, CacheEntries: -1, MaxRetainedBytes: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		_ = srv.Close()
		_ = store.Close()
	}()
	c := newClient(ts.URL, ts.Client())
	s, err := c.sc.NewSession(ctx)
	if err != nil {
		return err
	}
	l := &lane{sess: s}
	lazy, _ := brushView("view1", 1)
	eager, _ := brushView("view1", 2)
	tr := brushTrace("view1", "d2", 0)
	tr.view = "lazy"
	steps := []step{
		{kind: stepQuery, view: "lazy", class: "view1", query: serverclient.QueryRequest{SQL: lazy, Strategy: "lazy"}},
		tr,
		{kind: stepQuery, view: "eager", class: "view1", query: serverclient.QueryRequest{SQL: eager}},
		tr,
	}
	for i, st := range steps {
		if i == len(steps)-1 {
			// The second view demoted the first; wait until it is on disk.
			deadline := time.Now().Add(20 * time.Second)
			for {
				h, err := c.sc.Health(ctx)
				if err != nil {
					return err
				}
				if counter(h, "demotes") >= 1 && counter(h, "flusher_queue_depth") == 0 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("tier walk: the lazy view was not demoted within 20s")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		l.pos = i
		e.check(p, l, st, c.do(ctx, s, st), false)
	}
	return nil
}
